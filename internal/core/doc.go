// Protocol notes — the Fig. 5 message pattern as implemented.
//
// The protocol is split into a machine and its drivers. The machine
// (machine.go) is peer i's session as a pure step function: Step takes one
// input — a delivered envelope, a fired timer, a finished compute, a loaded
// checkpoint, a leave request — and returns what to do next: sends, a timer
// to arm, events, checkpoints to save, and at most one request it then waits
// on (a compute, a checkpoint to load, done). It advances startup →
// (broadcast-globals → relocate → exchange-locals → refine-globals)* → done
// and holds the reorder and epoch buffers, but no goroutine, clock, context
// or transport. Both ends of a run are its transitions: peer 0's machine
// opens by sending N0's StartMsg, and closes by collecting every member's
// final AssignMsg into the corpus-wide assignment. Two drivers step it, and
// only carry outputs and feed inputs. Run executes all m machines of one
// process on one deterministic schedule (schedule.go): it drains per-link
// FIFO queues lowest link first, then runs the compute requests that left
// the peers waiting as one wave, concurrently, applying the results in peer
// order. RunPeer drives one machine per OS process over a p2p.Node
// (cmd/cxkpeer): it reads the transport under ctx, owns the receive
// deadlines (Options.RoundTimeout), runs compute requests on cluster.Rounds,
// does the fabric's store calls, epoch-less sends and connection resets,
// and wraps failures in SessionError (ErrRoundDeadline / ErrTransportClosed
// / ErrUnexpectedMessage / ErrSend).
//
// The elastic fabric. Options.Fabric makes checkpointing, membership and
// recovery transitions of the same machine (fabric.go). At every
// cadence-aligned round boundary it emits a checkpoint, which the driver
// saves; a member replicates the state to the coordinator (CheckpointMsg)
// and leaves there if asked to, the coordinator records its own and admits
// pending joins (JoinMsg). Admission rolls the session back to the barrier,
// the newest round every slot has replicated, under the next epoch: the
// coordinator installs its own replica, sends each joiner its slot's
// replica and every survivor a ResumeMsg, which a survivor answers by
// restoring its own checkpoint. A fired timer is failure detection: the
// coordinator admits, a joiner re-announces itself, a member reports the
// stall once (SuspectMsg), and after RecoveryWindows extra windows the
// session fails with ErrRecoveryTimeout. A send failure is survivable except
// a member's to the coordinator (ErrCoordinatorLost): coordinator death is
// not recovered from. Control messages are taken in any phase and any
// epoch, and vetted: a replica or a join must name its sender's own member
// slot, a resume must come from slot 0.
//
// Startup. Peer 0's machine plays node N₀ (the paper notes any peer can):
// it opens by sending every peer, itself included, the StartMsg with the
// responsibility partition Z₁..Z_m of the cluster ids. A StartMsg that
// cannot be delivered fails the coordinator, under the fabric too. Peer i then
// selects q_i = |Z_i| initial global representatives from its local
// transactions, drawn from distinct source documents. On a real network a
// fast neighbour's round message can overtake the StartMsg (FIFO holds per
// connection, not across connections); startup holds such messages back and
// accepts them — vetted and accounted like any other — once k is known.
// Every process computes its own StartMsg once per Run or RunPeer call
// (NewStartMsg) and compares N0's with it: k, f, γ, the seed, |S| and
// PartitionFingerprint, a digest of the data partition and of the corpus
// content it covers, down to each item's complete path and answer text. Peers
// exchange representatives, never data, so this digest is how a peer learns
// that it loaded a corpus other than N0's; it then fails at startup with
// ErrConfigMismatch.
//
// Each round has four phases:
//
//	Phase 1  broadcast  — peer i sends {g_j | j ∈ Z_i} to every other peer
//	                      and waits for the complementing m−1 messages, so
//	                      each peer holds all k global representatives.
//	Phase 2  relocate   — one relocation pass against the globals (zero
//	                      similarity ⇒ trash cluster k+1), then one local
//	                      representative ℓ_ij per non-empty cluster. The
//	                      globals are fixed for the round and a transaction's
//	                      cluster depends on nothing else, so the pass is a
//	                      pure function of them: running it again returns
//	                      the same assignment, i.e. one pass is the fixpoint.
//	Phase 3  exchange   — if no ℓ_ij changed (or the state revisits a
//	                      previous fingerprint), peer i broadcasts an empty
//	                      LocalRepsMsg with FlagDone; otherwise it sends
//	                      each peer h the pairs {(ℓ_ij, |C_ij|) | j ∈ Z_h},
//	                      every representative in full, every round, on
//	                      every engine. Every peer receives exactly m−1
//	                      LocalRepsMsg per round, so the pattern is symmetric
//	                      and the rounds self-synchronize without a barrier.
//	Phase 4  refine     — if any flag was FlagContinue, peer i recomputes
//	                      g_j = ComputeGlobalRepresentative over the
//	                      received weighted locals (in peer-id order, for
//	                      reproducibility) for each j ∈ Z_i. If all m flags
//	                      were FlagDone the loop terminates — the flags are
//	                      identical at every peer, so termination is
//	                      consistent.
//
// PK-means. The non-collaborative baseline of Sect. 5.5.3 (Dhillon & Modha's
// parallel K-means with simγJ and XML representatives) is a policy of this
// machine, Options.PKMeans, not a second runtime. Round 0 only seeds: phase 1
// as above, after which every peer is responsible for every cluster. Every
// later round skips phase 1, relocates, sends every non-empty ℓ_ij to every
// peer together with its local objective (LocalRepsMsg.Objective), and
// refines all k globals from the same peer-ordered inputs, redundantly on
// every peer. The flags give way to the summed objective: the run stops once
// Σ_i objective_i, added in peer order so every peer gets the same bits,
// moves by at most 1e-9 or repeats an earlier round's sum. The seeding round
// counts, so MaxRounds caps the run at MaxRounds+1 rounds. Neither the
// StartMsg nor a SessionState carries the policy, so RunPeer and the fabric
// run CXK-means only.
//
// Wire form. Representatives travel as flattened raw item ids: synthetic
// (conflated) items are interned per process, so toWire decomposes them
// into their raw constituents — stable across every process that loaded the
// same corpus — and fromWire re-conflates them in the local table. On a
// shared in-process table this reproduces the sender's exact item ids, so
// multi-process runs are byte-identical to in-process runs.
//
// Result collection. A member that reaches done sends the coordinator its
// local assignment (AssignMsg) and ends. The coordinator places its own
// through the partition, arms its timer and stays in done until every
// member's report is in, then ends with the corpus-wide assignment — the
// one Run returns and cxkpeer prints. A timer that fires meanwhile fails it
// with ErrRoundDeadline, under the fabric too. StartMsg and AssignMsg are
// not round traffic: neither is accounted.
//
// Message reordering. A peer may run one phase ahead of a slow neighbour;
// every round message goes through accept, which buffers it per (round,
// type) until its phase collects it and refuses a second from one sender,
// and a member's AssignMsg that overtakes the coordinator's final round is
// placed whenever it arrives. TestExploreSchedules tries every order on 11
// transactions (CXK, PK and the fabric; k, m ∈ {2, 3}; one fault a path at
// m = 2): each ends with Run's result and events, or with a typed error.
//
// Untrusted numbers. Frames arrive from a TCP port anyone on the host can
// dial, and the session indexes with what they say. accept therefore vets
// every round message before anything is grown or indexed by it: the sender
// is the transport-level sender and in [0, m), the round in [0, MaxRounds),
// cluster ids in [0, k), wire item ids inside the interning table, the
// objective finite. A report must come to the coordinator, from a member
// slot that has not reported yet, with one cluster in [trash, k) per
// transaction of that member's part. A violation fails the session with
// ErrUnexpectedMessage.
//
// Failure handling. Under RunPeer, sends propagate transport errors and
// fail the session (a silent drop would starve the receiving peer), and
// receives honour the per-round deadline, so a dead peer surfaces as
// ErrRoundDeadline with the round and phase it struck in rather than a hung
// process. Run arms no timer: when nothing is queued and nothing is left to
// compute while a machine still waits, the run fails at once with
// ErrStalled, naming the lowest waiting peer, its round and its phase. The
// first failure of any machine ends Run; no other goroutine is left to stop.
//
// Accounting. Every peer records, per round: compute time (under
// Options.SerializeCompute, Run computes one peer at a time so measurements
// are not polluted by host-core oversubscription), modeled sent/received
// bytes and message counts (core.Sizer) — a sent message is counted by the
// driver that carries it, a received one where it is accepted, whichever
// path it took there. Result.SimulatedTime folds these into the paper's
// runtime metric: Σ_rounds (max_i compute + max_i wire-time).
package core

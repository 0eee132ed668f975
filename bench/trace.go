package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"xmlclust"
	"xmlclust/internal/core"
)

// span is one timed interval recorded by the harness around a call into a
// layer's public API. Parent 0 means the span has no parent.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
	Layer    string `json:"layer"`
	Name     string `json:"name"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
	Workload string `json:"workload"`
}

// tracer keeps spans in memory; write puts them on disk when the run ends.
type tracer struct {
	mu       sync.Mutex
	t0       time.Time
	workload string
	spans    []span
}

func newTracer(workload string) *tracer {
	return &tracer{t0: time.Now(), workload: workload}
}

func (t *tracer) start(parent int, layer, name string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Layer: layer, Name: name,
		StartNS: time.Since(t.t0).Nanoseconds(), Workload: t.workload,
	})
	return id
}

func (t *tracer) end(id int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].EndNS = time.Since(t.t0).Nanoseconds()
}

// timed runs fn inside a span and returns how long it took.
func (t *tracer) timed(parent int, layer, name string, fn func()) time.Duration {
	id := t.start(parent, layer, name)
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	t.end(id)
	return d
}

// probeRuns is how often the traced run repeats a probe whose single
// timing would mostly show the machine's noise; it reports the median.
const probeRuns = 3

// median runs fn probeRuns times, each inside a span of its own, and
// returns the median duration.
func (t *tracer) median(parent int, layer, name string, fn func()) time.Duration {
	var secs []float64
	for i := 0; i < probeRuns; i++ {
		secs = append(secs, t.timed(parent, layer, name, fn).Seconds())
	}
	return time.Duration(median(secs) * float64(time.Second))
}

// selfMS returns each layer's self time in milliseconds: the duration of
// its spans minus the part of each that child spans cover.
func (t *tracer) selfMS() map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int][][2]int64{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.StartNS, s.EndNS})
		}
	}
	self := map[string]float64{}
	for _, s := range t.spans {
		iv := children[s.ID]
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		covered, at := int64(0), s.StartNS
		for _, c := range iv {
			lo, hi := max(c[0], at), min(c[1], s.EndNS)
			if hi > lo {
				covered += hi - lo
				at = hi
			}
		}
		self[s.Layer] += float64(s.EndNS-s.StartNS-covered) / 1e6
	}
	return self
}

// write stores the spans and the per-layer self times as one JSON file.
func (t *tracer) write(path string, self map[string]float64) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	data, err := json.Marshal(struct {
		Workload    string             `json:"workload"`
		LayerSelfMS map[string]float64 `json:"layer_self_ms"`
		Spans       []span             `json:"spans"`
	}{t.workload, self, t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// phaseTrace turns the progress events of one clustering job into one span
// per peer × round × phase and sums the time each peer spent in each phase.
// Its observe method is safe for concurrent calls: the peers of collab-tcp3
// run on separate engines, so their callbacks are not serialized.
type phaseTrace struct {
	tr  *tracer
	job int

	mu     sync.Mutex
	peers  map[int]*peerTrace
	rounds int // the run's round count
}

type peerTrace struct {
	span, phaseSpan int
	phase           core.Phase
	since           time.Time
	spent           map[core.Phase]time.Duration
	last            xmlclust.Event // the peer's latest event carries its running totals
	done            bool
}

// newPhaseTrace starts tracing a job whose peers begin in PhaseStartup now.
func newPhaseTrace(tr *tracer, job int) *phaseTrace {
	return &phaseTrace{tr: tr, job: job, peers: map[int]*peerTrace{}}
}

func (p *phaseTrace) peer(id int, now time.Time) *peerTrace {
	pt := p.peers[id]
	if pt == nil {
		pt = &peerTrace{phase: core.PhaseStartup, since: now, spent: map[core.Phase]time.Duration{}}
		pt.span = p.tr.start(p.job, "core", fmt.Sprintf("peer %d", id))
		pt.phaseSpan = p.tr.start(pt.span, "core", "startup r0")
		p.peers[id] = pt
	}
	return pt
}

// begin registers the peers before the job starts, so start-up time counts
// from the job's start and not from each peer's first event.
func (p *phaseTrace) begin(peers int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	now := time.Now()
	for id := 0; id < peers; id++ {
		p.peer(id, now)
	}
}

func (p *phaseTrace) observe(ev xmlclust.Event) {
	if ev.Peer < 0 {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	now := time.Now()
	pt := p.peer(ev.Peer, now)
	pt.last = ev
	switch ev.Kind {
	case xmlclust.EventPhaseChange, xmlclust.EventDone:
		if pt.done {
			return
		}
		pt.spent[pt.phase] += now.Sub(pt.since)
		p.tr.end(pt.phaseSpan)
		if ev.Kind == xmlclust.EventDone || ev.Phase == core.PhaseDone {
			pt.done = true
			p.tr.end(pt.span)
			p.rounds = max(p.rounds, ev.Round)
			return
		}
		pt.phase, pt.since = ev.Phase, now
		pt.phaseSpan = p.tr.start(pt.span, "core", fmt.Sprintf("%s r%d", ev.Phase, ev.Round))
	case xmlclust.EventRoundStart:
		p.rounds = max(p.rounds, ev.Round+1)
	}
}

// slowest returns the largest per-peer total of a phase, in seconds.
func (p *phaseTrace) slowest(ph core.Phase) float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	var worst time.Duration
	for _, pt := range p.peers {
		worst = max(worst, pt.spent[ph])
	}
	return worst.Seconds()
}

// imbalance returns (max−min)/max of the peers' relocate time.
func (p *phaseTrace) imbalance() float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	var lo, hi time.Duration
	first := true
	for _, pt := range p.peers {
		d := pt.spent[core.PhaseRelocate]
		if first || d < lo {
			lo = d
		}
		hi = max(hi, d)
		first = false
	}
	if hi == 0 {
		return 0
	}
	return float64(hi-lo) / float64(hi)
}

// totals sums the running totals of every peer's last event. It is only
// meaningful when each peer has its own engine (collab-tcp3): in-process
// peers share one similarity context, whose counters Result already reports.
func (p *phaseTrace) totals() xmlclust.Event {
	p.mu.Lock()
	defer p.mu.Unlock()
	var sum xmlclust.Event
	for _, pt := range p.peers {
		sum.SentBytes += pt.last.SentBytes
		sum.SentMsgs += pt.last.SentMsgs
		sum.PrunedRows += pt.last.PrunedRows
		sum.IndexCandidates += pt.last.IndexCandidates
		sum.IndexSkipped += pt.last.IndexSkipped
		sum.RepsReused += pt.last.RepsReused
		sum.DocsSkipped += pt.last.DocsSkipped
		sum.DeltaRepBytes += pt.last.DeltaRepBytes
	}
	return sum
}

// traceJobs runs a clustering job probeRuns times with progress events on,
// each under a span that holds its peers' phases, and returns the last
// run's phase trace and the median duration. run must leave the job's
// outcome where the caller finds it.
func traceJobs(tr *tracer, parent, peers int, run func(events func(xmlclust.Event)) error) (*phaseTrace, time.Duration, error) {
	var pt *phaseTrace
	var secs []float64
	for i := 0; i < probeRuns; i++ {
		span := tr.start(parent, "engine", "job traced")
		pt = newPhaseTrace(tr, span)
		pt.begin(peers)
		t0 := time.Now()
		err := run(pt.observe)
		secs = append(secs, time.Since(t0).Seconds())
		tr.end(span)
		if err != nil {
			return nil, 0, fmt.Errorf("traced job: %w", err)
		}
	}
	return pt, time.Duration(median(secs) * float64(time.Second)), nil
}

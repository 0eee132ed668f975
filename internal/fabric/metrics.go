package fabric

import (
	"encoding/json"
	"net/http"
	"sync/atomic"
	"time"
)

// Metrics is the fabric's per-peer observability surface: monotonic counters
// updated lock-free from the session goroutine, read from an optional debug
// HTTP listener (cxkpeer -debug-addr) mirroring cxkserve's /v1/stats.
type Metrics struct {
	rounds      atomic.Int64
	ckptWritten atomic.Int64
	ckptLoaded  atomic.Int64
	epoch       atomic.Int64
	suspects    atomic.Int64
	lastBeat    atomic.Int64 // unix nanos of the last round boundary
	// stale is the transport's own stale-frame counter, when it keeps one
	// (set by NewPeer, before any snapshot).
	stale staleCounter
}

// MetricsSnapshot is the JSON shape served at GET /v1/stats.
type MetricsSnapshot struct {
	Rounds              int64   `json:"rounds"`
	CheckpointsWritten  int64   `json:"checkpoints_written"`
	CheckpointsRestored int64   `json:"checkpoints_restored"`
	Epoch               int64   `json:"epoch"`
	StaleFramesDropped  int64   `json:"stale_frames_dropped"`
	SuspectsRaised      int64   `json:"suspects_raised"`
	LastBeatAgeSeconds  float64 `json:"last_beat_age_seconds"`
}

func (m *Metrics) beat() { m.lastBeat.Store(time.Now().UnixNano()) }

// atomicFlag is a set/clear/test bool shared between the session goroutine
// and the process's control surface (signal handlers, join bootstrap).
type atomicFlag struct{ v atomic.Bool }

func (f *atomicFlag) set()        { f.v.Store(true) }
func (f *atomicFlag) clear()      { f.v.Store(false) }
func (f *atomicFlag) isSet() bool { return f.v.Load() }

// Snapshot captures the counters at one instant.
func (m *Metrics) Snapshot() MetricsSnapshot {
	s := MetricsSnapshot{
		Rounds:              m.rounds.Load(),
		CheckpointsWritten:  m.ckptWritten.Load(),
		CheckpointsRestored: m.ckptLoaded.Load(),
		Epoch:               m.epoch.Load(),
		SuspectsRaised:      m.suspects.Load(),
		LastBeatAgeSeconds:  -1,
	}
	if m.stale != nil {
		s.StaleFramesDropped = m.stale.DroppedStale()
	}
	if beat := m.lastBeat.Load(); beat != 0 {
		s.LastBeatAgeSeconds = time.Since(time.Unix(0, beat)).Seconds()
	}
	return s
}

// Handler serves the counters:
//
//	GET /v1/stats → MetricsSnapshot
//	GET /healthz  → 200 "ok"
func (m *Metrics) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("ok\n"))
	})
	mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(m.Snapshot())
	})
	return mux
}

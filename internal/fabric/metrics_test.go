package fabric

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"xmlclust/internal/core"
)

func TestMetricsHandler(t *testing.T) {
	m := &Metrics{}
	m.rounds.Add(5)
	m.ckptWritten.Add(3)
	m.ckptLoaded.Add(1)
	m.epoch.Store(2)
	m.suspects.Add(7)
	m.beat()

	srv := httptest.NewServer(m.Handler())
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/stats: %s", resp.Status)
	}
	var snap MetricsSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.Rounds != 5 || snap.CheckpointsWritten != 3 || snap.CheckpointsRestored != 1 ||
		snap.Epoch != 2 || snap.SuspectsRaised != 7 {
		t.Fatalf("snapshot diverges: %+v", snap)
	}
	if snap.LastBeatAgeSeconds < 0 {
		t.Fatalf("beat not recorded: %+v", snap)
	}

	hz, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hz.Body.Close()
	if hz.StatusCode != http.StatusOK {
		t.Fatalf("GET /healthz: %s", hz.Status)
	}
}

func TestMetricsNeverBeatenAge(t *testing.T) {
	m := &Metrics{}
	if age := m.Snapshot().LastBeatAgeSeconds; age != -1 {
		t.Fatalf("fresh metrics report age %v, want -1", age)
	}
}

// TestMetricsScrapeSeesStaleDrops: the stale-frame count is the transport's
// own counter, read at every snapshot, so a scrape sees frames dropped while
// the session is still running — not only after it returns.
func TestMetricsScrapeSeesStaleDrops(t *testing.T) {
	nodes, _ := buildNodes(t, 2)
	defer func() {
		for _, n := range nodes {
			n.Close()
		}
	}()
	srv := httptest.NewServer(NewMetrics(nodes[1]).Handler())
	defer srv.Close()

	nodes[1].SetEpoch(1, 1) // node 1 has moved on to epoch 1
	if err := nodes[0].Send(0, 1, core.SuspectMsg{From: 0}); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		resp, err := http.Get(srv.URL + "/v1/stats")
		if err != nil {
			t.Fatal(err)
		}
		var snap MetricsSnapshot
		err = json.NewDecoder(resp.Body).Decode(&snap)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if snap.StaleFramesDropped == 1 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("scrape reports %d stale frames, want 1", snap.StaleFramesDropped)
		}
	}
}

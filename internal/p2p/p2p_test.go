package p2p

import (
	"sync"
	"testing"
	"time"
)

type testMsg struct {
	From int
	Body string
}

func init() { RegisterWireType(testMsg{}) }

func TestChanTransportDelivery(t *testing.T) {
	tr := NewChanTransport(3)
	defer tr.Close()
	if tr.Peers() != 3 {
		t.Fatalf("Peers = %d", tr.Peers())
	}
	if err := tr.Send(0, 2, testMsg{From: 0, Body: "hi"}); err != nil {
		t.Fatal(err)
	}
	select {
	case env := <-tr.Recv(2):
		if env.From != 0 || env.To != 2 {
			t.Errorf("envelope = %+v", env)
		}
		if m, ok := env.Payload.(testMsg); !ok || m.Body != "hi" {
			t.Errorf("payload = %+v", env.Payload)
		}
	case <-time.After(time.Second):
		t.Fatal("message not delivered")
	}
}

func TestChanTransportSelfSend(t *testing.T) {
	tr := NewChanTransport(1)
	defer tr.Close()
	if err := tr.Send(0, 0, testMsg{Body: "self"}); err != nil {
		t.Fatal(err)
	}
	env := <-tr.Recv(0)
	if env.Payload.(testMsg).Body != "self" {
		t.Error("self-send failed")
	}
}

func TestChanTransportUnknownPeer(t *testing.T) {
	tr := NewChanTransport(2)
	defer tr.Close()
	if err := tr.Send(0, 5, testMsg{}); err == nil {
		t.Error("send to unknown peer should fail")
	}
	if err := tr.Send(0, -1, testMsg{}); err == nil {
		t.Error("send to negative peer should fail")
	}
}

func TestChanTransportClosed(t *testing.T) {
	tr := NewChanTransport(2)
	tr.Close()
	if err := tr.Send(0, 1, testMsg{}); err == nil {
		t.Error("send after close should fail")
	}
}

func TestChanTransportConcurrentSenders(t *testing.T) {
	tr := NewChanTransport(4)
	defer tr.Close()
	const perSender = 50
	var wg sync.WaitGroup
	for s := 0; s < 4; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < perSender; i++ {
				if err := tr.Send(s, 3, testMsg{From: s}); err != nil {
					t.Error(err)
					return
				}
			}
		}(s)
	}
	wg.Wait()
	for i := 0; i < 4*perSender; i++ {
		select {
		case <-tr.Recv(3):
		case <-time.After(time.Second):
			t.Fatalf("only %d messages delivered", i)
		}
	}
}

func TestTimeModelCommTime(t *testing.T) {
	tm := TimeModel{LatencyPerMsg: time.Millisecond, BytesPerSecond: 1000}
	if got := tm.CommTime(0, 0); got != 0 {
		t.Errorf("empty comm time = %v", got)
	}
	// 2 messages + 500 bytes at 1000 B/s → 2ms + 500ms.
	want := 2*time.Millisecond + 500*time.Millisecond
	if got := tm.CommTime(2, 500); got != want {
		t.Errorf("comm time = %v, want %v", got, want)
	}
	// Zero bandwidth: only latency counts.
	tm.BytesPerSecond = 0
	if got := tm.CommTime(3, 1000); got != 3*time.Millisecond {
		t.Errorf("latency-only = %v", got)
	}
}

func TestDefaultTimeModel(t *testing.T) {
	tm := DefaultTimeModel()
	if tm.LatencyPerMsg <= 0 || tm.BytesPerSecond <= 0 {
		t.Errorf("default model degenerate: %+v", tm)
	}
	// 1 GB over gigabit ≈ 8 seconds.
	d := tm.CommTime(0, 1_000_000_000)
	if d < 7*time.Second || d > 9*time.Second {
		t.Errorf("1GB transfer time = %v", d)
	}
}

func BenchmarkChanTransportSend(b *testing.B) {
	tr := NewChanTransport(2)
	defer tr.Close()
	go func() {
		for range tr.Recv(1) {
		}
	}()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Send(0, 1, testMsg{From: i})
	}
}

package p2p

import (
	"testing"
	"time"
)

func TestDelayTransportDelivers(t *testing.T) {
	inner := NewChanTransport(2)
	d := NewDelayTransport(inner, 2*time.Millisecond, 1)
	defer d.Close()
	if d.Peers() != 2 {
		t.Fatalf("Peers = %d", d.Peers())
	}
	start := time.Now()
	for i := 0; i < 10; i++ {
		if err := d.Send(0, 1, testMsg{From: i}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		select {
		case env := <-d.Recv(1):
			if env.Payload.(testMsg).From != i {
				t.Fatalf("reordered: got %d want %d", env.Payload.(testMsg).From, i)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("delivery stalled")
		}
	}
	if time.Since(start) > 3*time.Second {
		t.Error("delays excessive")
	}
}

func TestDelayTransportZeroDelay(t *testing.T) {
	inner := NewChanTransport(2)
	d := NewDelayTransport(inner, 0, 1)
	defer d.Close()
	if err := d.Send(0, 1, testMsg{Body: "fast"}); err != nil {
		t.Fatal(err)
	}
	<-d.Recv(1)
}

func TestDelayTransportCloses(t *testing.T) {
	inner := NewChanTransport(2)
	d := NewDelayTransport(inner, time.Millisecond, 1)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if err := d.Send(0, 1, testMsg{}); err == nil {
		t.Error("send after close should fail")
	}
}

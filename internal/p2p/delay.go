package p2p

import (
	"math/rand"
	"sync"
	"time"
)

// DelayTransport wraps another transport and stalls every send by a random
// duration in [0, MaxDelay], modeling a congested but lossless LAN. The
// wrapped transport's per-pair FIFO ordering is preserved (the delay
// happens before handing the message to the inner transport). Used by the
// robustness tests to shake out cross-peer ordering assumptions in the
// round protocols.
type DelayTransport struct {
	Transport
	MaxDelay time.Duration

	mu  sync.Mutex
	rng *rand.Rand
}

// NewDelayTransport wraps inner with random send delays drawn from the
// seeded rng.
func NewDelayTransport(inner Transport, maxDelay time.Duration, seed int64) *DelayTransport {
	return &DelayTransport{
		Transport: inner,
		MaxDelay:  maxDelay,
		rng:       rand.New(rand.NewSource(seed)),
	}
}

// Send implements Transport.
func (d *DelayTransport) Send(from, to int, payload any) error {
	d.delay()
	return d.Transport.Send(from, to, payload)
}

// SendStamped implements Transport.
func (d *DelayTransport) SendStamped(from, to, epoch int, payload any) error {
	d.delay()
	return d.Transport.SendStamped(from, to, epoch, payload)
}

func (d *DelayTransport) delay() {
	if d.MaxDelay > 0 {
		d.mu.Lock()
		delay := time.Duration(d.rng.Int63n(int64(d.MaxDelay) + 1))
		d.mu.Unlock()
		time.Sleep(delay)
	}
}

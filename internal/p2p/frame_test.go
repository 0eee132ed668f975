package p2p_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"runtime"
	"testing"

	"xmlclust/internal/core"
	"xmlclust/internal/p2p"
	"xmlclust/internal/txn"
)

// encodeFrame is the wire form writeFrame gives fr.
func encodeFrame(t testing.TB, fr p2p.WireFrame) []byte {
	t.Helper()
	var b bytes.Buffer
	if _, err := p2p.WriteFrame(&b, fr); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// repsFrame carries a registered core message with a map and nested slices.
func repsFrame(t testing.TB) []byte {
	return encodeFrame(t, p2p.WireFrame{From: 1, To: 0, Epoch: 3, Payload: core.LocalRepsMsg{
		From: 1, Round: 2, Flag: core.FlagDone,
		Reps: map[int]core.WeightedWireRep{4: {Rep: core.WireTxn{Items: []txn.ItemID{3, 9, 27}}, Weight: 5}},
	}})
}

// TestReadFrameCutShort: a header is believed only as far as bytes arrive. Eight
// bytes declaring a 1 GiB body fail without allocating anything near it, and
// a body that stops early — at once or mid-way — is io.ErrUnexpectedEOF.
func TestReadFrameCutShort(t *testing.T) {
	lying := binary.BigEndian.AppendUint64(nil, 1<<30)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, err := p2p.ReadFrame(bytes.NewReader(lying))
	runtime.ReadMemStats(&after)
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("a header alone: %v, want io.ErrUnexpectedEOF", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
		t.Errorf("a header alone allocated %d bytes, want under 1 MB", grew)
	}
	frame := repsFrame(t)
	if _, _, err := p2p.ReadFrame(bytes.NewReader(frame[:len(frame)-7])); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("a body cut short: %v, want io.ErrUnexpectedEOF", err)
	}
	// A body longer than one read chunk arrives whole and decodes.
	assign := make([]int, 50000)
	for i := range assign {
		assign[i] = i * 7919
	}
	big := encodeFrame(t, p2p.WireFrame{From: 2, Payload: core.AssignMsg{From: 2, Assign: assign}})
	fr, n, err := p2p.ReadFrame(bytes.NewReader(big))
	if err != nil || n != int64(len(big)) || len(big) < 2*64<<10 {
		t.Fatalf("a %d-byte frame: %d bytes read, err %v", len(big), n, err)
	}
	if got := fr.Payload.(core.AssignMsg).Assign; got[len(got)-1] != assign[len(assign)-1] {
		t.Errorf("a %d-byte frame decoded to a different assignment", len(big))
	}
}

// FuzzReadFrame: whatever bytes a peer sends, readFrame answers with a frame
// or an error — no panic, no hang — and never claims more bytes than it was
// given; a frame it returns re-encodes through writeFrame into bytes it reads
// back.
func FuzzReadFrame(f *testing.F) {
	hello := encodeFrame(f, p2p.WireFrame{From: 2, To: 0, Epoch: p2p.EpochAny, Payload: p2p.Hello{From: 2}})
	reps := repsFrame(f)
	lying := binary.BigEndian.AppendUint64(nil, 1<<30)
	notGob := append(binary.BigEndian.AppendUint64(nil, 12), "not a gob!!!"...)
	for _, seed := range [][]byte{hello, reps, hello[:5], reps[:len(reps)-7], lying, notGob} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		fr, n, err := p2p.ReadFrame(bytes.NewReader(data))
		if err != nil {
			return
		}
		if n > int64(len(data)) {
			t.Fatalf("a frame of %d bytes read from %d", n, len(data))
		}
		var b bytes.Buffer
		if _, err := p2p.WriteFrame(&b, fr); err != nil {
			t.Fatalf("a frame read does not re-encode: %v", err)
		}
		if _, _, err := p2p.ReadFrame(&b); err != nil {
			t.Fatalf("a re-encoded frame is not read back: %v", err)
		}
	})
}

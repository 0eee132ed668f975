package p2p

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"io"
)

// wireFrame is the unit of exchange between peers on a TCP wire: one routed
// payload. On the wire a frame travels as an 8-byte big-endian body length
// followed by a self-contained gob encoding of the frame, so the frame size
// is carried in-band and the receive side stamps Envelope.Bytes with the
// exact wire size (header + body) — identical to the sender's count by
// construction, with no re-encoding.
//
// Epoch stamps the sender's membership epoch on the frame (see
// Node.SetEpoch); EpochAny marks epoch-less control traffic. The receive
// side drops frames whose epoch predates its own — a restarted peer on a
// reused address must never deliver (or buffer forever) traffic from the
// session view it crashed out of.
type wireFrame struct {
	From    int
	To      int
	Epoch   int
	Payload any
}

// EpochAny is the epoch value of epoch-less frames: membership control
// traffic (join requests, suspicion reports) that must cross epoch
// boundaries is stamped with it and always delivered.
const EpochAny = -1

// hello is the handshake payload a dialing Node sends first on every new
// connection, identifying the dialing peer. It is never delivered to the
// application and is excluded from traffic stats on both sides.
type hello struct {
	From int
}

// RegisterWireType registers a concrete payload type with gob so it can
// travel through the TCP transports. Algorithms register their message
// structs in an init function.
func RegisterWireType(v any) { gob.Register(v) }

func init() { gob.Register(hello{}) }

const (
	frameHeaderSize = 8
	// maxFrameBody bounds a frame body so a corrupted or hostile length
	// header cannot exhaust memory.
	maxFrameBody = 1 << 30
	// maxFramePrealloc bounds what a declared length may allocate before the
	// bytes it announces have arrived: a body is read in chunks of at most
	// this size, each allocated once the one before it is full.
	maxFramePrealloc = 64 << 10
)

// writeFrame encodes f as one length-prefixed frame and writes it with a
// single Write call, returning the total number of bytes put on the wire.
// Each frame uses a fresh gob encoder, so frames are self-delimiting and
// decodable in isolation.
func writeFrame(w io.Writer, f wireFrame) (int64, error) {
	var buf bytes.Buffer
	buf.Write(make([]byte, frameHeaderSize)) // length placeholder
	if err := gob.NewEncoder(&buf).Encode(f); err != nil {
		return 0, fmt.Errorf("p2p: encode frame: %w", err)
	}
	b := buf.Bytes()
	body := len(b) - frameHeaderSize
	if body > maxFrameBody {
		return 0, fmt.Errorf("p2p: frame body of %d bytes exceeds limit", body)
	}
	binary.BigEndian.PutUint64(b[:frameHeaderSize], uint64(body))
	if _, err := w.Write(b); err != nil {
		return 0, err
	}
	return int64(len(b)), nil
}

// readFrame reads one length-prefixed frame, returning it together with its
// total wire size (header + body).
func readFrame(r io.Reader) (wireFrame, int64, error) {
	var hdr [frameHeaderSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return wireFrame{}, 0, err
	}
	body := binary.BigEndian.Uint64(hdr[:])
	if body > maxFrameBody {
		return wireFrame{}, 0, fmt.Errorf("p2p: frame body of %d bytes exceeds limit", body)
	}
	// The length is untrusted — on the handshake it arrives before the peer
	// is identified — so it sizes no buffer beyond maxFramePrealloc.
	var chunks [][]byte
	for left := body; left > 0; {
		c := make([]byte, min(left, maxFramePrealloc))
		if _, err := io.ReadFull(r, c); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF // the header promised a body
			}
			return wireFrame{}, 0, err
		}
		chunks, left = append(chunks, c), left-uint64(len(c))
	}
	var f wireFrame
	if err := gob.NewDecoder(bytes.NewReader(bytes.Join(chunks, nil))).Decode(&f); err != nil {
		return wireFrame{}, 0, fmt.Errorf("p2p: decode frame: %w", err)
	}
	return f, int64(frameHeaderSize) + int64(body), nil
}

// frameSize returns the wire size writeFrame would produce for f without
// sending it (used for loopback self-delivery accounting).
func frameSize(f wireFrame) (int64, error) {
	return writeFrame(io.Discard, f)
}

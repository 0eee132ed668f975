// Package fnv is the one 64-bit FNV-1a fold behind every fingerprint of the
// codebase: the corpus-and-partition digest and the configuration hash that
// travel in StartMsg, joins and checkpoints, wire digests of the delta
// exchange, and the membership and representative fingerprints of the round
// engine. Values are folded byte by byte, low byte first, so the results are
// part of the wire and on-disk formats; their golden values live in
// internal/fabric (TestFingerprintGoldenValues).
package fnv

// Offset is the FNV-1a 64-bit offset basis: the hash of the empty sequence.
const Offset uint64 = 14695981039346656037

const prime = 1099511628211

// Mix folds the eight bytes of v into h.
func Mix(h, v uint64) uint64 {
	for s := 0; s < 64; s += 8 {
		h ^= (v >> s) & 0xff
		h *= prime
	}
	return h
}

// MixString folds the length of s, then its bytes, into h; the length keeps
// consecutive strings from sliding into each other.
func MixString(h uint64, s string) uint64 {
	h = Mix(h, uint64(len(s)))
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	return h
}

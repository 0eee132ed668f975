package txn

import (
	"bytes"
	"errors"
	"strings"
	"testing"
)

// FuzzLoadCorpus feeds Load arbitrary streams. It returns a corpus or an
// error that is corruption or version skew — no panic, no hang, nothing sized
// by a number the stream merely declares. A corpus it does return holds no
// index that does not resolve, and is a fixed point of Load∘Save from its
// first re-save on.
func FuzzLoadCorpus(f *testing.F) {
	c, _, _, _ := corruptionCorpus(f)
	f.Add(savedStream(f, c))
	f.Add(savedStream(f, Build(nil, BuildOptions{})))
	for _, tc := range corruptionCases(f) {
		f.Add(tc.stream)
	}
	f.Fuzz(func(t *testing.T, stream []byte) {
		c, err := Load(bytes.NewReader(stream))
		if err != nil {
			if !errors.Is(err, ErrCorruptCorpus) && !strings.Contains(err.Error(), "unsupported corpus format") {
				t.Fatalf("neither corruption nor version skew: %v", err)
			}
			return
		}
		walkCorpus(c)
		saved := savedStream(t, c)
		back, err := Load(bytes.NewReader(saved))
		if err != nil {
			t.Fatalf("a loaded corpus saved a stream that does not load: %v", err)
		}
		walkCorpus(back)
		if !bytes.Equal(savedStream(t, back), saved) {
			t.Fatal("a loaded corpus re-saves to other bytes than it loads back from")
		}
	})
}

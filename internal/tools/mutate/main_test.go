package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestParseLedger(t *testing.T) {
	muts, err := parseLedger(`# a comment
=== one
file a/b.go
test ./a ./c
<<<
	x := 1
---
	x := 2
---
>>>
`)
	if err != nil {
		t.Fatal(err)
	}
	want := mutation{name: "one", file: "a/b.go", pkgs: []string{"./a", "./c"}, old: "\tx := 1\n", new: "\tx := 2\n---\n"}
	if len(muts) != 1 || muts[0].name != want.name || muts[0].file != want.file ||
		strings.Join(muts[0].pkgs, " ") != "./a ./c" || muts[0].old != want.old || muts[0].new != want.new {
		t.Fatalf("got %+v, want %+v", muts, want)
	}
	for _, bad := range []string{
		"stray line\n",
		"=== no file\ntest ./a\n<<<\nx\n---\ny\n>>>\n",
		"=== no search text\nfile a\ntest ./a\n<<<\n---\ny\n>>>\n",
		"=== open\nfile a\ntest ./a\n<<<\nx\n",
		"=== no block\nfile a\ntest ./a\n=== next\nfile a\ntest ./a\n<<<\nx\n---\ny\n>>>\n",
		"=== no block at the end\nfile a\ntest ./a\n",
	} {
		if _, err := parseLedger(bad); err == nil {
			t.Errorf("accepted %q", bad)
		}
	}
}

// TestLedgerApplies: every mutation of the ledger still finds its search
// text exactly once, so the ledger cannot go stale between its scheduled
// runs.
func TestLedgerApplies(t *testing.T) {
	root := filepath.Join("..", "..", "..")
	text, err := os.ReadFile("mutations.txt")
	if err != nil {
		t.Fatal(err)
	}
	muts, err := parseLedger(string(text))
	if err != nil {
		t.Fatal(err)
	}
	if len(muts) == 0 {
		t.Fatal("empty ledger")
	}
	for _, m := range muts {
		src, err := os.ReadFile(filepath.Join(root, m.file))
		if err != nil {
			t.Errorf("%s: %v", m.name, err)
			continue
		}
		if c := strings.Count(string(src), m.old); c != 1 {
			t.Errorf("%s: search text occurs %d times in %s", m.name, c, m.file)
		}
	}
}

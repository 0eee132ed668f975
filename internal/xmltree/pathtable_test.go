package xmltree

import (
	"sync"
	"testing"
)

func TestPathTableInternDedup(t *testing.T) {
	pt := NewPathTable()
	a := pt.Intern(ParsePath("a.b.S"))
	b := pt.Intern(ParsePath("a.b.S"))
	c := pt.Intern(ParsePath("a.c.S"))
	if a != b {
		t.Errorf("same path interned twice: %d vs %d", a, b)
	}
	if a == c {
		t.Errorf("distinct paths share id")
	}
	if pt.Len() != 2 {
		t.Errorf("Len = %d, want 2", pt.Len())
	}
	if got := pt.Path(a).String(); got != "a.b.S" {
		t.Errorf("Path(a) = %q", got)
	}
}

func TestPathTableLookup(t *testing.T) {
	pt := NewPathTable()
	id := pt.Intern(ParsePath("x.y"))
	if got, ok := pt.Lookup(ParsePath("x.y")); !ok || got != id {
		t.Errorf("Lookup = %v %v", got, ok)
	}
	if _, ok := pt.Lookup(ParsePath("nope")); ok {
		t.Errorf("Lookup found unregistered path")
	}
}

func TestPathTableInternCopies(t *testing.T) {
	pt := NewPathTable()
	p := ParsePath("a.b")
	id := pt.Intern(p)
	p[0] = "mutated"
	if got := pt.Path(id).String(); got != "a.b" {
		t.Errorf("table aliased caller slice: %q", got)
	}
}

func TestTagPathDerivation(t *testing.T) {
	pt := NewPathTable()
	cp := pt.Intern(ParsePath("a.b.S"))
	tp := pt.TagPath(cp)
	if got := pt.Path(tp).String(); got != "a.b" {
		t.Errorf("TagPath = %q, want a.b", got)
	}
	// Attribute completion.
	ap := pt.Intern(ParsePath("a.b.@key"))
	if got := pt.Path(pt.TagPath(ap)).String(); got != "a.b" {
		t.Errorf("TagPath(@key) = %q", got)
	}
	// Already a tag path: unchanged.
	if got := pt.TagPath(tp); got != tp {
		t.Errorf("TagPath(tag path) changed: %v", got)
	}
}

func TestPathTableConcurrent(t *testing.T) {
	pt := NewPathTable()
	paths := []string{"a.b.S", "a.c.S", "a.b.@k", "a.d", "a.e.S"}
	var wg sync.WaitGroup
	ids := make([][]PathID, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				ids[g] = append(ids[g], pt.Intern(ParsePath(paths[i%len(paths)])))
			}
		}(g)
	}
	wg.Wait()
	if pt.Len() != len(paths) {
		t.Fatalf("Len = %d, want %d", pt.Len(), len(paths))
	}
	for g := 1; g < 8; g++ {
		for i := range ids[g] {
			if ids[g][i] != ids[0][i] {
				t.Fatalf("goroutine %d got different id at %d", g, i)
			}
		}
	}
}

// TestTagPathConcurrent: goroutines intern complete paths and ask for tag
// paths of their own and of each other's ids at once. Every answer is the
// id of the path minus its last symbol, whichever goroutine filled the memo.
func TestTagPathConcurrent(t *testing.T) {
	pt := NewPathTable()
	complete := []string{"a.b.S", "a.c.S", "a.b.@k", "a.d.e.S", "a.c.@k", "f.S"}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				id := pt.Intern(ParsePath(complete[(g+i)%len(complete)]))
				pt.TagPath(id)
				pt.TagPath(PathID(i % pt.Len()))
			}
		}(g)
	}
	wg.Wait()
	for id := PathID(0); int(id) < pt.Len(); id++ {
		p := pt.Path(id)
		want := id
		if p.IsComplete() {
			var ok bool
			if want, ok = pt.Lookup(p[:len(p)-1]); !ok {
				t.Fatalf("tag path of %q not interned", p)
			}
		}
		if got := pt.TagPath(id); got != want {
			t.Errorf("TagPath(%q) = %q, want %q", p, pt.Path(got), pt.Path(want))
		}
	}
}

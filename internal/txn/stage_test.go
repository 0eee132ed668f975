package txn

import (
	"fmt"
	"sync"
	"testing"

	"xmlclust/internal/vector"
	"xmlclust/internal/xmltree"
)

// stageFixture is a table of two raw items and one synthetic one at path
// a.b.S, and a stage over it.
func stageFixture(t *testing.T) (tab, st *ItemTable, p xmltree.PathID, raw []ItemID, syn ItemID) {
	t.Helper()
	paths := xmltree.NewPathTable()
	tab = NewItemTable(paths)
	p = paths.Intern(xmltree.ParsePath("a.b.S"))
	raw = []ItemID{tab.Intern(p, "x"), tab.Intern(p, "y")}
	tab.SetVector(raw[0], vector.FromEntries([]vector.Entry{{Term: 1, Weight: 2}}))
	syn = tab.InternSynthetic(p, MergedAnswerKey([]string{"x", "y"}), vector.Sparse{}, raw)
	return tab, tab.Stage(), p, raw, syn
}

// TestStageReadsThroughBelowBase: a stage reads its parent's rows below its
// base and answers lookups there; it is never itself staged.
func TestStageReadsThroughBelowBase(t *testing.T) {
	tab, st, p, raw, syn := stageFixture(t)
	if st.Base() != 3 || st.Len() != 3 {
		t.Fatalf("base %d len %d, want 3 and 3", st.Base(), st.Len())
	}
	for _, id := range []ItemID{raw[0], raw[1], syn} {
		if st.Get(id) != tab.Get(id) {
			t.Errorf("Get(%d) is not the parent's item", id)
		}
	}
	ids := []ItemID{raw[0], syn}
	out := make([]*Item, 2)
	st.Resolve(ids, out)
	tps, vecs := make([]xmltree.PathID, 2), make([]vector.Sparse, 2)
	st.ResolveColumns(ids, tps, vecs)
	for i, id := range ids {
		want := tab.Get(id)
		if out[i] != want || tps[i] != want.TagPath || !vector.Same(vecs[i], want.Vector) {
			t.Errorf("row %d of the stage differs from the parent's", id)
		}
	}
	if id, ok := st.Lookup(p, "y"); !ok || id != raw[1] {
		t.Errorf("Lookup(y) = %d, %v; want the parent's %d", id, ok, raw[1])
	}
	defer func() {
		if recover() == nil {
			t.Error("a stage of a stage, which would read its parent's rows, was made")
		}
	}()
	st.Stage()
}

// TestLookupBytes: the byte-keyed lookup answers as Lookup does through a
// stage, and a hit allocates nothing.
func TestLookupBytes(t *testing.T) {
	tab, job, p, raw, _ := stageFixture(t)
	own := job.InternSynthetic(p, MergedAnswerKey([]string{"x", "q"}), vector.Sparse{}, raw)
	for _, key := range []string{"x", MergedAnswerKey([]string{"x", "y"}), MergedAnswerKey([]string{"x", "q"}), "absent"} {
		id, ok := job.Lookup(p, key)
		if gotID, gotOK := job.LookupBytes(p, []byte(key)); gotID != id || gotOK != ok {
			t.Errorf("LookupBytes(%q) = %d, %v; Lookup gives %d, %v", key, gotID, gotOK, id, ok)
		}
	}
	if _, ok := tab.LookupBytes(p, []byte(MergedAnswerKey([]string{"x", "q"}))); ok {
		t.Errorf("the parent finds the staged item %d", own)
	}
	key := []byte(MergedAnswerKey([]string{"x", "y"}))
	if n := testing.AllocsPerRun(100, func() { job.LookupBytes(p, key) }); n != 0 {
		t.Errorf("a byte-keyed hit allocates %.0f times", n)
	}
}

func TestStageInternsParentKeyToParentID(t *testing.T) {
	tab, st, p, raw, syn := stageFixture(t)
	key := MergedAnswerKey([]string{"x", "y"})
	if got := st.InternSynthetic(p, key, vector.Sparse{}, raw); got != syn {
		t.Errorf("InternSynthetic of a parent key = %d, want %d", got, syn)
	}
	if st.Len() != tab.Len() {
		t.Errorf("stage grew to %d on keys its parent holds", st.Len())
	}
	z := tab.Intern(p, "z")
	staged := st.InternSynthetic(p, MergedAnswerKey([]string{"x", "z"}), vector.Sparse{}, []ItemID{raw[0], z})
	if staged != st.Base() || st.Get(staged).ID != staged || !st.Get(staged).Synthetic {
		t.Errorf("a new key staged as %d, want the base %d", staged, st.Base())
	}
	if tab.Len() != 4 {
		t.Errorf("staging wrote to the parent: %d items", tab.Len())
	}
}

func TestStageIgnoresParentIDsAtOrAboveBase(t *testing.T) {
	tab, st, p, raw, _ := stageFixture(t)
	key := MergedAnswerKey([]string{"x", "w"})
	late := tab.InternSynthetic(p, key, vector.Sparse{}, raw) // another job, after the stage was based
	if late < st.Base() {
		t.Fatalf("late id %d below base %d", late, st.Base())
	}
	if id, ok := st.Lookup(p, key); ok {
		t.Errorf("Lookup returned %d, interned after the stage was based", id)
	}
	if id, ok := st.LookupBytes(p, []byte(key)); ok {
		t.Errorf("LookupBytes returned %d, interned after the stage was based", id)
	}
	staged := st.InternSynthetic(p, key, vector.Sparse{}, raw)
	if staged != st.Base() {
		t.Errorf("InternSynthetic = %d, want a staged id %d", staged, st.Base())
	}
	if id, _ := st.Lookup(p, key); id != staged {
		t.Errorf("Lookup after staging = %d, want %d", id, staged)
	}
}

// TestStageRestageRebases: a restaged stage forgets what it staged, reads
// through to what its parent gained, and stages into its old records,
// overwritten whole.
func TestStageRestageRebases(t *testing.T) {
	tab, st, p, raw, _ := stageFixture(t)
	key := MergedAnswerKey([]string{"x", "v"})
	parentID := tab.InternSynthetic(p, key, vector.Sparse{}, raw)
	q := tab.Paths().Intern(xmltree.ParsePath("a.c.S"))
	old := st.Get(st.InternSynthetic(q, key, vector.FromEntries([]vector.Entry{{Term: 1, Weight: 1}}), raw))
	late := tab.Intern(p, "u") // the parent grew again
	st.Restage()
	if st.Base() != ItemID(tab.Len()) || st.Len() != tab.Len() {
		t.Fatalf("restaged base %d len %d, parent %d", st.Base(), st.Len(), tab.Len())
	}
	if id, ok := st.Lookup(p, key); !ok || id != parentID {
		t.Errorf("Lookup of the parent's key = %d, %v; want %d", id, ok, parentID)
	}
	if id, ok := st.Lookup(q, key); ok {
		t.Errorf("Lookup of a key staged before the restage = %d", id)
	}
	if st.Get(late) != tab.Get(late) || st.Get(parentID) != tab.Get(parentID) {
		t.Error("rows the parent gained before the restage do not read through")
	}
	next := st.Intern(p, "w")
	if next != st.Base() {
		t.Errorf("first staged id after the restage = %d, want %d", next, st.Base())
	}
	if got := st.Get(next); got != old || got.ID != next || got.Answer != "w" || got.Synthetic ||
		got.Constituents != nil || got.Vector.Len() != 0 {
		t.Errorf("the restaged slot holds %+v, want the old record overwritten", got)
	}
}

// TestStageConcurrentIntern: goroutines interning overlapping keys into one
// stage get one staged id per key, and read the rows below its base while
// another job appends to the parent (run under -race in CI).
func TestStageConcurrentIntern(t *testing.T) {
	tab, st, p, raw, _ := stageFixture(t)
	const goroutines, keys = 8, 40
	got := make([][]ItemID, goroutines)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for k := range 200 {
			tab.Intern(p, fmt.Sprintf("other job %d", k))
		}
	}()
	for g := range goroutines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range keys {
				key := fmt.Sprintf("k%d", (k+g)%keys)
				id := st.InternSynthetic(p, key, vector.Sparse{}, raw)
				if found, ok := st.Lookup(p, key); !ok || found != id {
					t.Errorf("Lookup(%s) = %d, %v after interning %d", key, found, ok, id)
				}
				st.Get(id)
				tps, vecs := make([]xmltree.PathID, 2), make([]vector.Sparse, 2)
				st.ResolveColumns([]ItemID{raw[0], id}, tps, vecs)
				if !vector.Same(vecs[0], tab.Get(raw[0]).Vector) {
					t.Errorf("row %d below the base changed", raw[0])
				}
				got[g] = append(got[g], id)
			}
		}()
	}
	wg.Wait()
	if staged := st.Len() - int(st.Base()); staged != keys {
		t.Fatalf("%d staged, want %d", staged, keys)
	}
	for g := range goroutines {
		for k, id := range got[g] {
			if want := got[0][(k+g)%keys]; id != want {
				t.Fatalf("goroutine %d key %d: id %d, goroutine 0 got %d", g, (k+g)%keys, id, want)
			}
		}
	}
}

package xmltree

import "sync"

// PathID is the interned identifier of a path within a PathTable.
type PathID int32

// PathTable interns dotted paths collection-wide so that items, similarity
// caches and representatives can refer to paths by dense integer ids. It is
// safe for concurrent use.
type PathTable struct {
	mu    sync.RWMutex
	byStr map[string]PathID
	paths []Path
	tags  []PathID // by id: TagPath(id) once it was asked for, −1 before
}

// NewPathTable creates an empty table.
func NewPathTable() *PathTable {
	return &PathTable{byStr: make(map[string]PathID)}
}

// Intern returns the id for p, registering it if unseen.
func (pt *PathTable) Intern(p Path) PathID {
	key := p.String()
	pt.mu.RLock()
	id, ok := pt.byStr[key]
	pt.mu.RUnlock()
	if ok {
		return id
	}
	pt.mu.Lock()
	defer pt.mu.Unlock()
	return pt.internLocked(key, p)
}

// internLocked is Intern under the write lock; key is p.String().
func (pt *PathTable) internLocked(key string, p Path) PathID {
	if id, ok := pt.byStr[key]; ok {
		return id
	}
	id := PathID(len(pt.paths))
	cp := make(Path, len(p))
	copy(cp, p)
	pt.paths = append(pt.paths, cp)
	pt.tags = append(pt.tags, -1)
	pt.byStr[key] = id
	return id
}

// Lookup returns the id for p and whether it is registered.
func (pt *PathTable) Lookup(p Path) (PathID, bool) {
	pt.mu.RLock()
	defer pt.mu.RUnlock()
	id, ok := pt.byStr[p.String()]
	return id, ok
}

// Path returns the path for an id; it panics on out-of-range ids.
func (pt *PathTable) Path(id PathID) Path {
	pt.mu.RLock()
	defer pt.mu.RUnlock()
	return pt.paths[id]
}

// Len returns the number of interned paths.
func (pt *PathTable) Len() int {
	pt.mu.RLock()
	defer pt.mu.RUnlock()
	return len(pt.paths)
}

// TagPath returns the tag-path prefix of a complete path id (the path minus
// its trailing attribute/S symbol) — unchanged if the path is already a tag
// path — interned in the same table. The answer is memoized per id, so only
// the first call for a path joins and looks up its prefix.
func (pt *PathTable) TagPath(id PathID) PathID {
	pt.mu.RLock()
	tp, p := pt.tags[id], pt.paths[id]
	pt.mu.RUnlock()
	if tp >= 0 {
		return tp
	}
	pt.mu.Lock()
	defer pt.mu.Unlock()
	if tp = id; p.IsComplete() {
		prefix := p[:len(p)-1]
		tp = pt.internLocked(prefix.String(), prefix)
	}
	pt.tags[id] = tp
	return tp
}

package txn

import "sync"

// TermTable interns index terms (preprocessed word stems) into dense int32
// ids — the vocabulary V of the collection. Safe for concurrent use.
type TermTable struct {
	mu    sync.RWMutex
	byStr map[string]int32
	terms []string
}

// NewTermTable creates an empty vocabulary.
func NewTermTable() *TermTable {
	return &TermTable{byStr: make(map[string]int32)}
}

// Intern returns the id for term, registering it if unseen.
func (tt *TermTable) Intern(term string) int32 {
	tt.mu.RLock()
	id, ok := tt.byStr[term]
	tt.mu.RUnlock()
	if ok {
		return id
	}
	tt.mu.Lock()
	defer tt.mu.Unlock()
	if id, ok := tt.byStr[term]; ok {
		return id
	}
	id = int32(len(tt.terms))
	tt.terms = append(grow(tt.terms, 1), term)
	tt.byStr[term] = id
	return id
}

// Lookup returns the id for term and whether it is in the vocabulary.
func (tt *TermTable) Lookup(term string) (int32, bool) {
	tt.mu.RLock()
	defer tt.mu.RUnlock()
	id, ok := tt.byStr[term]
	return id, ok
}

// Term returns the string for an id.
func (tt *TermTable) Term(id int32) string {
	tt.mu.RLock()
	defer tt.mu.RUnlock()
	return tt.terms[id]
}

// Len returns the vocabulary size |V|.
func (tt *TermTable) Len() int {
	tt.mu.RLock()
	defer tt.mu.RUnlock()
	return len(tt.terms)
}

// Package archcheck keeps the module's shape: what earlier changes deleted
// stays deleted, and what they confined stays where they put it. Each rule
// forbids one thing in a set of files and is checked on the syntax tree, so
// a comment that names a deleted thing trips no rule. A change that deletes
// or confines something adds a rule here.
//
//	go test ./internal/tools/archcheck -run TestArchitecture
package archcheck

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// A rule forbids what in the files of where.
//
// where lists path prefixes from the module root ("." is all of it) and
// flags: +tests adds _test.go files, +bench the bench module, !prefix
// drops files, and @Name keeps those that declare func Name (at least one
// must). Non-Go files are named whole.
//
// kind says what what matches, as a regexp: an import path ("import"), an
// identifier ("ident"), a selector as written, X.Sel ("selector"), a string
// literal's value ("literal"), a declaration as "func Name",
// "func (Recv) Name", "type Name" or "name Type" ("decl"), a go statement
// ("go"), or a line of a non-Go file ("text"). A "path" rule's where must
// not exist.
type rule struct{ where, kind, what, why string }

var rules = []rule{
	// The round engine: one fast engine (cluster.Rounds) and one reference.
	{"internal/core/", "selector", `sim\.(RepIndex|NewRepIndex)`, "the fast engine leaked out of cluster.Rounds"},
	{"internal/core/", "ident", `DeltaState`, "the fast engine leaked out of cluster.Rounds"},
	{".", "ident", `TransactionsAtLeast|SSEWorkers|^XKMeans$|ScratchReuses|lastTr1|Tiers`, "something the reference kernel shed is back"},
	{".", "ident", `ColumnarSpan|RebuildColumnar|RefreshColumnarWeights|ColumnarResolves|tagPathsPub|loadTransactionsV1|MaxCachedContexts`,
		"the columnar arena, the format-1 loader or the context-cache option is back"},
	{".", "ident", `prevAssign|prevReps|weightedRepsFingerprint|UnchangedRep|sentRepDigest|recvRepCache|DeltaExchange|expandLocalReps`,
		"the whole-pass shortcut, the global memo or the digest-marker exchange is back"},
	{". +tests +bench !internal/tools/archcheck/", "literal", `no-rep-index|no-delta-rounds`, "a deleted tier flag is back"},
	{". +tests +bench", "ident", `RepIndexOn|DeltaRoundsOn`, "a deleted tier mode is back"},
	{"README.md", "text", `no-rep-index|no-delta-rounds|RepIndexOn|DeltaRoundsOn`, "README names a deleted tier flag or mode"},
	{".", "ident", `oneRepIndex`, "a representative's per-step index is back"},
	{".", "selector", `parallel\.(For|ForWorkers|ForCtx|Sum|SumWorkers)$`, "a fork inside a representative is back"},
	{"internal/txn/", "import", `encoding/gob`, "the gob corpus format is back"},
	{"internal/txn/", "ident", `wireCorpus|wireItem|wireTransaction`, "the gob corpus format is back"},
	{"internal/cluster/", "ident", `structuralRanks|contentRankSums|distinctItems|byPath`, "the map-based ranking is back"},
	{"internal/sim/repindex.go", "ident", `tagQ|termQ|lazyQ2|^q1$|^q2$`, "candidate bounds are back"},
	{"internal/cluster/", "ident", `bestScore|relocateScan`, "relocation anchors are back"},
	{"internal/cluster/", "decl", `changed \[\]bool$`, "relocation anchors are back"},
	{".", "ident", `StripTags|InlineTags|ConcatenateText|KeepAttributes|skipDepth|nodeDepth|ExtractAll|CompletePaths|MaximalTagPaths|DelayTransport`,
		"a second XML mapping, a test-only tree helper or DelayTransport is back"},
	{"internal/xmltree/", "decl", `^func \(\*Tree\) Clone$|^func Collect`, "a test-only tree helper is back"},

	// The session is a step function: machine.go and fabric.go do no I/O.
	{"internal/core/machine.go internal/core/fabric.go", "go", ``, "the session does I/O again"},
	{"internal/core/machine.go internal/core/fabric.go", "selector", `time\.|context\.|p2p\.Transport`, "the session does I/O again"},
	{"internal/core/machine.go internal/core/fabric.go", "ident", `Hooks`, "the session does I/O again"},
	{"internal/core/", "ident", `rollbackError`, "the session unwinds a rollback by error again"},

	// PK-means is a policy of the session, not a second runtime.
	{"internal/pkmeans", "path", ``, "the PK-means runtime is back"},
	{". +tests", "ident", `^RepsMsg$`, "the PK-means RepsMsg wire type is back"},

	// One way back into a session, and both ends of a run in the machine.
	{".", "ident", `collectAssignments|PendingAssigns|pendAssign|RunSession$`, "the coordinator's collection loop or RunSession is back"},
	{".", "decl", `^type PeerConfig|^func NewPeer`, "the per-peer config is back"},
	{"internal/core/distributed.go", "selector", `\.(Recv|Send)$`, "RunPeer does peer I/O outside the driver"},
	{".", "decl", `^type Hooks`, "the fabric hooks are back"},
	{".", "ident", `failpointHooks|installState|SessionControl|sendCtl|epochStamper|connResetter`,
		"the fabric hooks, the boundary round trip or a transport probe is back"},
	{".", "ident", `ColumnarSlice|SliceMsg|LeaveMsg|HasStore|StartExpectation|BytesRebalanced|AddStaleDrops`,
		"the shipped slice, the second way back in or its counters are back"},
	{"cmd/cxkpeer/", "literal", `^resume$`, "cxkpeer -resume is back"},

	// Δ of Eq. 3 is the paper's exact tag equality.
	{". +tests", "import", `xmlclust/internal/semantics`, "the semantic tag matcher is back"},
	{". +tests", "ident", `TagSim|PathSimWith|DBLPHeterogeneous`, "the semantic tag matcher or its generator is back"},

	// An in-process run is one deterministic schedule, with no test hook.
	{". +bench", "ident", `ComputeToken|UseTCP|TCPTransport|NewTCPTransport`, "the compute token or the loopback-TCP mode is back"},
	{"internal/core/ @Run", "selector", `sync\.WaitGroup|sync\.Once|context\.WithCancel|time\.NewTimer`,
		"core.Run drives goroutines, a cancel fan-out or timers again"},
	{"internal/core/schedule.go", "ident", `^pick$`, "the scheduler's test hook is back: tests step machines in fabricSim"},

	// Synthetic items are staged and committed by cluster.Rounds alone.
	{". +bench !internal/txn/ !internal/cluster/rounds.go", "selector", `\.(Stage|Restage|Adopt)$`,
		"an item-table stage is used outside internal/txn and cluster.Rounds"},

	// Raw XML never becomes a tree in ingest or serve.
	{". +bench", "ident", `^(ParseBytesInto|ExtractInto|LeafInterner)$`, "a parse or extraction into reused storage is back"},
	{"internal/corpus/ internal/serve/", "selector", `(xmltree|xmlclust)\.Parse`, "ingest or serve parses raw XML into a tree again"},
}

// root is the module root, from this package's directory.
const root = "../../.."

// file is one parsed Go file: its path from the root, its syntax, and its
// facts by kind, each text once, at its first position.
type file struct {
	path  string
	ast   *ast.File
	facts map[string]map[string]string
}

func TestArchitecture(t *testing.T) {
	fset := token.NewFileSet()
	var files []file
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && p != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata"):
			return filepath.SkipDir
		case d.IsDir() || !strings.HasSuffix(p, ".go"):
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		rel, _ := filepath.Rel(root, p)
		files = append(files, file{filepath.ToSlash(rel), f, facts(f, fset)})
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rules {
		re := regexp.MustCompile(r.what)
		fail := func(at, got string) { t.Errorf("%s: %s (%s %q)", at, r.why, r.kind, got) }
		switch r.kind {
		case "path":
			if _, err := os.Stat(filepath.Join(root, r.where)); err == nil {
				fail(r.where, r.where)
			}
			continue
		case "text":
			b, err := os.ReadFile(filepath.Join(root, r.where))
			if err != nil {
				t.Fatal(err)
			}
			for n, line := range strings.Split(string(b), "\n") {
				if re.MatchString(line) {
					fail(r.where+":"+strconv.Itoa(n+1), line)
				}
			}
			continue
		}
		matched := 0
		for _, f := range files {
			if !in(r.where, f) {
				continue
			}
			matched++
			for text, at := range f.facts[r.kind] {
				if re.MatchString(text) {
					fail(at, text)
				}
			}
		}
		if matched == 0 {
			t.Errorf("%q: no file to check %s rules in", r.where, r.kind)
		}
	}
}

// in reports whether f is one of where's files.
func in(where string, f file) bool {
	test, bench := strings.HasSuffix(f.path, "_test.go"), strings.HasPrefix(f.path, "bench/")
	under := false
	for _, term := range strings.Fields(where) {
		switch {
		case term == "+tests":
			test = false
		case term == "+bench":
			bench = false
		case term[0] == '!':
			if strings.HasPrefix(f.path, term[1:]) {
				return false
			}
		case term[0] == '@':
			if !declares(f.ast, term[1:]) {
				return false
			}
		default:
			under = under || term == "." || strings.HasPrefix(f.path, term)
		}
	}
	return under && !test && !bench
}

func declares(f *ast.File, name string) bool {
	for _, d := range f.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv == nil && fd.Name.Name == name {
			return true
		}
	}
	return false
}

// facts lists what f holds of each kind, as the rules match it.
func facts(f *ast.File, fset *token.FileSet) map[string]map[string]string {
	out := map[string]map[string]string{}
	add := func(kind string, n ast.Node, text string) {
		if out[kind] == nil {
			out[kind] = map[string]string{}
		}
		if _, ok := out[kind][text]; !ok {
			out[kind][text] = fset.Position(n.Pos()).String()
		}
	}
	for _, im := range f.Imports {
		p, _ := strconv.Unquote(im.Path.Value)
		add("import", im, p)
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.Ident:
			add("ident", n, n.Name)
		case *ast.SelectorExpr:
			add("selector", n, types.ExprString(n))
		case *ast.BasicLit:
			if s, err := strconv.Unquote(n.Value); err == nil && n.Kind == token.STRING {
				add("literal", n, s)
			}
		case *ast.GoStmt:
			add("go", n, "go")
		case *ast.FuncDecl:
			if n.Recv != nil {
				add("decl", n, "func ("+types.ExprString(n.Recv.List[0].Type)+") "+n.Name.Name)
			} else {
				add("decl", n, "func "+n.Name.Name)
			}
		case *ast.TypeSpec:
			add("decl", n, "type "+n.Name.Name)
		case *ast.Field:
			for _, name := range n.Names {
				add("decl", n, name.Name+" "+types.ExprString(n.Type))
			}
		case *ast.ValueSpec:
			for _, name := range n.Names {
				if n.Type != nil {
					add("decl", n, name.Name+" "+types.ExprString(n.Type))
				}
			}
		}
		return true
	})
	return out
}

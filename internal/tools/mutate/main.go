// Command mutate replays the mutation ledger (mutations.txt beside this
// file): each mutation is applied to a temporary copy of the module, never
// to the working tree, and the packages named with it are tested there. The
// report, MUTATIONS.md, records for each mutation the first test that went
// red, or **survived**.
//
// Usage, from the module root:
//
//	go run ./internal/tools/mutate
//
// It exits non-zero when a mutation survives, no longer applies or does not
// build.
package main

import (
	"bufio"
	"fmt"
	"log"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
)

type mutation struct {
	name, file string
	pkgs       []string
	old, new   string
}

// The ledger and the report, relative to the module root.
const (
	ledger = "internal/tools/mutate/mutations.txt"
	report = "MUTATIONS.md"
)

func main() {
	log.SetFlags(0)

	text, err := os.ReadFile(ledger)
	if err != nil {
		log.Fatal(err)
	}
	muts, err := parseLedger(string(text))
	if err != nil {
		log.Fatal(err)
	}
	tmp, err := os.MkdirTemp("", "mutate-")
	if err == nil {
		err = os.CopyFS(tmp, os.DirFS("."))
	}
	if err != nil {
		log.Fatal(err)
	}

	var md strings.Builder
	fmt.Fprintf(&md, "# Mutation ledger\n\nWritten by `go run ./internal/tools/mutate` from `%s`. Each mutation is applied\n"+
		"to a temporary copy of the module, whose named packages are then tested; the last\n"+
		"column is the first test that went red.\n\n| Mutation | File | Packages | First red test |\n|---|---|---|---|\n", ledger)
	failed := 0
	for _, m := range muts {
		verdict, err := run(tmp, m)
		if err != nil {
			verdict = "**error:** " + err.Error()
		}
		if err != nil || verdict == survived {
			failed++
		}
		log.Printf("%s: %s", m.name, verdict)
		fmt.Fprintf(&md, "| %s | `%s` | `%s` | %s |\n", m.name, m.file, strings.Join(m.pkgs, " "), verdict)
	}
	os.RemoveAll(tmp) // not deferred: log.Fatal below skips deferred calls
	if err := os.WriteFile(report, []byte(md.String()), 0o644); err != nil {
		log.Fatal(err)
	}
	if failed > 0 {
		log.Fatalf("%d of %d mutations survived or failed to run", failed, len(muts))
	}
}

// parseLedger reads the block format documented at the top of the ledger.
func parseLedger(text string) ([]mutation, error) {
	var muts []mutation
	var m *mutation
	var body *strings.Builder
	sc := bufio.NewScanner(strings.NewReader(text))
	for n := 1; sc.Scan(); n++ {
		line := sc.Text()
		switch {
		case body != nil && line == "---" && m.old == "":
			m.old, body = body.String(), new(strings.Builder)
		case body != nil && line == ">>>":
			if m.old == "" {
				return nil, fmt.Errorf("line %d: %q has no search text", n, m.name)
			}
			m.new, body = body.String(), nil
			muts = append(muts, *m)
		case body != nil:
			body.WriteString(line + "\n")
		case strings.HasPrefix(line, "=== "):
			if m != nil && m.old == "" {
				return nil, fmt.Errorf("line %d: %q has no <<< block", n, m.name)
			}
			m = &mutation{name: line[4:]}
		case m != nil && strings.HasPrefix(line, "file "):
			m.file = line[5:]
		case m != nil && strings.HasPrefix(line, "test "):
			m.pkgs = strings.Fields(line[5:])
		case m != nil && line == "<<<":
			if m.file == "" || len(m.pkgs) == 0 {
				return nil, fmt.Errorf("line %d: %q needs a file and a test line", n, m.name)
			}
			body = new(strings.Builder)
		case line != "" && !strings.HasPrefix(line, "#"):
			return nil, fmt.Errorf("line %d: unexpected %q", n, line)
		}
	}
	if m != nil && (body != nil || m.old == "") {
		return nil, fmt.Errorf("ledger ends inside %q", m.name)
	}
	return muts, sc.Err()
}

const survived = "**survived**"

var (
	failLine = regexp.MustCompile(`(?m)^\s*--- FAIL: (\S+)`)
	failPkg  = regexp.MustCompile(`(?m)^FAIL[ \t]+(\S+)`)
)

// run applies m in the copy at dir, tests its packages, restores the file
// and returns the verdict.
func run(dir string, m mutation) (string, error) {
	path := filepath.Join(dir, m.file)
	orig, err := os.ReadFile(path)
	if err != nil {
		return "", err
	}
	if c := strings.Count(string(orig), m.old); c != 1 {
		return "", fmt.Errorf("search text occurs %d times in %s", c, m.file)
	}
	if err := os.WriteFile(path, []byte(strings.Replace(string(orig), m.old, m.new, 1)), 0o644); err != nil {
		return "", err
	}
	cmd := exec.Command("go", append([]string{"test", "-count=1", "-failfast"}, m.pkgs...)...)
	cmd.Dir = dir
	outb, err := cmd.CombinedOutput()
	if werr := os.WriteFile(path, orig, 0o644); werr != nil {
		// Every later mutation would run on top of this one.
		log.Fatalf("restoring %s: %v", m.file, werr)
	}
	out := string(outb)
	switch {
	case err == nil:
		return survived, nil
	case strings.Contains(out, "[build failed]") || strings.Contains(out, "[setup failed]"):
		return "", fmt.Errorf("the mutated module does not build")
	}
	pkg := ""
	if p := failPkg.FindStringSubmatch(out); p != nil {
		pkg = " (" + p[1] + ")"
	}
	if t := failLine.FindStringSubmatch(out); t != nil {
		return "`" + t[1] + "`" + pkg, nil
	}
	return "red outside any test" + pkg, nil
}

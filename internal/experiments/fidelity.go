package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"math"

	"xmlclust/internal/cluster"
)

// FidelitySeeds are the run seeds of every ledger cell. Accuracy is more
// initialization-sensitive than runtime, so the ledger averages more seeds
// than Scale.Seeds (the paper averages 10 runs).
var FidelitySeeds = []int64{17, 29, 43, 59, 71}

// Ledger is the fidelity ledger, FIDELITY.json: the paper's accuracy results,
// every run of every cell recorded, with each cell's summary beside its
// runs. Table 1 (data split equally) comes first, then the controls and the
// other readings, each against a Table 1 cell. Every number in it is
// deterministic, so a regenerated ledger equals the committed one byte for
// byte, on either engine.
type Ledger struct {
	Scale string       `json:"scale"`
	Seeds []int64      `json:"seeds"`
	Cells []LedgerCell `json:"cells"`
	// ContentControl is control (a), content only (contentControl), one
	// cell per content-labelled dataset, at m = 1.
	ContentControl []LedgerCell `json:"control_content"`
	// Unequal is Table 2, the data split unequally, at every m > 1: at
	// m = 1 both splits give the one peer every transaction, so that row is
	// Table 1's cell.
	Unequal []LedgerCell `json:"cells_unequal"`
	// Gamma is Sect. 5.1's γ tuning on Table 1's hybrid DBLP cell at m = 1,
	// one cell per γ of gammaPoints; BestGamma's γ is that cell.
	Gamma []LedgerCell `json:"gamma"`
	// Rules reads Fig. 6's return value the two other ways (returnRules) on
	// that cell, which is the default reading.
	Rules []LedgerCell `json:"rules"`
	// FControl is control (b): every Table 1 dataset and label kind at
	// m = 1, with f = 0 (content through tree tuples) and f = 1 (structure
	// only), at the kind's BestGamma.
	FControl []LedgerCell `json:"control_f"`
}

// LedgerCell is one cell of the ledger — a setting, a dataset and m, and
// for the gamma and rules sections the γ or the rule — with the spread of
// each quality measure over its runs, the mean rounds and messages, how many
// runs hit the round cap, and the mean of the two floors.
type LedgerCell struct {
	Setting string      `json:"setting"`
	Dataset string      `json:"dataset"`
	M       int         `json:"m"`
	Gamma   float64     `json:"gamma,omitempty"`
	Rule    string      `json:"rule,omitempty"`
	F       Spread      `json:"f"`
	Purity  Spread      `json:"purity"`
	NMI     Spread      `json:"nmi"`
	Trash   Spread      `json:"trash"`
	Rounds  float64     `json:"rounds"`
	Capped  int         `json:"capped"`
	Msgs    float64     `json:"msgs"`
	FRandom float64     `json:"f_random"`
	FSingle float64     `json:"f_single"`
	Runs    []LedgerRun `json:"runs"`
}

// Spread is the mean, minimum and maximum of one measure over a cell's runs.
type Spread struct {
	Mean float64 `json:"mean"`
	Min  float64 `json:"min"`
	Max  float64 `json:"max"`
}

// LedgerRun is one run of a cell: its seed and f, and what it scored.
type LedgerRun struct {
	Seed   int64   `json:"seed"`
	FKnob  float64 `json:"f_knob"`
	F      float64 `json:"f"`
	Purity float64 `json:"purity"`
	NMI    float64 `json:"nmi"`
	Trash  float64 `json:"trash"`
	Rounds int     `json:"rounds"`
	Capped bool    `json:"capped"`
	// ChangedTail is RunResult.ChangedTail: a capped run's last rounds.
	ChangedTail []RoundChange `json:"changed_tail,omitempty"`
	Msgs        int64         `json:"msgs"`
	FRandom     float64       `json:"f_random"`
	FSingle     float64       `json:"f_single"`
}

// The ledger's sections, in the order of Ledger.sections.
const (
	sectionCells = iota
	sectionContentControl
	sectionUnequal
	sectionGamma
	sectionRules
	sectionFControl
)

func (l *Ledger) sections() []*[]LedgerCell {
	return []*[]LedgerCell{&l.Cells, &l.ContentControl, &l.Unequal, &l.Gamma, &l.Rules, &l.FControl}
}

// settingKeys names the three settings in the ledger.
var settingKeys = []struct {
	key     string
	setting Setting
}{{"content", ContentDriven}, {"hybrid", HybridDriven}, {"structure", StructureDriven}}

// gammaPoints are the γ of the gamma section: Sect. 5.1 tunes γ in
// [0.5, 1), here in steps of 0.1 without BestGamma's 0.8.
var gammaPoints = []float64{0.5, 0.6, 0.7, 0.9}

// returnRules are the readings of Fig. 6's return value in the rules
// section, by their ledger names.
var returnRules = []struct {
	name string
	rule cluster.ReturnRule
}{{"last-improving", cluster.ReturnLastImproving}, {"previous", cluster.ReturnPrevious}}

// plannedCell is a ledger cell before it runs: its section, the fields that
// name it in the ledger, the spec its runs share and the f values they
// sweep; content marks control (a), which runs contentControl.
type plannedCell struct {
	section int
	id      LedgerCell
	spec    RunSpec
	fs      []float64
	content bool
}

// ledgerPlan lists the ledger's cells at scale, section by section.
func ledgerPlan(scale Scale) []plannedCell {
	cell := func(section int, key string, s Setting, ds string, m int) plannedCell {
		return plannedCell{
			section: section,
			id:      LedgerCell{Setting: key, Dataset: ds, M: m},
			spec: RunSpec{
				Dataset: ds, Kind: s.Kind, Gamma: BestGamma(ds, s.Kind),
				Peers: m, Workers: scale.Workers,
				Docs: scale.Docs[ds], MaxTuples: scale.MaxTuples,
			},
			fs: scale.tableFs(s),
		}
	}
	var plan []plannedCell
	for _, s := range settingKeys {
		for _, ds := range TableDatasets(s.setting.Kind) {
			for _, m := range scale.TableMs {
				plan = append(plan, cell(sectionCells, s.key, s.setting, ds, m))
			}
		}
	}
	for _, ds := range TableDatasets(ContentDriven.Kind) {
		p := cell(sectionContentControl, "content", ContentDriven, ds, 1)
		p.fs, p.content = []float64{0}, true
		plan = append(plan, p)
	}
	for _, s := range settingKeys {
		for _, ds := range TableDatasets(s.setting.Kind) {
			for _, m := range scale.TableMs {
				if m > 1 {
					p := cell(sectionUnequal, s.key, s.setting, ds, m)
					p.spec.Unequal = true
					plan = append(plan, p)
				}
			}
		}
	}
	for _, g := range gammaPoints {
		p := cell(sectionGamma, "hybrid", HybridDriven, "DBLP", 1)
		p.spec.Gamma, p.id.Gamma = g, g
		plan = append(plan, p)
	}
	for _, r := range returnRules {
		p := cell(sectionRules, "hybrid", HybridDriven, "DBLP", 1)
		p.spec.Rule, p.id.Rule = r.rule, r.name
		plan = append(plan, p)
	}
	for _, s := range settingKeys {
		for _, ds := range TableDatasets(s.setting.Kind) {
			for _, f := range []float64{0, 1} {
				p := cell(sectionFControl, s.key, s.setting, ds, 1)
				p.fs = []float64{f}
				plan = append(plan, p)
			}
		}
	}
	return plan
}

// Fidelity runs the ledger at scale over seeds, on the fast engine when
// fast is set and on the reference engine otherwise.
func Fidelity(scale Scale, seeds []int64, fast bool) (*Ledger, error) {
	l := &Ledger{Scale: scale.Name, Seeds: seeds}
	for _, p := range ledgerPlan(scale) {
		p.spec.fast = fast
		cell, err := p.run(seeds)
		if err != nil {
			return nil, err
		}
		section := l.sections()[p.section]
		*section = append(*section, cell)
	}
	return l, nil
}

// run runs the cell for every f and seed and summarizes the runs.
func (p plannedCell) run(seeds []int64) (LedgerCell, error) {
	run := executeRun
	if p.content {
		run = contentControl
	}
	var runs []LedgerRun
	for _, f := range p.fs {
		for _, seed := range seeds {
			s := p.spec
			s.F, s.Seed = f, seed
			r, err := run(s)
			if err != nil {
				return LedgerCell{}, fmt.Errorf("fidelity %s %s m=%d: %w", p.id.Setting, p.id.Dataset, p.id.M, err)
			}
			runs = append(runs, r)
		}
	}
	return summarize(p.id, runs), nil
}

// executeRun is one CXK-means run of spec as the ledger records it.
func executeRun(spec RunSpec) (LedgerRun, error) {
	r, err := Execute(spec)
	if err != nil {
		return LedgerRun{}, err
	}
	return LedgerRun{
		Seed: spec.Seed, FKnob: spec.F, F: r.F, Purity: r.Purity, NMI: r.NMI, Trash: r.Trash,
		Rounds: r.Rounds, Capped: r.Capped == 1, Msgs: r.Msgs, FRandom: r.FRandom, FSingle: r.FSingle,
		ChangedTail: r.ChangedTail,
	}, nil
}

// summarize is the cell id names, holding runs.
func summarize(id LedgerCell, runs []LedgerRun) LedgerCell {
	spread := func(of func(LedgerRun) float64) Spread {
		s := Spread{Min: math.Inf(1), Max: math.Inf(-1)}
		for _, r := range runs {
			v := of(r)
			s.Mean += v
			s.Min, s.Max = min(s.Min, v), max(s.Max, v)
		}
		s.Mean /= float64(len(runs))
		return s
	}
	c := LedgerCell{
		Setting: id.Setting, Dataset: id.Dataset, M: id.M, Gamma: id.Gamma, Rule: id.Rule, Runs: runs,
		F:       spread(func(r LedgerRun) float64 { return r.F }),
		Purity:  spread(func(r LedgerRun) float64 { return r.Purity }),
		NMI:     spread(func(r LedgerRun) float64 { return r.NMI }),
		Trash:   spread(func(r LedgerRun) float64 { return r.Trash }),
		Rounds:  spread(func(r LedgerRun) float64 { return float64(r.Rounds) }).Mean,
		Msgs:    spread(func(r LedgerRun) float64 { return float64(r.Msgs) }).Mean,
		FRandom: spread(func(r LedgerRun) float64 { return r.FRandom }).Mean,
		FSingle: spread(func(r LedgerRun) float64 { return r.FSingle }).Mean,
	}
	for _, r := range runs {
		if r.Capped {
			c.Capped++
		}
	}
	return c
}

// Write renders the ledger as indented JSON with a final newline.
func (l *Ledger) Write(w io.Writer) error {
	b, err := json.MarshalIndent(l, "", "  ")
	if err != nil {
		return err
	}
	_, err = w.Write(append(b, '\n'))
	return err
}

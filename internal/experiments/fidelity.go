package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"slices"
)

// FidelitySeeds are the run seeds of the fidelity ledger: QuickScale's three
// table seeds plus two.
var FidelitySeeds = []int64{17, 29, 43, 59, 71}

// Ledger is the fidelity ledger, FIDELITY.json: Table 1 (data split
// equally) on the reference engine, every run of every cell recorded, with
// each cell's summary beside its runs, and then the controls the cells are
// read against. Every number in it is deterministic, so a regenerated ledger
// equals the committed one byte for byte.
type Ledger struct {
	Scale string       `json:"scale"`
	Seeds []int64      `json:"seeds"`
	Cells []LedgerCell `json:"cells"`
	// ContentControl is control (a), content only (contentControl), one
	// cell per content-labelled dataset, at m = 1.
	ContentControl []LedgerCell `json:"control_content"`
}

// LedgerCell is one (setting, dataset, m) cell of Table 1: the spread of
// each quality measure over its runs, the mean rounds and messages, how many
// runs hit the round cap, and the mean of the two floors.
type LedgerCell struct {
	Setting string      `json:"setting"`
	Dataset string      `json:"dataset"`
	M       int         `json:"m"`
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

// settingKeys names the three settings in the ledger.
var settingKeys = []struct {
	key     string
	setting Setting
}{{"content", ContentDriven}, {"hybrid", HybridDriven}, {"structure", StructureDriven}}

// Fidelity runs the ledger at scale over seeds, for the network sizes ms;
// datasets, when non-empty, restricts it to those corpora.
func Fidelity(scale Scale, datasets []string, ms []int, seeds []int64) (*Ledger, error) {
	l := &Ledger{Scale: scale.Name, Seeds: seeds}
	for _, s := range settingKeys {
		for _, ds := range TableDatasets(s.setting.Kind) {
			if len(datasets) > 0 && !slices.Contains(datasets, ds) {
				continue
			}
			for _, m := range ms {
				spec := RunSpec{
					Dataset: ds, Kind: s.setting.Kind,
					Gamma: BestGamma(ds, s.setting.Kind),
					Peers: m, Workers: scale.Workers,
					Docs: scale.Docs[ds], MaxTuples: scale.MaxTuples,
				}
				cell, err := ledgerCell(spec, scale.tableFs(s.setting), seeds)
				if err != nil {
					return nil, fmt.Errorf("fidelity %s %s m=%d: %w", s.key, ds, m, err)
				}
				cell.Setting = s.key
				l.Cells = append(l.Cells, cell)
			}
		}
	}
	for _, ds := range TableDatasets(ContentDriven.Kind) {
		if len(datasets) > 0 && !slices.Contains(datasets, ds) {
			continue
		}
		var runs []LedgerRun
		for _, seed := range seeds {
			r, err := contentControl(RunSpec{
				Dataset: ds, Kind: ContentDriven.Kind, Workers: scale.Workers,
				Docs: scale.Docs[ds], MaxTuples: scale.MaxTuples, Seed: seed,
			})
			if err != nil {
				return nil, fmt.Errorf("fidelity content control %s: %w", ds, err)
			}
			runs = append(runs, r)
		}
		cell := summarize(ds, 1, runs)
		cell.Setting = "content"
		l.ContentControl = append(l.ContentControl, cell)
	}
	return l, nil
}

// ledgerCell runs spec for every f and seed and summarizes the runs.
func ledgerCell(spec RunSpec, fs []float64, seeds []int64) (LedgerCell, error) {
	var runs []LedgerRun
	for _, f := range fs {
		for _, seed := range seeds {
			s := spec
			s.F, s.Seed = f, seed
			r, err := Execute(s)
			if err != nil {
				return LedgerCell{}, err
			}
			runs = append(runs, LedgerRun{
				Seed: seed, FKnob: f, F: r.F, Purity: r.Purity, NMI: r.NMI, Trash: r.Trash,
				Rounds: r.Rounds, Capped: r.Capped == 1, Msgs: r.Msgs, FRandom: r.FRandom, FSingle: r.FSingle,
				ChangedTail: r.ChangedTail,
			})
		}
	}
	return summarize(spec.Dataset, spec.Peers, runs), nil
}

// summarize is the cell of a dataset at m peers holding runs.
func summarize(ds string, m int, runs []LedgerRun) LedgerCell {
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
		Dataset: ds, M: m, Runs: runs,
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

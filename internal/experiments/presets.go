package experiments

import "xmlclust/internal/dataset"

// Setting is one of the paper's three clustering settings, fixing the f
// sub-range and which reference classification scores the run (Sect. 5.1).
type Setting struct {
	Name string
	Kind dataset.ClassKind
	// Fs are the f values averaged over for this setting (the paper sweeps
	// the whole sub-range in 0.1 steps; the defaults sample it).
	Fs []float64
}

// The three settings with their paper f sub-ranges. The quick profile
// samples one representative f per sub-range; PaperScale widens the sweep
// through Scale.TableFs.
var (
	ContentDriven   = Setting{Name: "content-driven (f∈[0,0.3])", Kind: dataset.ByContent, Fs: []float64{0.2}}
	HybridDriven    = Setting{Name: "structure/content-driven (f∈[0.4,0.6])", Kind: dataset.ByHybrid, Fs: []float64{0.5}}
	StructureDriven = Setting{Name: "structure-driven (f∈[0.7,1])", Kind: dataset.ByStructure, Fs: []float64{0.85}}
)

// BestGamma returns the tuned similarity threshold for a dataset/setting
// pair. The paper tunes γ per dataset and setting and reports results for
// the best value ("typically above 0.85" on the real corpora); on the
// synthetic corpora the optimum sits lower for content-driven runs because
// the generated TCU texts have less verbatim repetition than real
// bibliographic fields. The fidelity ledger's gamma section records the
// sweep on DBLP.
func BestGamma(ds string, kind dataset.ClassKind) float64 {
	type key struct {
		ds   string
		kind dataset.ClassKind
	}
	table := map[key]float64{
		{"DBLP", dataset.ByContent}:          0.60,
		{"DBLP", dataset.ByHybrid}:           0.80,
		{"DBLP", dataset.ByStructure}:        0.60,
		{"IEEE", dataset.ByContent}:          0.60,
		{"IEEE", dataset.ByHybrid}:           0.70,
		{"IEEE", dataset.ByStructure}:        0.85,
		{"Shakespeare", dataset.ByContent}:   0.85,
		{"Shakespeare", dataset.ByHybrid}:    0.85,
		{"Shakespeare", dataset.ByStructure}: 0.85,
		{"Wikipedia", dataset.ByContent}:     0.70,
		{"Wikipedia", dataset.ByHybrid}:      0.70,
	}
	if g, ok := table[key{ds, kind}]; ok {
		return g
	}
	return 0.7
}

// Scale bundles the corpus sizes and network sizes of one experiment
// profile. The paper's full datasets are large (IEEE: 211909 transactions);
// the profiles scale the synthetic corpora so the whole suite runs on a
// laptop while keeping every qualitative trend (see package dataset).
type Scale struct {
	Name string
	// Docs per dataset (full size). The "half" series uses Docs/2.
	Docs map[string]int
	// MaxTuples caps per-tree tuple extraction.
	MaxTuples int
	// FigMs are the network sizes for the runtime figures (paper: 1..19).
	FigMs []int
	// TableMs are the network sizes of the fidelity ledger's cells, Tables
	// 1–2 (paper: 1..9).
	TableMs []int
	// Seeds are the run seeds averaged over by the runtime figures.
	Seeds []int64
	// TableFs are the f values a ledger cell averages over, per
	// setting kind (a kind without an entry = the setting's own Fs).
	TableFs map[dataset.ClassKind][]float64
	// Workers is each peer's intra-peer worker count, threaded into every
	// RunSpec the drivers build. The profiles default to 1 (serial) so that
	// per-peer compute timings match the paper's one-core-per-peer testbed;
	// cxkbench -workers overrides it for wall-clock speed.
	Workers int
}

// tableFs resolves the f list of one setting for ledger cells.
func (s Scale) tableFs(setting Setting) []float64 {
	if fs := s.TableFs[setting.Kind]; len(fs) > 0 {
		return fs
	}
	return setting.Fs
}

// QuickScale keeps a full suite run in the minutes range; used by the
// default `go test -bench` invocation.
func QuickScale() Scale {
	return Scale{
		Name:    "quick",
		Workers: 1,
		Docs: map[string]int{
			"DBLP": 160, "IEEE": 36, "Shakespeare": 8, "Wikipedia": 84,
		},
		MaxTuples: 40,
		FigMs:     []int{1, 3, 5, 9, 13, 19},
		TableMs:   []int{1, 3, 5, 9},
		Seeds:     []int64{17},
	}
}

// PaperScale approaches the paper's corpus geometry (still synthetic and
// smaller than the real IEEE collection); expect a multi-hour suite.
func PaperScale() Scale {
	return Scale{
		Name:    "paper",
		Workers: 1,
		Docs: map[string]int{
			"DBLP": 240, "IEEE": 90, "Shakespeare": 14, "Wikipedia": 210,
		},
		MaxTuples: 64,
		FigMs:     []int{1, 3, 5, 7, 9, 11, 13, 15, 17, 19},
		TableMs:   []int{1, 3, 5, 7, 9},
		Seeds:     []int64{17, 29, 43},
		TableFs: map[dataset.ClassKind][]float64{
			dataset.ByContent:   {0.1, 0.2, 0.3},
			dataset.ByHybrid:    {0.4, 0.5, 0.6},
			dataset.ByStructure: {0.7, 0.8, 0.9},
		},
	}
}

// HalfDocs returns the "halved dataset" size for a dataset under a scale.
func (s Scale) HalfDocs(ds string) int {
	d := s.Docs[ds]
	if d <= 1 {
		return d
	}
	return d / 2
}

// TableDatasets lists the datasets evaluated per setting in Tables 1–2:
// Wikipedia is content-only (no structural variety, Sect. 5.2).
func TableDatasets(kind dataset.ClassKind) []string {
	if kind == dataset.ByContent {
		return []string{"DBLP", "IEEE", "Shakespeare", "Wikipedia"}
	}
	return []string{"DBLP", "IEEE", "Shakespeare"}
}

package experiments

import (
	"fmt"
	"io"
)

// TableRow is one (dataset, m) accuracy entry of Tables 1–2: the cell's
// RunResult, averaged over its runs by AverageF.
type TableRow struct {
	Dataset string
	M       int
	RunResult
}

// TableResult reproduces one sub-table of Table 1 (equal split) or
// Table 2 (unequal split) for one clustering setting.
type TableResult struct {
	Setting Setting
	Unequal bool
	Rows    []TableRow
}

// AccuracyTable runs one sub-table: every dataset of the setting × every
// network size, averaging the F-measure over the scale's f values for the
// setting and its table seeds.
func AccuracyTable(setting Setting, unequal bool, scale Scale) (*TableResult, error) {
	res := &TableResult{Setting: setting, Unequal: unequal}
	for _, ds := range TableDatasets(setting.Kind) {
		for _, m := range scale.TableMs {
			spec := RunSpec{
				Dataset: ds, Kind: setting.Kind,
				Gamma: BestGamma(ds, setting.Kind),
				Peers: m, Workers: scale.Workers, Unequal: unequal,
				Docs: scale.Docs[ds], MaxTuples: scale.MaxTuples,
			}
			r, err := AverageF(spec, scale.tableFs(setting), scale.tableSeeds())
			if err != nil {
				return nil, fmt.Errorf("table %s m=%d: %w", ds, m, err)
			}
			res.Rows = append(res.Rows, TableRow{Dataset: ds, M: m, RunResult: r})
		}
	}
	return res, nil
}

// Write renders the sub-table in the paper's row format.
func (t *TableResult) Write(w io.Writer) {
	split := "equally"
	table := "Table 1"
	if t.Unequal {
		split = "unequally"
		table = "Table 2"
	}
	fmt.Fprintf(w, "%s — clustering accuracy, data %s distributed: %s\n", table, split, t.Setting.Name)
	fmt.Fprintf(w, "%-12s %10s %8s %12s %12s %8s %8s %8s %12s %9s %9s %8s\n",
		"set", "#clusters", "#nodes", "F-measure", "F min-max", "purity", "NMI", "trash", "trash min-max", "F random", "F single", "capped")
	prev := ""
	for _, r := range t.Rows {
		name := r.Dataset
		kcol := fmt.Sprintf("%d", r.K)
		if name == prev {
			name, kcol = "", ""
		} else {
			prev = name
		}
		fmt.Fprintf(w, "%-12s %10s %8d %12.3f %6.3f-%.3f %8.3f %8.3f %8.3f %6.3f-%.3f %9.3f %9.3f %6d/%d\n", name, kcol, r.M,
			r.F, r.FMin, r.FMax, r.Purity, r.NMI, r.Trash, r.TrashMin, r.TrashMax, r.FRandom, r.FSingle, r.Capped, r.Runs)
	}
}

// CentralizedLoss returns, per dataset, F(m=1) − F(m) at the given m — the
// paper's loss-of-accuracy check against the saturation point (Sect. 5.5.2
// reports losses below 0.2).
func (t *TableResult) CentralizedLoss(m int) map[string]float64 {
	base := map[string]float64{}
	at := map[string]float64{}
	for _, r := range t.Rows {
		if r.M == 1 {
			base[r.Dataset] = r.F
		}
		if r.M == m {
			at[r.Dataset] = r.F
		}
	}
	out := map[string]float64{}
	for ds, b := range base {
		if v, ok := at[ds]; ok {
			out[ds] = b - v
		}
	}
	return out
}

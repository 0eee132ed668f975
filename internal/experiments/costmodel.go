package experiments

import (
	"fmt"
	"io"
	"time"

	"xmlclust/internal/complexity"
	"xmlclust/internal/dataset"
)

// CostModelPoint pairs a measured runtime with the model prediction.
type CostModelPoint struct {
	M         int
	Measured  time.Duration
	Predicted time.Duration
}

// CostModelResult validates the Sect. 4.3.4 analysis: the analytical f(m)
// is calibrated on two measured points and compared against the whole
// measured curve, together with the predicted optimal network size m*.
type CostModelResult struct {
	Dataset  string
	Points   []CostModelPoint
	OptimalM float64
	Model    complexity.Model
	// FitErr is why the model could not be calibrated on the measured
	// extremes (wall-clock points at a small scale need not be
	// hyperbolic); the predictions then use the default t_mem and t_comm.
	FitErr error
}

// CostModel runs the Fig. 7-style sweep on one corpus and fits the
// analytical model to its first and last points.
func CostModel(ds string, scale Scale) (*CostModelResult, error) {
	kind := dataset.ByHybrid
	if ds == "Wikipedia" {
		kind = dataset.ByContent
	}
	spec := RunSpec{
		Dataset: ds, Kind: kind, Gamma: BestGamma(ds, kind),
		Workers: scale.Workers,
		Docs:    scale.Docs[ds], MaxTuples: scale.MaxTuples,
	}
	pc, err := prepare(spec)
	if err != nil {
		return nil, err
	}
	md := complexity.FromCorpus(pc.corpus, pc.k)

	var measured []CostModelPoint
	for _, m := range scale.FigMs {
		s := spec
		s.Peers = m
		r, err := AverageF(s, HybridDriven.Fs, scale.Seeds)
		if err != nil {
			return nil, fmt.Errorf("cost model %s m=%d: %w", ds, m, err)
		}
		measured = append(measured, CostModelPoint{M: m, Measured: r.SimTime})
	}
	return calibrate(ds, md, measured), nil
}

// calibrate fits md to the first and last measured points, when there are
// two, and predicts every point from the result.
func calibrate(ds string, md complexity.Model, measured []CostModelPoint) *CostModelResult {
	r := &CostModelResult{Dataset: ds, Points: measured}
	if len(measured) >= 2 {
		first, last := measured[0], measured[len(measured)-1]
		r.FitErr = md.Fit(first.M, first.Measured, last.M, last.Measured)
	}
	for i := range measured {
		measured[i].Predicted = md.GlobalTime(measured[i].M)
	}
	r.OptimalM, r.Model = md.OptimalM(), md
	return r
}

// Write renders measured-vs-predicted rows.
func (r *CostModelResult) Write(w io.Writer) {
	fmt.Fprintf(w, "Sect. 4.3.4 cost-model validation (%s)\n", r.Dataset)
	if r.FitErr != nil {
		fmt.Fprintf(w, "fit failed: %v; default t_mem/t_comm used\n", r.FitErr)
	}
	fmt.Fprintf(w, "%6s  %16s  %16s\n", "m", "measured", "f(m) predicted")
	for _, p := range r.Points {
		fmt.Fprintf(w, "%6d  %16s  %16s\n",
			p.M, p.Measured.Round(time.Microsecond), p.Predicted.Round(time.Microsecond))
	}
	fmt.Fprintf(w, "predicted optimal network size m* = %.1f\n", r.OptimalM)
}

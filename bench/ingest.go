package main

import (
	"bytes"
	"fmt"
	"hash/fnv"

	"xmlclust"
	"xmlclust/internal/sim"
)

// ingestMixed is the preprocessing job: an archive of raw XML from four
// collections of very different shape in, a weighted corpus out, saved and
// loaded back. No clustering.
type ingestMixed struct {
	sz sizes

	ds      docSet
	archive []byte

	saved  []byte // the corpus built by the last job, as SaveCorpus wrote it
	loaded *xmlclust.Corpus
}

func (w *ingestMixed) Setup(seed int64) error {
	ds, err := generate(w.sz.ingest, seed)
	if err != nil {
		return err
	}
	w.ds = ds
	w.archive, err = ds.tar()
	return err
}

// buildAndSave ingests the archive at the given worker count (0 = one per
// CPU) and returns the saved corpus.
func (w *ingestMixed) buildAndSave(workers int) ([]byte, error) {
	c, err := ingest(w.archive, w.ds.labels, workers)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := xmlclust.SaveCorpus(&buf, c); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func (w *ingestMixed) Job() (int, int, error) {
	saved, err := w.buildAndSave(0)
	if err != nil {
		return 1, 0, err
	}
	w.saved = saved
	w.loaded, err = xmlclust.LoadCorpus(bytes.NewReader(saved))
	return 1, 0, err
}

func (w *ingestMixed) Digest() uint64 {
	h := fnv.New64a()
	h.Write(w.saved)
	return h.Sum64()
}

func (w *ingestMixed) Check(full bool) error {
	var again bytes.Buffer
	if err := xmlclust.SaveCorpus(&again, w.loaded); err != nil {
		return fmt.Errorf("re-save: %w", err)
	}
	if !bytes.Equal(again.Bytes(), w.saved) {
		return fmt.Errorf("Load(Save(c)) re-saves to different bytes (%d vs %d)", again.Len(), len(w.saved))
	}
	if !full {
		return nil
	}
	serial, err := w.buildAndSave(1)
	if err != nil {
		return fmt.Errorf("serial build: %w", err)
	}
	if !bytes.Equal(serial, w.saved) {
		return fmt.Errorf("the corpus built at one worker per CPU differs from the one built serially")
	}
	return nil
}

func (w *ingestMixed) Close() {}

func (w *ingestMixed) Layers(tr *tracer, root int, m *metricSet, seed int64) error {
	var err error
	tr.timed(root, "bench", "setup", func() { err = w.Setup(seed) })
	if err != nil {
		return err
	}
	tr.timed(root, "corpus", "job", func() { _, _, err = w.Job() })
	if err != nil {
		return err
	}
	if err := w.Check(true); err != nil {
		return err
	}
	c, err := ingestStages(tr, root, m, w.ds)
	if err != nil {
		return err
	}
	if err := pipelineProbe(tr, root, m, w.archive, w.ds.labels); err != nil {
		return err
	}
	kernelProbe(tr, root, m, c, sim.Params{F: benchF, Gamma: benchGamma}, w.sz.kernelPairs, seed)
	return nil
}

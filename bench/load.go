package main

import (
	"archive/tar"
	"bytes"
	"fmt"

	"xmlclust/internal/dataset"
	"xmlclust/internal/xmltree"
)

// part sizes one generated collection of a document set.
type part struct {
	name string
	docs int
}

// sizes freezes the load of every workload. The full scale is the one
// BENCHMARK.json is measured at; tiny exists for the smoke test. The
// numbers were retuned once from the issue's collection-scale proposal so
// that one iteration (set-up + job + checks) takes about a second and a
// 15-second run holds enough iterations, each on a different sub-seed, for
// the median to be steady across seeds (see README, "Sizes").
type sizes struct {
	ingest []part

	k16Docs, k16Rounds             int
	k128Docs, k128K, k128Rounds    int
	collabDocs, collabRounds       int
	serveDocs, serveOps            int
	serveRounds                    int
	openRate                       int     // open-loop ops/s (traced run)
	openWarmS, openMeasureS        float64 // open-loop phases in seconds
	directCalls, kernelPairs       int
	frameRoundtrips, frameBigSends int
}

var scales = map[string]sizes{
	"full": {
		ingest:  []part{{"DBLP", 6000}, {"IEEE", 80}, {"Wikipedia", 600}, {"Shakespeare", 20}},
		k16Docs: 500, k16Rounds: 8,
		k128Docs: 500, k128K: 128, k128Rounds: 3,
		collabDocs: 500, collabRounds: 6,
		serveDocs: 400, serveOps: 1000, serveRounds: 4,
		openRate: 500, openWarmS: 1, openMeasureS: 5,
		directCalls: 200, kernelPairs: 20000,
		frameRoundtrips: 500, frameBigSends: 30,
	},
	"tiny": {
		ingest:  []part{{"DBLP", 60}, {"IEEE", 2}, {"Wikipedia", 6}, {"Shakespeare", 1}},
		k16Docs: 60, k16Rounds: 3,
		k128Docs: 60, k128K: 24, k128Rounds: 2,
		collabDocs: 60, collabRounds: 3,
		serveDocs: 40, serveOps: 60, serveRounds: 2,
		openRate: 200, openWarmS: 0.1, openMeasureS: 0.4,
		directCalls: 10, kernelPairs: 200,
		frameRoundtrips: 10, frameBigSends: 2,
	},
}

// docSet is the generated input of one iteration: rendered XML documents
// with the hybrid reference class of each (the classification f = 0.5
// clustering is scored against).
type docSet struct {
	names   []string
	raws    [][]byte
	labels  []int
	classes int
}

// generate builds the collections of parts from seed and renders every
// tree to XML bytes — the only form the program under test receives.
// Class ids of later parts are offset so classes of different collections
// stay distinct.
func generate(parts []part, seed int64) (docSet, error) {
	var ds docSet
	for _, p := range parts {
		gen, ok := dataset.ByName(p.name)
		if !ok {
			return docSet{}, fmt.Errorf("unknown collection %q", p.name)
		}
		col := gen(dataset.Spec{Docs: p.docs, Seed: seed})
		for i, t := range col.Trees {
			var b bytes.Buffer
			if err := xmltree.Render(&b, t); err != nil {
				return docSet{}, fmt.Errorf("render %s document %d: %w", p.name, i, err)
			}
			ds.names = append(ds.names, fmt.Sprintf("%s/%06d.xml", p.name, i))
			ds.raws = append(ds.raws, b.Bytes())
			ds.labels = append(ds.labels, ds.classes+col.HybridLabels[i])
		}
		ds.classes += col.NumHybrid
	}
	return ds, nil
}

// bytes returns the total size of the rendered documents.
func (ds docSet) bytes() int {
	n := 0
	for _, r := range ds.raws {
		n += len(r)
	}
	return n
}

// tar packs the documents into an in-memory archive, in order.
func (ds docSet) tar() ([]byte, error) {
	var buf bytes.Buffer
	tw := tar.NewWriter(&buf)
	for i, raw := range ds.raws {
		if err := tw.WriteHeader(&tar.Header{Name: ds.names[i], Mode: 0o644, Size: int64(len(raw))}); err != nil {
			return nil, err
		}
		if _, err := tw.Write(raw); err != nil {
			return nil, err
		}
	}
	if err := tw.Close(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

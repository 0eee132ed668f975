package sim

import "xmlclust/internal/txn"

// This file is the frozen seed (pre-kernel, pointer-based) implementation
// of the Eq. 4 similarity, kept verbatim as one shared oracle: the
// property tests pin the dense kernel's output against it pair by pair,
// BenchmarkRelocateSpeedup and cxkbench's kernel experiment report
// throughput against it (the speedup-vs-seed metric with its ≥1.3× CI
// bar). It allocates two item slices, an n1×n2 matrix and a result map per
// call and walks *txn.Item pointers per element — exactly the layout and
// churn the kernel exists to avoid. Do not "optimize" it: its value is
// being the unchanged baseline.

// SeedMatchSet is the seed MatchSet implementation — including the "ties
// all qualify" rule — against which the kernel must be exact.
func SeedMatchSet(cx *Context, tr1, tr2 *txn.Transaction) map[txn.ItemID]struct{} {
	n1, n2 := tr1.Len(), tr2.Len()
	shared := make(map[txn.ItemID]struct{}, n1+n2)
	if n1 == 0 || n2 == 0 {
		return shared
	}
	items1 := make([]*txn.Item, n1)
	for i, id := range tr1.Items {
		items1[i] = cx.Items.Get(id)
	}
	items2 := make([]*txn.Item, n2)
	for j, id := range tr2.Items {
		items2[j] = cx.Items.Get(id)
	}
	simM := make([]float64, n1*n2)
	for i, a := range items1 {
		row := simM[i*n2 : (i+1)*n2]
		for j, b := range items2 {
			row[j] = cx.Item(a, b)
		}
	}
	gamma := cx.Params.Gamma
	for j := 0; j < n2; j++ {
		best := -1.0
		for i := 0; i < n1; i++ {
			if s := simM[i*n2+j]; s > best {
				best = s
			}
		}
		if best < gamma {
			continue
		}
		for i := 0; i < n1; i++ {
			if simM[i*n2+j] == best {
				shared[tr1.Items[i]] = struct{}{}
			}
		}
	}
	for i := 0; i < n1; i++ {
		best := -1.0
		for j := 0; j < n2; j++ {
			if s := simM[i*n2+j]; s > best {
				best = s
			}
		}
		if best < gamma {
			continue
		}
		for j := 0; j < n2; j++ {
			if simM[i*n2+j] == best {
				shared[tr2.Items[j]] = struct{}{}
			}
		}
	}
	return shared
}

// SeedTransactions is the seed Eq. 4 evaluation on top of SeedMatchSet.
func SeedTransactions(cx *Context, tr1, tr2 *txn.Transaction) float64 {
	u := txn.UnionSize(tr1, tr2)
	if u == 0 {
		return 0
	}
	return float64(len(SeedMatchSet(cx, tr1, tr2))) / float64(u)
}

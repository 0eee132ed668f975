package xmlclust

import (
	"context"
	"fmt"
	"math"
	"testing"

	"xmlclust/internal/dataset"
	"xmlclust/internal/fnv"
)

// pinnedClusterings is the output of every configuration of
// TestClusteringPinned as one line each: the FNV-1a fold of the assignment,
// RepsDigest, the round count and the F-measure's bits, and for PK-means the
// message count. The CXK-means lines were recorded before the ranking moved
// onto id-indexed arrays, the PK-means lines before the baseline moved onto
// the session; a change that moves any line moved a clustering output, which
// no exact optimisation may do. Re-record only with a reason (the test logs
// the lines it computed).
var pinnedClusterings = []string{
	"DBLP k=4 f=0.0 peers=1: assign 5c19825a71c85a9d reps 529df5c307add648 rounds 6 F 3fcb720c7fabd773",
	"DBLP k=4 f=0.0 peers=3: assign 79832eaf87d2acec reps d569ea91186c46d7 rounds 4 F 3fd11220c5c89754",
	"DBLP k=4 f=0.5 peers=1: assign 13d871469e65335f reps b2ed053deb78ff26 rounds 5 F 3fd0914359102b23",
	"DBLP k=4 f=0.5 peers=3: assign ff720fef9864184f reps 00751cb3eef611d0 rounds 6 F 3fd43d28e7fc2dea",
	"DBLP k=4 f=1.0 peers=1: assign 8df6d45debdf6015 reps 8953c801ecc846bf rounds 2 F 3fc821b12aaf4475",
	"DBLP k=4 f=1.0 peers=3: assign e4cf521fb71a0385 reps d2d942e97fb448bb rounds 2 F 3fd8a1ff88f1f7ea",
	"DBLP k=16 f=0.0 peers=1: assign 2683b1bf61cd79a7 reps 1806d57807b9e804 rounds 6 F 3fd591e528c8cce8",
	"DBLP k=16 f=0.0 peers=3: assign 21882e2715b84d1d reps e21b5d9d724adad4 rounds 6 F 3fd812878b987580",
	"DBLP k=16 f=0.5 peers=1: assign bb32db718ab402be reps 4b525fe1977c88bb rounds 6 F 3fe27c22ce08d8cf",
	"DBLP k=16 f=0.5 peers=3: assign 68b36e1bc0194a0b reps 33cd0e9677a633c3 rounds 6 F 3fe084bb5d8f42cf",
	"DBLP k=16 f=1.0 peers=1: assign 5242216ebf06f925 reps e84f1da28dc8dcd0 rounds 2 F 3fd8a1ff88f1f7ea",
	"DBLP k=16 f=1.0 peers=3: assign 1c2910b5afbbbb45 reps e5551ba88feaf679 rounds 2 F 3fd8a1ff88f1f7ea",
	"IEEE k=4 f=0.0 peers=1: assign ad4bc06817f40825 reps d5c018de19becd05 rounds 2 F 3ff0000000000000",
	"IEEE k=4 f=0.0 peers=3: assign 316735ec10c51c67 reps b3bb57c58b9ce389 rounds 3 F 3fe6276276276276",
	"IEEE k=4 f=0.5 peers=1: assign ad4bc06817f40825 reps d5c018de19becd05 rounds 2 F 3ff0000000000000",
	"IEEE k=4 f=0.5 peers=3: assign e9b28f39ac989fa5 reps 9083e4116fd23935 rounds 3 F 3feaaaaaaaaaaaaa",
	"IEEE k=4 f=1.0 peers=1: assign d80ac658736bb725 reps 14cb7b77eac994cb rounds 2 F 3fd999999999999a",
	"IEEE k=4 f=1.0 peers=3: assign d80ac658736bb725 reps 5db26bdb0a0472b8 rounds 2 F 3fd999999999999a",
	"IEEE k=16 f=0.0 peers=1: assign 8c07c2ce4eedfa0e reps 457066fcf9daaf00 rounds 4 F 3fe3333333333333",
	"IEEE k=16 f=0.0 peers=3: assign f961bfa9bbcda703 reps 0d9ec7585ff35984 rounds 5 F 3fe4eaf197d3abc6",
	"IEEE k=16 f=0.5 peers=1: assign bbc06269363bc443 reps 34f3d5bc5dd5d43e rounds 3 F 3fe5e32fa7578cbe",
	"IEEE k=16 f=0.5 peers=3: assign 834bf2fafd4f0065 reps b71d4565272a8924 rounds 3 F 3fe5555555555555",
	"IEEE k=16 f=1.0 peers=1: assign d80ac658736bb725 reps a1a94023ac0e6f99 rounds 2 F 3fd999999999999a",
	"IEEE k=16 f=1.0 peers=3: assign d80ac658736bb725 reps e87ef633120ee94a rounds 2 F 3fd999999999999a",
	"Shakespeare k=4 f=0.0 peers=1: assign d6fdf165728fbb25 reps 10866ae5e7172aaf rounds 2 F 3fec71c71c71c71c",
	"Shakespeare k=4 f=0.0 peers=3: assign 07044c8e0c8f7c85 reps 6c9f733326f50c3e rounds 3 F 3fee79e79e79e79f",
	"Shakespeare k=4 f=0.5 peers=1: assign 2815c6295e6455a7 reps 2758bc9d4d6b16c1 rounds 2 F 3fef49f49f49f4a0",
	"Shakespeare k=4 f=0.5 peers=3: assign c2fb1cc2c7098646 reps eac53af4a20755a1 rounds 5 F 3fef49f49f49f4a0",
	"Shakespeare k=4 f=1.0 peers=1: assign ab0c262759a1d225 reps 2a07bb2783f583d7 rounds 2 F 3fe0000000000000",
	"Shakespeare k=4 f=1.0 peers=3: assign ab0c262759a1d225 reps ada07d872287b13e rounds 2 F 3fe0000000000000",
	"Shakespeare k=16 f=0.0 peers=1: assign a8b1d25e2b93ad63 reps 9076296229a1a1e1 rounds 3 F 3fdcb3f9cb3f9cb4",
	"Shakespeare k=16 f=0.0 peers=3: assign 8082f925d666e46a reps 76a9d9177361f4b5 rounds 3 F 3fe1322a6877fbdd",
	"Shakespeare k=16 f=0.5 peers=1: assign af311565bbdf120a reps 45be65dc49511383 rounds 3 F 3fe40a57eb50295f",
	"Shakespeare k=16 f=0.5 peers=3: assign a86e83bc3e68ede6 reps ddd42ce2592c74fd rounds 3 F 3fe4854854854854",
	"Shakespeare k=16 f=1.0 peers=1: assign ab0c262759a1d225 reps 63f1b8f2f734de97 rounds 2 F 3fe0000000000000",
	"Shakespeare k=16 f=1.0 peers=3: assign ab0c262759a1d225 reps 5bc9e8dfbcfac236 rounds 2 F 3fe0000000000000",
	"Wikipedia k=4 f=0.0 peers=1: assign 629ef7b6b832d7fd reps 404a0371969a7bc3 rounds 3 F 3fcbb6c243d02417",
	"Wikipedia k=4 f=0.0 peers=3: assign 0082077cece172d5 reps 8f44a983bf731f9d rounds 6 F 3fc6f5b8e7942192",
	"Wikipedia k=4 f=0.5 peers=1: assign c61618bb065c8695 reps 6d1a10e40d4ea0ed rounds 2 F 3fcc498c05a84f34",
	"Wikipedia k=4 f=0.5 peers=3: assign d005443b115391e5 reps 6a64390a162f4c62 rounds 3 F 3fc75646b7de0e25",
	"Wikipedia k=4 f=1.0 peers=1: assign bb6de97d80b7e565 reps 7f8c91510ab7f281 rounds 2 F 3fb83505452b57d7",
	"Wikipedia k=4 f=1.0 peers=3: assign bb6de97d80b7e565 reps bd85ecd063984588 rounds 2 F 3fb83505452b57d7",
	"Wikipedia k=16 f=0.0 peers=1: assign e6d756e47240276f reps a92df079b7597133 rounds 4 F 3fe32e12392948c7",
	"Wikipedia k=16 f=0.0 peers=3: assign 4d829bbc9392e115 reps 2b89421e9c1faf7e rounds 6 F 3fe0b5ce9283b725",
	"Wikipedia k=16 f=0.5 peers=1: assign 03f337f363be5b95 reps e2f8fd78f6a7364b rounds 3 F 3fe35e72b87efa7f",
	"Wikipedia k=16 f=0.5 peers=3: assign 4482f020b8a764d5 reps 1799c483f7dadf6e rounds 3 F 3fe11b373ef5ed92",
	"Wikipedia k=16 f=1.0 peers=1: assign bb6de97d80b7e565 reps f398edd74c4ee2bc rounds 2 F 3fb83505452b57d7",
	"Wikipedia k=16 f=1.0 peers=3: assign bb6de97d80b7e565 reps e1a1a2dde8c43b39 rounds 2 F 3fb83505452b57d7",
	"PK-means DBLP k=4 f=0.0 peers=1: assign 5c19825a71c85a9d reps 529df5c307add648 rounds 7 F 3fcb720c7fabd773 msgs 0",
	"PK-means DBLP k=4 f=0.0 peers=3: assign 79832eaf87d2acec reps d569ea91186c46d7 rounds 6 F 3fd11220c5c89754 msgs 36",
	"PK-means DBLP k=4 f=0.5 peers=1: assign 13d871469e65335f reps b2ed053deb78ff26 rounds 7 F 3fd0914359102b23 msgs 0",
	"PK-means DBLP k=4 f=0.5 peers=3: assign da85c2608b1641fc reps d0de6a115c1fdd9c rounds 7 F 3fd4fd4cbd14b2b6 msgs 42",
	"PK-means DBLP k=4 f=1.0 peers=1: assign 8df6d45debdf6015 reps 8953c801ecc846bf rounds 3 F 3fc821b12aaf4475 msgs 0",
	"PK-means DBLP k=4 f=1.0 peers=3: assign e4cf521fb71a0385 reps d2d942e97fb448bb rounds 3 F 3fd8a1ff88f1f7ea msgs 18",
	"PK-means DBLP k=16 f=0.0 peers=1: assign 2683b1bf61cd79a7 reps 1806d57807b9e804 rounds 7 F 3fd591e528c8cce8 msgs 0",
	"PK-means DBLP k=16 f=0.0 peers=3: assign 7af9f18501406d43 reps 91732db605f65461 rounds 7 F 3fd84750c66333cc msgs 42",
	"PK-means DBLP k=16 f=0.5 peers=1: assign bb32db718ab402be reps 4b525fe1977c88bb rounds 7 F 3fe27c22ce08d8cf msgs 0",
	"PK-means DBLP k=16 f=0.5 peers=3: assign 68b36e1bc0194a0b reps 960006f1070c2ef3 rounds 7 F 3fe084bb5d8f42cf msgs 42",
	"PK-means DBLP k=16 f=1.0 peers=1: assign 5242216ebf06f925 reps e84f1da28dc8dcd0 rounds 3 F 3fd8a1ff88f1f7ea msgs 0",
	"PK-means DBLP k=16 f=1.0 peers=3: assign 1c2910b5afbbbb45 reps e5551ba88feaf679 rounds 3 F 3fd8a1ff88f1f7ea msgs 18",
	"PK-means IEEE k=4 f=0.0 peers=1: assign ad4bc06817f40825 reps d5c018de19becd05 rounds 4 F 3ff0000000000000 msgs 0",
	"PK-means IEEE k=4 f=0.0 peers=3: assign 316735ec10c51c67 reps f2c0604abc1db488 rounds 4 F 3fe6276276276276 msgs 24",
	"PK-means IEEE k=4 f=0.5 peers=1: assign ad4bc06817f40825 reps d5c018de19becd05 rounds 4 F 3ff0000000000000 msgs 0",
	"PK-means IEEE k=4 f=0.5 peers=3: assign e9b28f39ac989fa5 reps 94290bc476af7440 rounds 4 F 3feaaaaaaaaaaaaa msgs 24",
	"PK-means IEEE k=4 f=1.0 peers=1: assign d80ac658736bb725 reps 14cb7b77eac994cb rounds 3 F 3fd999999999999a msgs 0",
	"PK-means IEEE k=4 f=1.0 peers=3: assign d80ac658736bb725 reps 5db26bdb0a0472b8 rounds 3 F 3fd999999999999a msgs 18",
	"PK-means IEEE k=16 f=0.0 peers=1: assign 8c07c2ce4eedfa0e reps 457066fcf9daaf00 rounds 5 F 3fe3333333333333 msgs 0",
	"PK-means IEEE k=16 f=0.0 peers=3: assign 1417f99b1468398b reps ecd8d7cd5f27ec1c rounds 6 F 3fe4eaf197d3abc6 msgs 36",
	"PK-means IEEE k=16 f=0.5 peers=1: assign bbc06269363bc443 reps 34f3d5bc5dd5d43e rounds 4 F 3fe5e32fa7578cbe msgs 0",
	"PK-means IEEE k=16 f=0.5 peers=3: assign 834bf2fafd4f0065 reps b310adb15bb35835 rounds 4 F 3fe5555555555555 msgs 24",
	"PK-means IEEE k=16 f=1.0 peers=1: assign d80ac658736bb725 reps a1a94023ac0e6f99 rounds 3 F 3fd999999999999a msgs 0",
	"PK-means IEEE k=16 f=1.0 peers=3: assign d80ac658736bb725 reps e87ef633120ee94a rounds 3 F 3fd999999999999a msgs 18",
	"PK-means Shakespeare k=4 f=0.0 peers=1: assign d6fdf165728fbb25 reps 10866ae5e7172aaf rounds 4 F 3fec71c71c71c71c msgs 0",
	"PK-means Shakespeare k=4 f=0.0 peers=3: assign 07044c8e0c8f7c85 reps 6c9f733326f50c3e rounds 5 F 3fee79e79e79e79f msgs 30",
	"PK-means Shakespeare k=4 f=0.5 peers=1: assign 2815c6295e6455a7 reps 2758bc9d4d6b16c1 rounds 4 F 3fef49f49f49f4a0 msgs 0",
	"PK-means Shakespeare k=4 f=0.5 peers=3: assign 15edfb7d581feb65 reps 5cb8e3f7d22be834 rounds 6 F 3fec71c71c71c71c msgs 36",
	"PK-means Shakespeare k=4 f=1.0 peers=1: assign ab0c262759a1d225 reps 2a07bb2783f583d7 rounds 3 F 3fe0000000000000 msgs 0",
	"PK-means Shakespeare k=4 f=1.0 peers=3: assign ab0c262759a1d225 reps ada07d872287b13e rounds 3 F 3fe0000000000000 msgs 18",
	"PK-means Shakespeare k=16 f=0.0 peers=1: assign a8b1d25e2b93ad63 reps 9076296229a1a1e1 rounds 5 F 3fdcb3f9cb3f9cb4 msgs 0",
	"PK-means Shakespeare k=16 f=0.0 peers=3: assign 8082f925d666e46a reps c15f6943dbab967e rounds 5 F 3fe1322a6877fbdd msgs 30",
	"PK-means Shakespeare k=16 f=0.5 peers=1: assign af311565bbdf120a reps 45be65dc49511383 rounds 4 F 3fe40a57eb50295f msgs 0",
	"PK-means Shakespeare k=16 f=0.5 peers=3: assign a86e83bc3e68ede6 reps aa705424ebed9b02 rounds 4 F 3fe4854854854854 msgs 24",
	"PK-means Shakespeare k=16 f=1.0 peers=1: assign ab0c262759a1d225 reps 63f1b8f2f734de97 rounds 3 F 3fe0000000000000 msgs 0",
	"PK-means Shakespeare k=16 f=1.0 peers=3: assign ab0c262759a1d225 reps 5bc9e8dfbcfac236 rounds 3 F 3fe0000000000000 msgs 18",
	"PK-means Wikipedia k=4 f=0.0 peers=1: assign 629ef7b6b832d7fd reps 404a0371969a7bc3 rounds 5 F 3fcbb6c243d02417 msgs 0",
	"PK-means Wikipedia k=4 f=0.0 peers=3: assign 155ad69575186b4e reps 828423945c4e67bd rounds 6 F 3fc6c845e8167ed0 msgs 36",
	"PK-means Wikipedia k=4 f=0.5 peers=1: assign c61618bb065c8695 reps 6d1a10e40d4ea0ed rounds 4 F 3fcc498c05a84f34 msgs 0",
	"PK-means Wikipedia k=4 f=0.5 peers=3: assign d005443b115391e5 reps 6a64390a162f4c62 rounds 5 F 3fc75646b7de0e25 msgs 30",
	"PK-means Wikipedia k=4 f=1.0 peers=1: assign bb6de97d80b7e565 reps 7f8c91510ab7f281 rounds 3 F 3fb83505452b57d7 msgs 0",
	"PK-means Wikipedia k=4 f=1.0 peers=3: assign bb6de97d80b7e565 reps bd85ecd063984588 rounds 3 F 3fb83505452b57d7 msgs 18",
	"PK-means Wikipedia k=16 f=0.0 peers=1: assign e6d756e47240276f reps a92df079b7597133 rounds 6 F 3fe32e12392948c7 msgs 0",
	"PK-means Wikipedia k=16 f=0.0 peers=3: assign f44bda82f89fc71f reps 068c474fa668c732 rounds 7 F 3fe0c7569d340c07 msgs 42",
	"PK-means Wikipedia k=16 f=0.5 peers=1: assign 03f337f363be5b95 reps e2f8fd78f6a7364b rounds 5 F 3fe35e72b87efa7f msgs 0",
	"PK-means Wikipedia k=16 f=0.5 peers=3: assign 4482f020b8a764d5 reps 1799c483f7dadf6e rounds 5 F 3fe11b373ef5ed92 msgs 30",
	"PK-means Wikipedia k=16 f=1.0 peers=1: assign bb6de97d80b7e565 reps f398edd74c4ee2bc rounds 3 F 3fb83505452b57d7 msgs 0",
	"PK-means Wikipedia k=16 f=1.0 peers=3: assign bb6de97d80b7e565 reps e1a1a2dde8c43b39 rounds 3 F 3fb83505452b57d7 msgs 18",
}

// pinnedDocs sizes each generator so that the 96 jobs stay within a few
// seconds: a few dozen transactions for the record-shaped collections, a few
// documents for the two whose documents are large.
var pinnedDocs = map[string]int{"DBLP": 80, "IEEE": 4, "Shakespeare": 3, "Wikipedia": 50}

// TestClusteringPinned closes the gap TestRoundsTierMatrix leaves open: that
// test holds the fast engine to the reference engine, but both rank and
// conflate through the same code, so a ranking change that moved a bit would
// pass it. Here whole jobs — CXK-means and PK-means × the four generators ×
// k ∈ {4, 16} × f ∈ {0, 0.5, 1} × 1 and 3 in-process peers, each on a corpus
// of its own — must reproduce a table recorded at an earlier commit line for
// line. A PK-means line also pins the message count, which moves with the
// baseline's exchange pattern.
func TestClusteringPinned(t *testing.T) {
	var got []string
	for _, alg := range []Algorithm{CXKMeans, PKMeans} {
		for _, name := range dataset.Names() {
			gen, _ := dataset.ByName(name)
			col := gen(dataset.Spec{Docs: pinnedDocs[name], Seed: 29})
			for _, k := range []int{4, 16} {
				for _, f := range []float64{0, 0.5, 1} {
					for _, peers := range []int{1, 3} {
						corpus := col.BuildCorpus(dataset.ByHybrid, 8, 1)
						res, err := freshEngine(t, corpus).Cluster(context.Background(), ClusterOptions{
							K: k, F: f, Gamma: 0.7, Peers: peers, Workers: 1, Seed: 5, MaxRounds: 6, Algorithm: alg,
						})
						if err != nil {
							t.Fatal(err)
						}
						h := fnv.Offset
						for _, a := range res.Assign {
							h = fnv.Mix(h, uint64(a))
						}
						fm := Evaluate(Labels(corpus), res.Assign, k).FMeasure
						line := fmt.Sprintf("%s k=%d f=%.1f peers=%d: assign %016x reps %016x rounds %d F %016x",
							name, k, f, peers, h, RepsDigest(corpus, res.Reps), res.Rounds, math.Float64bits(fm))
						if alg == PKMeans {
							line = fmt.Sprintf("PK-means %s msgs %d", line, res.TrafficMsgs)
						}
						got = append(got, line)
					}
				}
			}
		}
	}
	for i, line := range got {
		t.Log(line)
		if i >= len(pinnedClusterings) || pinnedClusterings[i] != line {
			want := "(none)"
			if i < len(pinnedClusterings) {
				want = pinnedClusterings[i]
			}
			t.Errorf("configuration %d moved:\n got  %s\n want %s", i, line, want)
		}
	}
	if len(got) != len(pinnedClusterings) {
		t.Errorf("%d configurations, table has %d", len(got), len(pinnedClusterings))
	}
}

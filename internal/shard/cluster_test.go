package shard

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"netclus/internal/core"
	"netclus/internal/csr"
	"netclus/internal/lbound"
	"netclus/internal/matrix"
	"netclus/internal/network"
	"netclus/internal/storage"
	"netclus/internal/testnet"
)

// TestShardParallelClusterEquivalence drives the shard-local sweep hard:
// DBSCAN and ε-Link on partitioned and adversarially scattered sets, worker
// counts past the shard count, against the sequential generic run on the
// pointer network. The shard-local locality proof (no boundary settle ⇒
// exact neighbourhood) and the serial escalation tail must be invisible in
// the labels.
func TestShardParallelClusterEquivalence(t *testing.T) {
	ctx := context.Background()
	g := testNetwork(t, 21, 80, 260)
	wantDB, err := core.DBSCANCtx(ctx, g, core.DBSCANOptions{Eps: 0.5, MinPts: 3})
	if err != nil {
		t.Fatal(err)
	}
	wantEL, err := core.EpsLinkCtx(ctx, g, core.EpsLinkOptions{Eps: 0.5, MinSup: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{1, 2, 4} {
		for ai, assign := range assignments(t, g, k, 210+int64(k)) {
			set, err := Build(g, assign, k)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{0, 1, 2, 6} {
				db, err := core.DBSCANCtx(ctx, set, core.DBSCANOptions{Eps: 0.5, MinPts: 3, Workers: workers})
				if err != nil {
					t.Fatalf("k=%d assign=%d workers=%d: DBSCAN: %v", k, ai, workers, err)
				}
				if !reflect.DeepEqual(wantDB.Labels, db.Labels) || !reflect.DeepEqual(wantDB.Core, db.Core) ||
					wantDB.NumClusters != db.NumClusters {
					t.Fatalf("k=%d assign=%d workers=%d: shard DBSCAN diverged from sequential network run", k, ai, workers)
				}
				el, err := core.EpsLinkCtx(ctx, set, core.EpsLinkOptions{Eps: 0.5, MinSup: 2, Workers: workers})
				if err != nil {
					t.Fatalf("k=%d assign=%d workers=%d: EpsLink: %v", k, ai, workers, err)
				}
				if !reflect.DeepEqual(wantEL.Labels, el.Labels) || wantEL.NumClusters != el.NumClusters {
					t.Fatalf("k=%d assign=%d workers=%d: shard EpsLink diverged from sequential network run", k, ai, workers)
				}
			}
		}
	}
}

// TestShardParallelPrunedEquivalence runs pruned DBSCAN on the set — the
// sequential filter-and-refine expansion over the scatter-gather executor:
// a landmark bounder built over the compiled snapshot prunes by the same
// global point IDs the set serves, so the labels must not move and the
// bounder must actually be consulted.
func TestShardParallelPrunedEquivalence(t *testing.T) {
	ctx := context.Background()
	// testnet graphs keep edge weights above the straight-line endpoint
	// distance, so the Euclidean candidate filter — the path that actually
	// exercises filter-and-refine — is available; testNetwork's random
	// weights would silently fall back to the plain expansion.
	g, err := testnet.Random(25, 70, 160)
	if err != nil {
		t.Fatal(err)
	}
	sn, err := csr.Compile(g)
	if err != nil {
		t.Fatal(err)
	}
	b, err := lbound.Build(sn, lbound.Options{Landmarks: 4, EuclideanLB: true})
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.DBSCANCtx(ctx, g, core.DBSCANOptions{Eps: 0.5, MinPts: 3})
	if err != nil {
		t.Fatal(err)
	}
	for ai, assign := range assignments(t, g, 3, 220) {
		set, err := Build(g, assign, 3)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 4} {
			got, err := core.DBSCANCtx(ctx, set, core.DBSCANOptions{Eps: 0.5, MinPts: 3, Workers: workers, Prune: b})
			if err != nil {
				t.Fatalf("assign=%d workers=%d: %v", ai, workers, err)
			}
			if !reflect.DeepEqual(want.Labels, got.Labels) || !reflect.DeepEqual(want.Core, got.Core) {
				t.Fatalf("assign=%d workers=%d: pruned shard DBSCAN diverged from plain run", ai, workers)
			}
			if got.Stats.Prune.Candidates == 0 {
				t.Fatalf("assign=%d workers=%d: pruned shard DBSCAN never used the bounder", ai, workers)
			}
		}
	}
}

// TestShardCoreFlagEscalation checks the core-flag pass at the kernel level
// against brute-force counting, across minPts thresholds that force both
// early exits and boundary escalations on heavily scattered shards.
func TestShardCoreFlagEscalation(t *testing.T) {
	ctx := context.Background()
	g := testNetwork(t, 23, 60, 180)
	rng := rand.New(rand.NewSource(230))
	set, err := Build(g, randomAssign(rng, g.NumNodes(), 4), 4)
	if err != nil {
		t.Fatal(err)
	}
	n := g.NumPoints()
	ref := network.NewRangeScratch(g)
	for _, eps := range []float64{0.2, 0.6} {
		for _, minPts := range []int{1, 3, 8} {
			want := make([]bool, n)
			for p := 0; p < n; p++ {
				nb, err := ref.RangeQueryCtx(ctx, g, network.PointID(p), eps)
				if err != nil {
					t.Fatal(err)
				}
				want[p] = len(nb) >= minPts
			}
			for _, stripes := range []int{1, 3} {
				got := make([]bool, n)
				if _, err := set.CoreFlags(ctx, eps, minPts, stripes, got); err != nil {
					t.Fatalf("eps=%v minPts=%d stripes=%d: %v", eps, minPts, stripes, err)
				}
				if !reflect.DeepEqual(want, got) {
					t.Fatalf("eps=%v minPts=%d stripes=%d: shard core flags differ from brute force", eps, minPts, stripes)
				}
			}
		}
	}
}

// instances returns the graph zoo of the kernel-level tests: a random
// sparse road-like network (with coords), a clustered instance, and a line
// graph with unit edge weights whose equidistant points exercise ties.
func instances(t *testing.T) map[string]*network.Network {
	t.Helper()
	out := make(map[string]*network.Network)
	g, err := testnet.Random(7, 40, 90)
	if err != nil {
		t.Fatal(err)
	}
	out["random"] = g
	g, _, err = testnet.RandomClustered(11, 60, 120, 4)
	if err != nil {
		t.Fatal(err)
	}
	out["clustered"] = g
	g, err = testnet.Line(40, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	out["line"] = g
	return out
}

// partitioned builds g's set over the real partitioner's K-way split.
func partitioned(t testing.TB, g network.Graph, k int) *Set {
	t.Helper()
	assign, err := PartitionNodes(g, k)
	if err != nil {
		t.Fatal(err)
	}
	set, err := Build(g, assign, k)
	if err != nil {
		t.Fatal(err)
	}
	return set
}

// TestCoreFlagsMatchesBruteForce checks the early-exiting core-flag pass of
// 2- and 4-shard sets against neighbourhood counting over the all-pairs
// point distance matrix, for a spread of (eps, minPts) including
// thresholds right at and past the neighbourhood sizes.
func TestCoreFlagsMatchesBruteForce(t *testing.T) {
	ctx := context.Background()
	for name, g := range instances(t) {
		t.Run(name, func(t *testing.T) {
			dist, err := matrix.PointDistances(g)
			if err != nil {
				t.Fatal(err)
			}
			n := g.NumPoints()
			for _, k := range []int{2, 4} {
				set := partitioned(t, g, k)
				for _, eps := range []float64{0.3, 1.2} {
					for _, minPts := range []int{1, 2, 4, 9} {
						want := make([]bool, n)
						for p, row := range dist {
							cnt := 0
							for _, d := range row {
								if d <= eps {
									cnt++
								}
							}
							want[p] = cnt >= minPts
						}
						for _, stripes := range []int{1, 3} {
							got := make([]bool, n)
							if _, err := set.CoreFlags(ctx, eps, minPts, stripes, got); err != nil {
								t.Fatalf("k=%d eps=%v minPts=%d stripes=%d: %v", k, eps, minPts, stripes, err)
							}
							if !reflect.DeepEqual(want, got) {
								t.Fatalf("k=%d eps=%v minPts=%d stripes=%d: core flags differ", k, eps, minPts, stripes)
							}
						}
					}
				}
			}
		})
	}
}

// FuzzParallelDBSCAN derives (network seed, eps, minPts, workers) from the
// fuzz input and checks DBSCAN on 2- and 4-shard sets — the shard-local
// sweep at every Workers value, 0 included — against the sequential run on
// the source network.
func FuzzParallelDBSCAN(f *testing.F) {
	f.Add(int64(1), float64(0.8), uint8(3), uint8(2))
	f.Add(int64(7), float64(1.5), uint8(1), uint8(4))
	f.Add(int64(42), float64(0.2), uint8(9), uint8(0))
	f.Fuzz(func(t *testing.T, seed int64, eps float64, minPts, workers uint8) {
		if !(eps > 0) || eps > 1e6 {
			t.Skip()
		}
		g, err := testnet.Random(seed%64, 25, 60)
		if err != nil {
			t.Skip()
		}
		ctx := context.Background()
		opts := core.DBSCANOptions{Eps: eps, MinPts: int(minPts)%9 + 1}
		want, err := core.DBSCANCtx(ctx, g, opts)
		if err != nil {
			t.Fatal(err)
		}
		opts.Workers = int(workers) % 6
		for _, k := range []int{2, 4} {
			got, err := core.DBSCANCtx(ctx, partitioned(t, g, k), opts)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(want.Labels, got.Labels) || !reflect.DeepEqual(want.Core, got.Core) ||
				want.NumClusters != got.NumClusters {
				t.Fatalf("seed=%d eps=%v minPts=%d workers=%d k=%d: shard DBSCAN diverged",
					seed, eps, opts.MinPts, opts.Workers, k)
			}
		}
	})
}

// TestClusterDispatchByteIdentical pins the one-path-per-backend dispatch
// over the graph zoo: DBSCAN (with and without Prune) and ε-Link produce
// byte-identical results at every Workers value on the memory network, the
// disk store, the memory- and store-compiled snapshots and 1-, 2- and
// 4-shard sets. Unpruned DBSCAN on a set must take the shard-local sweep
// even at Workers=0, which the executor's global query counter shows: the
// sequential expansion runs every range query through the executor, the
// sweep only the ones its shard-local runs could not prove.
func TestClusterDispatchByteIdentical(t *testing.T) {
	ctx := context.Background()
	for name, g := range instances(t) {
		t.Run(name, func(t *testing.T) {
			bounds, err := lbound.Build(g, lbound.Options{Landmarks: 4, EuclideanLB: true})
			if err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			stOpts := storage.Options{PageSize: 512, BufferBytes: 1 << 16}
			if err := storage.Build(dir, g, stOpts); err != nil {
				t.Fatal(err)
			}
			st, err := storage.Open(dir, stOpts)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { st.Close() })
			backends := map[string]network.Graph{"memory": g, "store": st}
			for bk, src := range map[string]network.Graph{"csr": g, "csr-store": st} {
				sn, err := csr.Compile(src)
				if err != nil {
					t.Fatal(err)
				}
				backends[bk] = sn
			}
			for _, k := range []int{1, 2, 4} {
				backends[fmt.Sprintf("shard%d", k)] = partitioned(t, g, k)
			}

			const eps = 1.2
			wantDB, err := core.DBSCANCtx(ctx, g, core.DBSCANOptions{Eps: eps, MinPts: 3})
			if err != nil {
				t.Fatal(err)
			}
			wantEL, err := core.EpsLinkCtx(ctx, g, core.EpsLinkOptions{Eps: eps, MinSup: 2})
			if err != nil {
				t.Fatal(err)
			}
			for bk, b := range backends {
				for _, workers := range []int{0, 1, 2, 4} {
					for _, prune := range []network.Bounder{nil, bounds} {
						set, sharded := b.(*Set)
						var before int64
						if sharded {
							before = set.Counters().Queries
						}
						db, err := core.DBSCANCtx(ctx, b, core.DBSCANOptions{Eps: eps, MinPts: 3, Workers: workers, Prune: prune})
						if err != nil {
							t.Fatalf("%s workers=%d prune=%v: DBSCAN: %v", bk, workers, prune != nil, err)
						}
						if !reflect.DeepEqual(wantDB.Labels, db.Labels) || !reflect.DeepEqual(wantDB.Core, db.Core) ||
							wantDB.NumClusters != db.NumClusters || wantDB.CorePoints != db.CorePoints {
							t.Fatalf("%s workers=%d prune=%v: DBSCAN diverged from the sequential memory run", bk, workers, prune != nil)
						}
						if prune != nil && db.Stats.Prune.Candidates == 0 {
							t.Fatalf("%s workers=%d: pruned DBSCAN never used the bounder", bk, workers)
						}
						if sharded && prune == nil && workers == 0 {
							if global := set.Counters().Queries - before; global >= int64(db.Stats.RangeQueries) {
								t.Fatalf("%s workers=0: all %d range queries went through the global executor; the shard-local sweep did not run",
									bk, global)
							}
						}
					}
					el, err := core.EpsLinkCtx(ctx, b, core.EpsLinkOptions{Eps: eps, MinSup: 2, Workers: workers})
					if err != nil {
						t.Fatalf("%s workers=%d: EpsLink: %v", bk, workers, err)
					}
					if !reflect.DeepEqual(wantEL.Labels, el.Labels) || wantEL.NumClusters != el.NumClusters ||
						wantEL.ClustersFound != el.ClustersFound {
						t.Fatalf("%s workers=%d: EpsLink diverged from the sequential memory run", bk, workers)
					}
				}
			}
		})
	}
}

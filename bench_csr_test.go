// BenchmarkCSRSuite records the compiled-kernel trajectory into
// BENCH_csr.json: ε-range batches (narrow and wide), kNN (lone, batched SoA
// sweep), DBSCAN and k-medoids (incremental and recompute) on the same
// workload over three backends — the compiled CSR snapshot, the pointer
// Network it was compiled from, and the warm disk Store — plus the
// worker-fanned legs of the CSR-only batched kernels. Run it
// with
//
//	go test -run '^$' -bench CSRSuite -benchtime 1x .
//
// for a smoke pass (CI does) or with a larger -benchtime for stable numbers.
// Every backend's labels are asserted byte-identical before timing, so the
// perf harness doubles as an end-to-end kernel-equivalence check. The report
// carries the snapshot's one-shot compile time and resident bytes next to
// the min-of-N wall times; each entry records the GOMAXPROCS it ran under,
// and every csr/* workload gets a speedup over its pointer-Network baseline
// (parallel and batched variants are scored against the plain baseline of
// the same operator).
package netclus_test

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"netclus"
)

var (
	benchCSRMu      sync.Mutex
	benchCSRResults = map[string]benchCSREntry{}
)

type benchCSREntry struct {
	NsPerOp float64 `json:"ns_per_op"`
	Iters   int     `json:"iters"`
	// GOMAXPROCS is recorded per entry: parallel legs are meaningless
	// without the processor count they actually ran under.
	GOMAXPROCS int `json:"gomaxprocs"`
}

type benchCSRReport struct {
	GoVersion  string                   `json:"go_version"`
	GOMAXPROCS int                      `json:"gomaxprocs"`
	Scale      float64                  `json:"scale"`
	Nodes      int                      `json:"nodes"`
	Points     int                      `json:"points"`
	CSR        netclus.CSRStats         `json:"csr"`
	Results    map[string]benchCSREntry `json:"results"`
	// SpeedupVsNetwork is min-of-N network time / min-of-N csr time per
	// workload, precomputed so the report reads standalone. Keys are the
	// csr/* workload suffixes; each resolves its network baseline by
	// stripping the worker leg and then trailing -variant segments
	// (knn-batch/workers=2 scores against network/knn).
	SpeedupVsNetwork map[string]float64 `json:"speedup_vs_network"`
}

func recordBenchCSR(b *testing.B, name string, nsPerOp float64) {
	b.Helper()
	benchCSRMu.Lock()
	benchCSRResults[name] = benchCSREntry{NsPerOp: nsPerOp, Iters: b.N, GOMAXPROCS: runtime.GOMAXPROCS(0)}
	benchCSRMu.Unlock()
}

// csrSpeedups derives the speedup map from the recorded entries: every
// csr/<workload> entry is scored against network/<base>, where <base> is the
// workload with any /workers=N leg stripped and then trailing -variant
// segments removed until a network entry exists. No hardcoded workload list:
// a new csr/* leg with a network baseline scores automatically.
func csrSpeedups(results map[string]benchCSREntry) map[string]float64 {
	out := map[string]float64{}
	for name, e := range results {
		suffix, ok := strings.CutPrefix(name, "csr/")
		if !ok || e.NsPerOp <= 0 {
			continue
		}
		base := suffix
		if i := strings.Index(base, "/"); i >= 0 {
			base = base[:i]
		}
		for {
			if net, ok := results["network/"+base]; ok {
				out[suffix] = net.NsPerOp / e.NsPerOp
				break
			}
			i := strings.LastIndex(base, "-")
			if i < 0 {
				break
			}
			base = base[:i]
		}
	}
	return out
}

func BenchmarkCSRSuite(b *testing.B) {
	ctx := context.Background()
	scale := benchScale()
	g, gen, err := netclus.RoadDataset("OL", scale, 10)
	if err != nil {
		b.Fatal(err)
	}
	sn, err := netclus.Compile(g)
	if err != nil {
		b.Fatal(err)
	}
	dir := b.TempDir()
	if err := netclus.BuildStore(dir, g, netclus.StoreOptions{}); err != nil {
		b.Fatal(err)
	}
	// Warm store: default record caches, buffer big enough to hold the
	// working set, one full untimed sweep so timed runs never fault cold.
	st, err := netclus.OpenStore(dir, netclus.StoreOptions{PoolShards: 8, BufferBytes: 64 << 20})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { st.Close() })

	report := benchCSRReport{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Scale:      scale,
		Nodes:      g.NumNodes(),
		Points:     g.NumPoints(),
		CSR:        sn.Stats(),
		Results:    benchCSRResults,
	}
	b.Cleanup(func() {
		benchCSRMu.Lock()
		defer benchCSRMu.Unlock()
		if len(benchCSRResults) == 0 {
			return
		}
		report.SpeedupVsNetwork = csrSpeedups(benchCSRResults)
		writeBenchReport(b, "BENCH_csr.json", report)
	})

	backends := []struct {
		name string
		g    netclus.Graph
	}{
		{"csr", sn},
		{"network", g},
		{"store", st},
	}
	eps := gen.Eps()
	epsWide := eps * 16
	// ε-Link links at half the DBSCAN radius: at the full radius the run
	// degenerates to a handful of giant clusters found in about one network
	// traversal, where fixed per-run costs dominate both backends. Half the
	// radius is the fine-grained regime the algorithm targets (hundreds of
	// kept clusters after min_sup) and keeps the legs traversal-bound.
	epsEL := eps * 0.5
	rng := rand.New(rand.NewSource(1))
	probes := make([]netclus.PointID, 256)
	for i := range probes {
		probes[i] = netclus.PointID(rng.Intn(g.NumPoints()))
	}
	// Wide-range legs expand most of the network per query; a smaller probe
	// set keeps the suite's wall time in line with the narrow legs.
	wideProbes := probes[:32]

	// Label equivalence across all backends before any timing, both
	// k-medoids modes (the incremental default and the recompute ablation
	// both ride the Δ-stepping expansion on snapshots).
	var wantDB, wantKM, wantMP, wantEL []int32
	for _, bk := range backends {
		db, err := netclus.DBSCANCtx(ctx, bk.g, netclus.DBSCANOptions{Eps: eps, MinPts: 3})
		if err != nil {
			b.Fatal(err)
		}
		km, err := netclus.KMedoidsCtx(ctx, bk.g, netclus.KMedoidsOptions{K: 10})
		if err != nil {
			b.Fatal(err)
		}
		mp, err := netclus.KMedoidsCtx(ctx, bk.g, netclus.KMedoidsOptions{K: 10, Recompute: true})
		if err != nil {
			b.Fatal(err)
		}
		el, err := netclus.EpsLinkCtx(ctx, bk.g, netclus.EpsLinkOptions{Eps: epsEL, MinSup: 3})
		if err != nil {
			b.Fatal(err)
		}
		if bk.name == "csr" {
			wantDB, wantKM, wantMP, wantEL = db.Labels, km.Labels, mp.Labels, el.Labels
			continue
		}
		if !reflect.DeepEqual(wantDB, db.Labels) || !reflect.DeepEqual(wantKM, km.Labels) ||
			!reflect.DeepEqual(wantMP, mp.Labels) || !reflect.DeepEqual(wantEL, el.Labels) {
			b.Fatalf("backend %s: labels differ from csr", bk.name)
		}
	}
	for _, bk := range backends {
		bk := bk
		b.Run(bk.name+"/range", func(b *testing.B) {
			sc := netclus.ScratchFor(bk.g)
			minNs := minIter(b, func() {
				for _, p := range probes {
					if _, err := sc.RangeQueryCtx(ctx, bk.g, p, eps); err != nil {
						b.Fatal(err)
					}
				}
			})
			recordBenchCSR(b, bk.name+"/range", minNs)
		})
		b.Run(bk.name+"/range-wide", func(b *testing.B) {
			sc := netclus.ScratchFor(bk.g)
			minNs := minIter(b, func() {
				for _, p := range wideProbes {
					if _, err := sc.RangeQueryDistCtx(ctx, bk.g, p, epsWide); err != nil {
						b.Fatal(err)
					}
				}
			})
			recordBenchCSR(b, bk.name+"/range-wide", minNs)
		})
		b.Run(bk.name+"/knn", func(b *testing.B) {
			minNs := minIter(b, func() {
				for _, p := range probes {
					if _, err := netclus.KNearestNeighborsCtx(ctx, bk.g, p, 10); err != nil {
						b.Fatal(err)
					}
				}
			})
			recordBenchCSR(b, bk.name+"/knn", minNs)
		})
		b.Run(bk.name+"/dbscan", func(b *testing.B) {
			minNs := minIter(b, func() {
				if _, err := netclus.DBSCANCtx(ctx, bk.g, netclus.DBSCANOptions{Eps: eps, MinPts: 3}); err != nil {
					b.Fatal(err)
				}
			})
			recordBenchCSR(b, bk.name+"/dbscan", minNs)
		})
		b.Run(bk.name+"/epslink", func(b *testing.B) {
			minNs := minIter(b, func() {
				if _, err := netclus.EpsLinkCtx(ctx, bk.g, netclus.EpsLinkOptions{Eps: epsEL, MinSup: 3}); err != nil {
					b.Fatal(err)
				}
			})
			recordBenchCSR(b, bk.name+"/epslink", minNs)
		})
		b.Run(bk.name+"/kmedoids", func(b *testing.B) {
			minNs := minIter(b, func() {
				if _, err := netclus.KMedoidsCtx(ctx, bk.g, netclus.KMedoidsOptions{K: 10}); err != nil {
					b.Fatal(err)
				}
			})
			recordBenchCSR(b, bk.name+"/kmedoids", minNs)
		})
		b.Run(bk.name+"/kmedoids-mp", func(b *testing.B) {
			minNs := minIter(b, func() {
				if _, err := netclus.KMedoidsCtx(ctx, bk.g, netclus.KMedoidsOptions{K: 10, Recompute: true}); err != nil {
					b.Fatal(err)
				}
			})
			recordBenchCSR(b, bk.name+"/kmedoids-mp", minNs)
		})
	}

	// CSR-only kernels: the batched multi-source range mode and the batched
	// SoA kNN sweep, each at worker counts 1/2/4 so the report shows the
	// parallel trajectory even when GOMAXPROCS caps the realized speedup.
	for _, workers := range []int{1, 2, 4} {
		workers := workers
		b.Run(fmt.Sprintf("csr/range-each/workers=%d", workers), func(b *testing.B) {
			minNs := minIter(b, func() {
				err := sn.RangeEach(ctx, probes, eps, workers,
					func(int, netclus.PointID, []netclus.PointID, []float64) error { return nil })
				if err != nil {
					b.Fatal(err)
				}
			})
			recordBenchCSR(b, fmt.Sprintf("csr/range-each/workers=%d", workers), minNs)
		})
		b.Run(fmt.Sprintf("csr/knn-batch/workers=%d", workers), func(b *testing.B) {
			kb := sn.NewKNNBatch()
			minNs := minIter(b, func() {
				kb.Reset()
				for _, p := range probes {
					kb.Add(p, 10)
				}
				if err := kb.Run(ctx, workers); err != nil {
					b.Fatal(err)
				}
			})
			recordBenchCSR(b, fmt.Sprintf("csr/knn-batch/workers=%d", workers), minNs)
		})
	}
}

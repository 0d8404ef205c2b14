// Workers-sweep tests for clustering on the compiled snapshot: DBSCAN and
// ε-Link run one sequential path on a Snapshot whatever Workers says, so the
// labels at every worker count must be byte-identical to the sequential
// generic run on the pointer network.
package csr_test

import (
	"context"
	"reflect"
	"testing"

	"netclus/internal/core"
	"netclus/internal/lbound"
	"netclus/internal/network"
	"netclus/internal/testnet"
)

// TestParallelEngineByteIdentical sweeps DBSCAN and ε-Link over the graph
// zoo: the snapshot run at every worker count must reproduce the sequential
// generic run on the pointer network exactly — labels, core flags, cluster
// counts — on both the memory-compiled and the store-compiled snapshot.
func TestParallelEngineByteIdentical(t *testing.T) {
	ctx := context.Background()
	for name, g := range instances(t) {
		t.Run(name, func(t *testing.T) {
			backends := map[string]network.Graph{
				"mem":   compile(t, g),
				"store": storeCompile(t, g),
			}
			wantDB, err := core.DBSCANCtx(ctx, g, core.DBSCANOptions{Eps: 1.2, MinPts: 3})
			if err != nil {
				t.Fatal(err)
			}
			wantEL, err := core.EpsLinkCtx(ctx, g, core.EpsLinkOptions{Eps: 1.2, MinSup: 2})
			if err != nil {
				t.Fatal(err)
			}
			for bk, b := range backends {
				for _, workers := range []int{0, 1, 2, 4} {
					db, err := core.DBSCANCtx(ctx, b, core.DBSCANOptions{Eps: 1.2, MinPts: 3, Workers: workers})
					if err != nil {
						t.Fatalf("%s workers=%d: DBSCAN: %v", bk, workers, err)
					}
					if !reflect.DeepEqual(wantDB.Labels, db.Labels) || !reflect.DeepEqual(wantDB.Core, db.Core) ||
						wantDB.NumClusters != db.NumClusters || wantDB.CorePoints != db.CorePoints {
						t.Fatalf("%s workers=%d: DBSCAN diverged from sequential network run", bk, workers)
					}
					el, err := core.EpsLinkCtx(ctx, b, core.EpsLinkOptions{Eps: 1.2, MinSup: 2, Workers: workers})
					if err != nil {
						t.Fatalf("%s workers=%d: EpsLink: %v", bk, workers, err)
					}
					if !reflect.DeepEqual(wantEL.Labels, el.Labels) || wantEL.NumClusters != el.NumClusters ||
						wantEL.ClustersFound != el.ClustersFound {
						t.Fatalf("%s workers=%d: EpsLink diverged from sequential network run", bk, workers)
					}
				}
			}
		})
	}
}

// TestParallelEnginePrunedByteIdentical runs filter-and-refine DBSCAN on the
// snapshot with a landmark bounder installed: at every worker count the
// labels must not move, and the bounder must actually be consulted.
func TestParallelEnginePrunedByteIdentical(t *testing.T) {
	ctx := context.Background()
	g, err := testnet.Random(7, 40, 90)
	if err != nil {
		t.Fatal(err)
	}
	sn := compile(t, g)
	b, err := lbound.Build(sn, lbound.Options{Landmarks: 4, EuclideanLB: true})
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.DBSCANCtx(ctx, g, core.DBSCANOptions{Eps: 1.2, MinPts: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 1, 4} {
		got, err := core.DBSCANCtx(ctx, sn, core.DBSCANOptions{Eps: 1.2, MinPts: 3, Workers: workers, Prune: b})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(want.Labels, got.Labels) || !reflect.DeepEqual(want.Core, got.Core) {
			t.Fatalf("workers=%d: pruned DBSCAN on the snapshot diverged from plain run", workers)
		}
		if got.Stats.Prune.Candidates == 0 {
			t.Fatalf("workers=%d: pruned DBSCAN on the snapshot never used the bounder", workers)
		}
	}
}

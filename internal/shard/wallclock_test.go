package shard

import (
	"context"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"time"

	"netclus/internal/core"
	"netclus/internal/datagen"
	"netclus/internal/network"
)

// sequentialSet exposes only a set's Graph surface and its executor scratch,
// hiding the shard-local sweep (network.ClusterKernel): core.DBSCANCtx then
// runs the sequential expansion over the same scatter-gather executor.
type sequentialSet struct {
	network.Graph
	set *Set
}

func (s sequentialSet) NewRangeScratch() network.RangeQuerier { return s.set.NewRangeScratch() }

// sweepWallClockRuns is the number of timed runs per path; the gate
// compares medians.
const sweepWallClockRuns = 7

// TestShardSweepBeatsSequential is the wall-clock gate that keeps the
// shard-local DBSCAN sweep: on a 2-shard TG set it must beat the sequential
// expansion over the same set by at least 1.2× in the median of
// sweepWallClockRuns interleaved runs, at the GOMAXPROCS the test runs
// under and with the default Workers (0, one stripe). The labels of both
// paths are asserted identical first.
func TestShardSweepBeatsSequential(t *testing.T) {
	ctx := context.Background()
	g, cfg, err := datagen.RoadDataset("TG", 0.5, 10)
	if err != nil {
		t.Fatal(err)
	}
	set := partitioned(t, g, 2)
	seq := sequentialSet{Graph: set, set: set}
	opts := core.DBSCANOptions{Eps: cfg.Eps(), MinPts: 3}

	run := func(g network.Graph) (*core.DBSCANResult, time.Duration) {
		t0 := time.Now()
		res, err := core.DBSCANCtx(ctx, g, opts)
		if err != nil {
			t.Fatal(err)
		}
		return res, time.Since(t0)
	}
	want, _ := run(seq)
	before := set.Counters().Queries
	got, _ := run(set)
	if global := set.Counters().Queries - before; global >= int64(g.NumPoints()) {
		t.Fatalf("%d global executor queries for %d points: the shard-local sweep did not run", global, g.NumPoints())
	}
	if !reflect.DeepEqual(want.Labels, got.Labels) || !reflect.DeepEqual(want.Core, got.Core) {
		t.Fatal("shard sweep labels differ from the sequential expansion over the same set")
	}
	var seqNs, sweepNs []time.Duration
	for i := 0; i < sweepWallClockRuns; i++ {
		_, d := run(seq)
		seqNs = append(seqNs, d)
		_, d = run(set)
		sweepNs = append(sweepNs, d)
	}
	median := func(ds []time.Duration) time.Duration {
		slices.Sort(ds)
		return ds[len(ds)/2]
	}
	ratio := float64(median(seqNs)) / float64(median(sweepNs))
	t.Logf("GOMAXPROCS=%d points=%d: sequential median %v, shard sweep median %v, ratio %.2fx",
		runtime.GOMAXPROCS(0), g.NumPoints(), median(seqNs), median(sweepNs), ratio)
	if ratio < 1.2 {
		t.Fatalf("shard sweep is %.2fx the sequential expansion over the same set, want >= 1.2x", ratio)
	}
}

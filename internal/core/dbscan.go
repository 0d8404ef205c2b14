package core

import (
	"context"
	"fmt"

	"netclus/internal/network"
)

// DBSCANOptions configures the network adaptation of DBSCAN (§4.3): the
// classical algorithm with Euclidean range queries replaced by network
// ε-range queries (expansion of the network around the query point).
type DBSCANOptions struct {
	// Eps is the neighbourhood radius (network distance).
	Eps float64
	// MinPts is the density threshold: a point is a core point when its
	// ε-neighbourhood (itself included) holds at least MinPts points. The
	// paper's experiments use MinPts = 3.
	MinPts int
	// Workers sets the stripe count of the shard-local sweep on graphs that
	// have one (network.ClusterKernel, the sharded set): the two passes run
	// in Workers stripes clamped to [1, number of shards]. Every other graph
	// — and every run with Prune set — runs the sequential expansion, and
	// Workers has no effect there. Labels are identical either way.
	Workers int
	// Prune, when non-nil, runs every ε-range query through the
	// filter-and-refine path (see network.RangeScratch.SetBounder). Labels
	// are identical either way; Stats.Prune reports the saved work.
	Prune network.Bounder
}

// DBSCANResult is the outcome of one DBSCAN run.
type DBSCANResult struct {
	// Labels holds a cluster index per point, Noise for noise points.
	Labels []int32
	// NumClusters counts the discovered clusters.
	NumClusters int
	// CorePoints counts points that met the density threshold.
	CorePoints int
	// Core flags the points that met the density threshold. Border points
	// (non-core members of a cluster) may legally join any adjacent
	// cluster, so equality checks across implementations should compare
	// core points only.
	Core []bool
	// Stats aggregates traversal work; RangeQueries is the number of
	// ε-range queries issued (one per point, the reason the paper finds
	// DBSCAN slower than ε-Link despite identical output).
	Stats Stats
}

// DBSCAN clusters the points with the density-based paradigm: every
// unvisited point is probed with a network ε-range query; core points start
// or extend clusters, density-reachable points join them, the rest is noise.
// With MinPts = 2 its output matches EpsLink (modulo min_sup filtering);
// with larger MinPts it is more robust to noise but issues many more range
// queries, which is what Table 2 measures.
func DBSCAN(g network.Graph, opts DBSCANOptions) (*DBSCANResult, error) {
	return DBSCANCtx(context.Background(), g, opts)
}

// DBSCANCtx is DBSCAN with cancellation: the range queries check ctx
// periodically and the run returns an error wrapping ctx.Err() when it is
// done.
func DBSCANCtx(ctx context.Context, g network.Graph, opts DBSCANOptions) (*DBSCANResult, error) {
	if !(opts.Eps > 0) {
		return nil, fmt.Errorf("%w: DBSCAN: Eps must be > 0 (got %v)", ErrInvalidOptions, opts.Eps)
	}
	if opts.MinPts < 1 {
		return nil, fmt.Errorf("%w: DBSCAN: MinPts must be >= 1 (got %d)", ErrInvalidOptions, opts.MinPts)
	}
	// A graph with a shard-local sweep runs it unless a Bounder is given;
	// everything else runs the sequential expansion below. Both produce
	// identical labels.
	if ck, ok := g.(network.ClusterKernel); ok && opts.Prune == nil {
		return dbscanKernel(ctx, g, ck, opts)
	}
	n := g.NumPoints()
	res := &DBSCANResult{Labels: make([]int32, n), Core: make([]bool, n)}
	const unvisited = int32(-2)
	labels := res.Labels
	for i := range labels {
		labels[i] = unvisited
	}
	scratch := network.ScratchFor(g)
	scratch.SetBounder(opts.Prune)
	defer func() { res.Stats.Prune.Add(scratch.PruneStats()) }()
	var queue []network.PointID
	next := int32(0)
	for p := 0; p < n; p++ {
		if labels[p] != unvisited {
			continue
		}
		nb, err := scratch.RangeQueryCtx(ctx, g, network.PointID(p), opts.Eps)
		if err != nil {
			return nil, err
		}
		res.Stats.RangeQueries++
		if len(nb) < opts.MinPts {
			labels[p] = Noise
			continue
		}
		res.CorePoints++
		res.Core[p] = true
		c := next
		next++
		labels[p] = c
		queue = append(queue[:0], nb...)
		for len(queue) > 0 {
			q := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			if labels[q] == Noise {
				labels[q] = c // border point reclaimed from noise
				continue
			}
			if labels[q] != unvisited {
				continue
			}
			labels[q] = c
			qnb, err := scratch.RangeQueryCtx(ctx, g, q, opts.Eps)
			if err != nil {
				return nil, err
			}
			res.Stats.RangeQueries++
			if len(qnb) >= opts.MinPts {
				res.CorePoints++
				res.Core[q] = true
				queue = append(queue, qnb...)
			}
		}
	}
	res.NumClusters = int(next)
	return res, nil
}

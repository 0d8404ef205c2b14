package network

import (
	"context"

	"netclus/internal/unionfind"
)

// ClusterKernel is implemented by graphs with a native shard-local DBSCAN
// sweep (the sharded set): each shard sweeps the points it owns with its own
// compiled kernel and only the points whose ε-expansion may leave the shard
// escalate to a global query. core.DBSCANCtx runs it whenever no Bounder is
// given, at every Workers value: the passes run in Stripes(Workers)
// concurrent stripes, and the labels are identical to the sequential
// expansion (order-free unions, components labelled by ascending minimum
// member, borders adopting the minimum core-neighbour label).
type ClusterKernel interface {
	// Stripes returns the number of concurrent stripes the passes run for
	// a Workers request: workers clamped to [1, number of shards].
	Stripes(workers int) int

	// CoreFlags writes, for every point p, whether p's ε-neighbourhood
	// (p itself included) holds at least minPts points into core[p]
	// (len(core) == NumPoints()), sweeping in stripes concurrent stripes.
	// It returns the number of ε-expansions it ran.
	CoreFlags(ctx context.Context, eps float64, minPts, stripes int, core []bool) (int, error)

	// EpsUnions sweeps the core points in len(ufs) concurrent stripes and
	// records the core-core ε-graph: after the call, the transitive closure
	// of the unions across ufs (each pre-sized to NumPoints()) connects core
	// points p and q exactly when a chain of core points with consecutive
	// network distances <= eps links them. For every non-core point b
	// within eps of a core point c, border(w, b, c) is called from stripe w
	// — concurrently across stripes, sequentially within one — so the
	// caller can collect adoption candidates into per-stripe lists without
	// locking. It returns the number of ε-expansions it ran.
	EpsUnions(ctx context.Context, eps float64, core []bool, ufs []*unionfind.UF, border func(w int, b, c PointID)) (int, error)
}

// EpsLinkKernel is implemented by graphs with a native sequential ε-Link
// labeller (the compiled CSR snapshot's flat-array port of the paper's
// Fig. 6 traversal). EpsLinkLabels fills labels (len == NumPoints()) with a
// cluster index per point — clusters numbered by ascending smallest member,
// the order the sequential algorithm discovers them — and applies the
// min_sup post-filter in the same pass: clusters with fewer than minSup
// members are relabelled Noise (minSup <= 1 keeps all). It returns the
// number of clusters found before suppression and the number kept after.
// Since Fig. 6 grows one cluster at a time, the kernel counts each
// cluster's members as a scalar during the grow, so fusing the filter costs
// one pass over labels instead of the generic count-then-suppress-then-count
// epilogue. Labels must be identical to the generic Fig. 6 run followed by
// SuppressSmallClusters.
type EpsLinkKernel interface {
	EpsLinkLabels(ctx context.Context, eps float64, minSup int, labels []int32) (found, kept int, err error)
}

// RangeBatcher is implemented by graphs with a batched multi-source ε-range
// mode (the compiled CSR snapshot's RangeEach): one expansion per element of
// pts, fanned across workers, calling visit with each result. Result slices
// are scratch-owned and reused; visit runs concurrently across workers. The
// live delta maintainer dispatches its bulk neighbourhood scans through this
// when the frozen view is snapshot-backed.
type RangeBatcher interface {
	RangeEach(ctx context.Context, pts []PointID, eps float64, workers int, visit func(i int, p PointID, res []PointID, dists []float64) error) error
}

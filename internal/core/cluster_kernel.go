package core

import (
	"context"

	"netclus/internal/network"
	"netclus/internal/unionfind"
)

// This file drives DBSCAN through a graph's shard-local sweep
// (network.ClusterKernel — the sharded set implements it). The kernel
// supplies the two passes — core flags and core-core ε-graph unions — and
// this layer finishes the labelling with an order-free merge contract:
// union-find shards folded together, components labelled by ascending
// minimum member, borders adopting the minimum core-neighbour label. The
// labels are identical to the sequential expansion.

// borderEdge records that non-core point border lies in the ε-neighbourhood
// of core point core — a cluster-adoption candidate.
type borderEdge struct {
	border network.PointID
	core   network.PointID
}

// dbscanKernel labels via ck's CoreFlags + EpsUnions passes.
//
// The clusters are exactly the components of the core-core ε-graph. Cluster
// IDs go to components by ascending minimum core point — the order the
// sequential outer scan discovers them — and a border point joins the
// smallest cluster ID among its core neighbours, which is the cluster that
// would have reached it first sequentially (clusters expand to completion
// one at a time, in ID order).
func dbscanKernel(ctx context.Context, g network.Graph, ck network.ClusterKernel, opts DBSCANOptions) (*DBSCANResult, error) {
	n := g.NumPoints()
	res := &DBSCANResult{Labels: make([]int32, n), Core: make([]bool, n)}
	core := res.Core
	stripes := ck.Stripes(opts.Workers)
	q1, err := ck.CoreFlags(ctx, opts.Eps, opts.MinPts, stripes, core)
	if err != nil {
		return nil, err
	}
	ufs := make([]*unionfind.UF, stripes)
	for w := range ufs {
		ufs[w] = unionfind.New(n)
	}
	borders := make([][]borderEdge, stripes)
	q2, err := ck.EpsUnions(ctx, opts.Eps, core, ufs, func(w int, b, c network.PointID) {
		borders[w] = append(borders[w], borderEdge{border: b, core: c})
	})
	if err != nil {
		return nil, err
	}

	uf := mergeUnionFinds(ufs)
	next := labelComponents(uf, res.Labels, core)
	labels := res.Labels
	for _, bl := range borders {
		for _, be := range bl {
			c := labels[uf.Find(int(be.core))]
			if labels[be.border] == Noise || c < labels[be.border] {
				labels[be.border] = c
			}
		}
	}
	for _, flag := range core {
		if flag {
			res.CorePoints++
		}
	}
	res.NumClusters = int(next)
	res.Stats.RangeQueries = q1 + q2
	return res, nil
}

// mergeUnionFinds folds the stripe union-find shards into the first one and
// returns it: every element is unioned with its shard representative, so the
// result's components are the transitive closure of all shards' unions.
func mergeUnionFinds(ufs []*unionfind.UF) *unionfind.UF {
	for _, src := range ufs[1:] {
		src.MergeInto(ufs[0])
	}
	return ufs[0]
}

// labelComponents assigns cluster labels by ascending minimum member: it
// scans the points in ID order and gives each union-find root the next label
// on first sight — exactly the order in which the sequential algorithm
// discovers clusters. Points with include[p] false keep Noise. It returns
// the number of labels assigned.
func labelComponents(uf *unionfind.UF, labels []int32, include []bool) int32 {
	rootLab := make([]int32, len(labels))
	for i := range rootLab {
		rootLab[i] = Noise
	}
	next := int32(0)
	for p := range labels {
		labels[p] = Noise
		if !include[p] {
			continue
		}
		r := uf.Find(p)
		if rootLab[r] == Noise {
			rootLab[r] = next
			next++
		}
		labels[p] = rootLab[r]
	}
	return next
}

package shard

import (
	"context"
	"fmt"
	"sync"

	"netclus/internal/network"
	"netclus/internal/unionfind"
)

// This file implements the shard-local DBSCAN sweep (network.ClusterKernel).
// Each pass runs shard-local first: a shard sweeps the points it owns with
// its own compiled kernel under the boundary watch mask, and a point whose
// ε-expansion completes without settling a boundary node is proven exact —
// any ≤ε path leaving the shard would have settled its first boundary node
// within ε first, so the local neighbourhood IS the global one. Only the
// points whose expansion touches the boundary — plus the points of cut
// groups, which no shard owns — escalate to the scatter-gather executor for
// an exact global query, serially from the coordinator. Shards are
// statically partitioned across the stripes (stripe w owns shards w,
// w+stripes, …), so per-stripe union-find shards and border lists need no
// locking.

var _ network.ClusterKernel = (*Set)(nil)

// Stripes clamps a Workers request to [1, K]. Satisfies
// network.ClusterKernel.
func (set *Set) Stripes(workers int) int {
	return min(max(workers, 1), set.k)
}

// clusterShards runs pass over every shard, statically partitioned across
// stripes running concurrently; each stripe sweeps its shards sequentially
// on one pooled executor and collects the global IDs of points it could not
// prove locally into its own escalation list. pass returns how many local
// queries it ran; clusterShards returns their total.
func (set *Set) clusterShards(stripes int, pass func(w, s int, q *Querier, esc *[]network.PointID) (int, error)) (int, [][]network.PointID, error) {
	stripes = set.Stripes(stripes)
	counts := make([]int, stripes)
	errs := make([]error, stripes)
	escs := make([][]network.PointID, stripes)
	run := func(w int) {
		q := set.acquireQuerier()
		defer set.releaseQuerier(q)
		for s := w; s < set.k; s += stripes {
			c, err := pass(w, s, q, &escs[w])
			counts[w] += c
			if err != nil {
				errs[w] = err
				return
			}
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < stripes; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			run(w)
		}(w)
	}
	run(0)
	wg.Wait()
	total := 0
	for _, c := range counts {
		total += c
	}
	for _, err := range errs {
		if err != nil {
			return total, escs, err
		}
	}
	return total, escs, nil
}

// escalate runs visit on the exact global ε-neighbourhood of every escalated
// point and every cut-group point (only those with sel[gp] when sel is
// non-nil), serially on one pooled executor, and returns how many global
// queries it ran.
func (set *Set) escalate(ctx context.Context, eps float64, sel []bool, escs [][]network.PointID, visit func(gp network.PointID, res []network.PointID)) (int, error) {
	q := set.acquireQuerier()
	defer set.releaseQuerier(q)
	n := 0
	query := func(gp network.PointID) error {
		if sel != nil && !sel[gp] {
			return nil
		}
		res, err := q.RangeQueryCtx(ctx, set, gp, eps)
		if err != nil {
			return err
		}
		n++
		visit(gp, res)
		return nil
	}
	for _, gp := range set.cutPts {
		if err := query(gp); err != nil {
			return n, err
		}
	}
	for _, el := range escs {
		for _, gp := range el {
			if err := query(gp); err != nil {
				return n, err
			}
		}
	}
	return n, nil
}

// CoreFlags writes, for every point, whether its ε-neighbourhood holds at
// least minPts points. Shard-local counting expansions early-exit at
// minPts; a completed local count that never touched the boundary is exact,
// everything else re-runs through the global executor. Satisfies
// network.ClusterKernel.
func (set *Set) CoreFlags(ctx context.Context, eps float64, minPts, stripes int, core []bool) (int, error) {
	n := len(set.ptPos)
	if len(core) != n {
		return 0, fmt.Errorf("%w: CoreFlags needs len(core) == %d, got %d", network.ErrInvalidOptions, n, len(core))
	}
	if !(eps > 0) || minPts < 1 {
		return 0, fmt.Errorf("%w: CoreFlags needs eps > 0 and minPts >= 1 (got %v, %d)", network.ErrInvalidOptions, eps, minPts)
	}
	local, escs, err := set.clusterShards(stripes, func(w, s int, q *Querier, esc *[]network.PointID) (int, error) {
		sc := q.scratch(s)
		cnt := 0
		for _, g32 := range set.pointGlobal[s] {
			gp := network.PointID(g32)
			c, hit, err := sc.RangeCount(ctx, network.PointID(set.pointLocal[g32]), eps, minPts)
			if err != nil {
				return cnt, err
			}
			cnt++
			switch {
			case c >= minPts:
				core[gp] = true // local members are global members
			case !hit:
				core[gp] = false // never reached the boundary: count is exact
			default:
				*esc = append(*esc, gp)
			}
		}
		return cnt, nil
	})
	if err != nil {
		return local, err
	}
	global, err := set.escalate(ctx, eps, nil, escs, func(gp network.PointID, res []network.PointID) {
		core[gp] = len(res) >= minPts
	})
	return local + global, err
}

// EpsUnions records the core-core ε-graph into the per-stripe union-find
// shards. Shard-local sweeps whose expansion never touched the boundary
// union their exact neighbourhoods in place; boundary-touching points and
// cut-group points re-sweep through the global executor from the
// coordinator, into ufs[0] (unions commute, so placement is free). Each
// core pair within eps is unioned once, at its larger endpoint's sweep.
// Satisfies network.ClusterKernel.
func (set *Set) EpsUnions(ctx context.Context, eps float64, core []bool, ufs []*unionfind.UF, border func(w int, b, c network.PointID)) (int, error) {
	n := len(set.ptPos)
	if len(core) != n {
		return 0, fmt.Errorf("%w: EpsUnions needs len(core) == %d, got %d", network.ErrInvalidOptions, n, len(core))
	}
	if !(eps > 0) {
		return 0, fmt.Errorf("%w: EpsUnions needs eps > 0 (got %v)", network.ErrInvalidOptions, eps)
	}
	if len(ufs) == 0 {
		return 0, fmt.Errorf("%w: EpsUnions needs at least one union-find shard", network.ErrInvalidOptions)
	}
	link := func(w int, gp, gq network.PointID) {
		switch {
		case !core[gq]:
			border(w, gq, gp)
		case gq < gp:
			ufs[w].Union(int(gp), int(gq))
		}
	}
	local, escs, err := set.clusterShards(len(ufs), func(w, s int, q *Querier, esc *[]network.PointID) (int, error) {
		sc := q.scratch(s)
		cnt := 0
		for _, g32 := range set.pointGlobal[s] {
			gp := network.PointID(g32)
			if !core[gp] {
				continue
			}
			if err := sc.SeededRange(ctx, network.PointID(set.pointLocal[g32]), nil, eps, false); err != nil {
				return cnt, err
			}
			cnt++
			if len(sc.Settled()) > 0 {
				// The expansion settled a boundary node within ε: the global
				// neighbourhood may extend past this shard. Escalate.
				*esc = append(*esc, gp)
				continue
			}
			for _, lq := range sc.RangeResults() {
				link(w, gp, network.PointID(set.pointGlobal[s][lq]))
			}
		}
		return cnt, nil
	})
	if err != nil {
		return local, err
	}
	global, err := set.escalate(ctx, eps, core, escs, func(gp network.PointID, res []network.PointID) {
		for _, gq := range res {
			link(0, gp, gq)
		}
	})
	return local + global, err
}

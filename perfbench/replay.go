package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/url"
	"slices"
	"sort"
	"strings"
	"time"

	"netclus"
	"netclus/internal/server/api"
)

// Replay caps bound the traced run's replay time: the first misses of each
// kind, in request-ID order, are replayed.
const (
	replayPointCap = 300 // kNN and range misses each
	replayWriteCap = 2000
)

var replayClusterCap = map[string]int{"dbscan": 6, "epslink": 6, "kmedoids": 3}

// replayer re-runs a traced window's cache misses and acked writes,
// single-threaded, against each layer's public functions, recording one span
// per layer call.
type replayer struct {
	ctx context.Context
	e   *env
	tr  *tracer
	m   *measured
	k   *checker

	view   netclus.Graph   // the served read dataset's view
	bounds *netclus.Bounds // the served read dataset's bounds, nil if none
	// lbView/lbBounds run the lbound replays: the served pair when the
	// dataset has bounds, else the compiled snapshot with its own.
	lbView   netclus.Graph
	lbBounds *netclus.Bounds

	snap  *netclus.Snapshot
	set   *netclus.ShardedSet
	store *netclus.Store // the served store, or one opened for the replay
	owned *netclus.Store // closed by close

	spans []span
}

// newReplayer builds each layer's object for the replay, timing the ones
// whose construction is a per-layer metric.
func newReplayer(e *env, m *measured, tr *tracer) (*replayer, error) {
	rp := &replayer{ctx: context.Background(), e: e, tr: tr, m: m, k: &checker{e: e},
		view: m.s.read.View(), bounds: m.s.read.Bounds()}
	var err error
	if rp.snap, err = netclus.Compile(e.net); err != nil {
		return nil, fmt.Errorf("replay: compiling: %w", err)
	}
	if st, ok := rp.view.(*netclus.Store); ok {
		rp.store = st
	} else {
		if rp.owned, err = netclus.OpenStore(e.storeDir, storeOptions); err != nil {
			return nil, fmt.Errorf("replay: opening store: %w", err)
		}
		rp.store = rp.owned
	}
	return rp, nil
}

func (rp *replayer) close() {
	if rp.owned != nil {
		rp.owned.Close()
	}
}

// timed runs f as a span named name under request req.
func (rp *replayer) timed(name string, req int64, f func()) {
	start := time.Since(rp.tr.base).Nanoseconds()
	f()
	end := time.Since(rp.tr.base).Nanoseconds()
	rp.spans = append(rp.spans, span{name: name, parent: "client.request", req: req, start: start, end: end})
}

// spanStat is the median duration of the named replay spans in the given
// unit divisor (1e3 for µs, 1e6 for ms).
func (rp *replayer) spanStat(l *layerMetrics, metricName, spanName, unit string, div float64) {
	var xs []float64
	for _, s := range rp.spans {
		if s.name == spanName {
			xs = append(xs, s.ns()/div)
		}
	}
	if len(xs) == 0 {
		l.notApplicable = append(l.notApplicable, metricName+" (nothing replayed)")
		l.set(metricName, unit, 0)
		return
	}
	l.set(metricName, unit, quantile(xs, 0.5))
}

func (rp *replayer) run(l *layerMetrics) {
	e := rp.e
	var err error
	// Layer construction: timed once each.
	l.set("storage.build_ms", "ms", e.storeMS)
	st := rp.snap.Stats()
	l.set("csr.compile_ms", "ms", ms(st.CompileTime))
	l.set("csr.resident_mb", "MiB", float64(st.ResidentBytes)/(1<<20))
	var snapBounds *netclus.Bounds
	t0 := time.Now()
	snapBounds, err = netclus.BuildBounds(rp.snap, netclus.BoundsOptions{Landmarks: netclus.DefaultLandmarks, EuclideanLB: true})
	l.set("lbound.build_ms", "ms", ms(time.Since(t0)))
	if err != nil {
		rp.k.failf("replay: building bounds: %v", err)
		return
	}
	t0 = time.Now()
	rp.set, err = netclus.PartitionNetwork(e.net, 2)
	l.set("shard.partition_ms", "ms", ms(time.Since(t0)))
	if err != nil {
		rp.k.failf("replay: partitioning: %v", err)
		return
	}
	rp.lbView, rp.lbBounds = rp.snap, snapBounds
	if rp.bounds != nil {
		rp.lbView, rp.lbBounds = rp.view, rp.bounds
	}

	recs := sortedRecords(rp.m.win)
	var knn, rng []record
	clusters := map[string][]record{}
	for _, r := range recs {
		if r.req.url == "" {
			continue // a cache hit
		}
		switch r.ep {
		case epKNN:
			if len(knn) < replayPointCap {
				knn = append(knn, r)
			}
		case epRange:
			if len(rng) < replayPointCap {
				rng = append(rng, r)
			}
		case epCluster:
			if a := r.req.cl.Algo; len(clusters[a]) < replayClusterCap[a] {
				clusters[a] = append(clusters[a], r)
			}
		}
	}

	storeBefore := netclus.SnapshotStore(rp.store)
	shardBefore := rp.set.Counters()
	var prune netclus.PruneStats
	for _, r := range knn {
		prune.Add(rp.knn(r))
	}
	lbRanges := 0
	for _, r := range rng {
		prune.Add(rp.rangeQ(r))
		lbRanges++
	}
	if rp.owned != nil {
		// The store is not what the window served: its counters come from
		// the replay, per replayed point query.
		storeRatios(l, netclus.SnapshotStore(rp.store).Sub(storeBefore), float64(len(knn)+len(rng)))
	}
	if rp.m.s.read.Sharded() == nil {
		shardCounters(l, shardBefore, rp.set.Counters())
	}

	var jobs []netclus.ClusterStats
	for _, algo := range []string{"dbscan", "epslink", "kmedoids"} {
		rs := clusters[algo]
		if len(rs) == 0 {
			// The workload sent no such job: replay one at the generator's ε
			// with the API defaults, so the layer is still timed.
			req, err := api.DecodeClusterValues(url.Values{"algo": {algo}, "eps": {fmt.Sprint(e.eps)}})
			if err != nil {
				rp.k.failf("replay: probe request: %v", err)
				continue
			}
			rs = []record{{id: -1, ep: epCluster, req: request{ep: epCluster, cl: req, url: "/v1/" + readDataset + "/cluster?" + req.Values().Encode()}}}
			l.notApplicable = append(l.notApplicable, "core."+algo+"_ms (no "+algo+" miss; one probe at the generator's eps replayed)")
		}
		for _, r := range rs {
			st, ps := rp.cluster(r)
			jobs = append(jobs, st)
			prune.Add(ps.prune)
			lbRanges += ps.ranges
		}
	}
	var acks []acked
	for _, c := range rp.m.win.clients {
		acks = append(acks, c.acks...)
	}
	sort.Slice(acks, func(i, j int) bool { return acks[i].epoch < acks[j].epoch })
	if len(acks) > replayWriteCap {
		acks = acks[:replayWriteCap]
	}
	rp.writes(acks)

	rp.spanStat(l, "api.decode_us", "api.decode", "us", 1e3)
	rp.spanStat(l, "api.encode_us", "api.encode", "us", 1e3)
	rp.spanStat(l, "csr.knn_us", "csr.knn", "us", 1e3)
	rp.spanStat(l, "csr.range_us", "csr.range", "us", 1e3)
	rp.spanStat(l, "shard.knn_us", "shard.knn", "us", 1e3)
	rp.spanStat(l, "shard.range_us", "shard.range", "us", 1e3)
	rp.spanStat(l, "network.knn_us", "network.knn", "us", 1e3)
	rp.spanStat(l, "network.range_us", "network.range", "us", 1e3)
	rp.spanStat(l, "core.dbscan_ms", "core.dbscan", "ms", 1e6)
	rp.spanStat(l, "core.epslink_ms", "core.epslink", "ms", 1e6)
	rp.spanStat(l, "core.kmedoids_ms", "core.kmedoids", "ms", 1e6)
	rp.spanStat(l, "core.dbscan_w0_ms", "core.dbscan_w0", "ms", 1e6)
	rp.spanStat(l, "core.dbscan_w2_ms", "core.dbscan_w2", "ms", 1e6)
	rp.spanStat(l, "lbound.dbscan_pruned_ms", "lbound.dbscan_pruned", "ms", 1e6)
	rp.spanStat(l, "shard.dbscan_ms", "shard.dbscan", "ms", 1e6)
	rp.spanStat(l, "delta.apply_ms", "delta.apply", "ms", 1e6)

	var rq, ns, ev, gr float64
	for _, s := range jobs {
		rq += float64(s.RangeQueries)
		ns += float64(s.NodesSettled)
		ev += float64(s.EdgesVisited)
		gr += float64(s.GroupsRead)
	}
	n := float64(len(jobs))
	l.ratio("core.range_queries", "count/job", rq, n)
	l.ratio("core.nodes_settled", "count/job", ns, n)
	l.ratio("core.edges_visited", "count/job", ev, n)
	l.ratio("core.groups_read", "count/job", gr, n)
	l.ratio("lbound.filter_resolved_ratio", "ratio", float64(prune.FilterAccepted+prune.FilterRejected), float64(prune.Candidates))
	l.ratio("lbound.zero_traversal_ratio", "ratio", float64(prune.ZeroTraversalQueries), float64(lbRanges))
}

// decodeSpan times the server's decode of the request's query string.
func (rp *replayer) decodeSpan(r record, decode func(url.Values) error) {
	_, raw, _ := strings.Cut(r.req.url, "?")
	rp.timed("api.decode", r.id, func() {
		q, err := url.ParseQuery(raw)
		if err == nil {
			err = decode(q)
		}
		if err != nil {
			rp.k.failf("replay: decoding %s: %v", r.req.describe(), err)
		}
	})
}

func (rp *replayer) encodeSpan(r record, v any) {
	rp.timed("api.encode", r.id, func() {
		if _, err := json.Marshal(v); err != nil {
			rp.k.failf("replay: encoding %s: %v", r.req.describe(), err)
		}
	})
}

// knn replays one kNN miss on the snapshot, the sharded set, the store and
// the pruned path, checking that all four agree.
func (rp *replayer) knn(r record) netclus.PruneStats {
	rp.decodeSpan(r, func(q url.Values) error { _, err := api.DecodeKNN(q); return err })
	p, k := r.req.knn.Point, r.req.knn.K
	var ps netclus.PruneStats
	results := map[string][]netclus.PointDist{}
	run := func(name string, f func() ([]netclus.PointDist, error)) {
		var res []netclus.PointDist
		var err error
		rp.timed(name, r.id, func() { res, err = f() })
		if err != nil {
			rp.k.failf("replay %s %s: %v", name, r.req.describe(), err)
		}
		results[name] = res
	}
	reader := rp.store.Reader()
	run("csr.knn", func() ([]netclus.PointDist, error) { return netclus.KNearestNeighborsCtx(rp.ctx, rp.snap, p, k) })
	run("shard.knn", func() ([]netclus.PointDist, error) { return netclus.KNearestNeighborsCtx(rp.ctx, rp.set, p, k) })
	run("network.knn", func() ([]netclus.PointDist, error) { return netclus.KNearestNeighborsCtx(rp.ctx, reader, p, k) })
	run("lbound.knn", func() ([]netclus.PointDist, error) {
		return netclus.KNearestNeighborsPrunedCtx(rp.ctx, rp.lbView, rp.lbBounds, p, k, &ps)
	})
	rp.agree(r, results, "csr.knn")
	rp.encodeSpan(r, api.KNNResponse{Dataset: readDataset, Epoch: 1, Point: p, K: k, Results: api.PointDists(results["csr.knn"])})
	return ps
}

// rangeQ replays one range miss like knn.
func (rp *replayer) rangeQ(r record) netclus.PruneStats {
	rp.decodeSpan(r, func(q url.Values) error { _, err := api.DecodeRange(q); return err })
	req := r.req.rng
	results := map[string][]netclus.PointDist{}
	run := func(name string, g netclus.Graph, sc netclus.RangeQuerier, dists bool) {
		var res []netclus.PointDist
		var err error
		rp.timed(name, r.id, func() {
			if dists {
				var out []netclus.PointDist
				out, err = sc.RangeQueryDistCtx(rp.ctx, g, req.Point, req.Eps)
				res = slices.Clone(out)
				return
			}
			var ids []netclus.PointID
			ids, err = sc.RangeQueryCtx(rp.ctx, g, req.Point, req.Eps)
			for _, id := range ids {
				res = append(res, netclus.PointDist{Point: id})
			}
		})
		if err != nil {
			rp.k.failf("replay %s %s: %v", name, r.req.describe(), err)
		}
		if !dists {
			sort.Slice(res, func(i, j int) bool { return res[i].Point < res[j].Point })
		}
		results[name] = res
	}
	reader := rp.store.Reader()
	run("csr.range", rp.snap, netclus.ScratchFor(rp.snap), req.Dists)
	run("shard.range", rp.set, netclus.ScratchFor(rp.set), req.Dists)
	run("network.range", reader, netclus.ScratchFor(reader), req.Dists)
	// Filter-and-refine serves only the ID-only flavour.
	lb := netclus.ScratchFor(rp.lbView)
	lb.SetBounder(rp.lbBounds)
	run("lbound.range", rp.lbView, lb, false)
	pruned := results["lbound.range"]
	delete(results, "lbound.range")
	rp.agree(r, results, "csr.range")
	if !req.Dists {
		rp.agree(r, map[string][]netclus.PointDist{"lbound.range": pruned, "csr.range": results["csr.range"]}, "csr.range")
	}
	resp := api.RangeResponse{Dataset: readDataset, Epoch: 1, Point: req.Point, Eps: req.Eps, Count: len(results["csr.range"])}
	if req.Dists {
		resp.Results = api.PointDists(results["csr.range"])
	} else {
		for _, pd := range results["csr.range"] {
			resp.Points = append(resp.Points, pd.Point)
		}
	}
	rp.encodeSpan(r, resp)
	return lb.PruneStats()
}

// agree fails the replay when the layers' answers to one query differ.
func (rp *replayer) agree(r record, results map[string][]netclus.PointDist, ref string) {
	for name, res := range results {
		if !slices.Equal(res, results[ref]) {
			rp.k.failf("replay %s: %s answer differs from %s", r.req.describe(), name, ref)
		}
	}
}

// pruneWork is what a pruned clustering replay reports for lbound.
type pruneWork struct {
	prune  netclus.PruneStats
	ranges int
}

// cluster replays one clustering miss: with the request's options on the
// served view, then (DBSCAN) unpruned at workers 0 and 2, pruned, and on the
// sharded set.
func (rp *replayer) cluster(r record) (netclus.ClusterStats, pruneWork) {
	rp.decodeSpan(r, func(q url.Values) error { _, err := api.DecodeClusterValues(q); return err })
	req := r.req.cl
	var bounds netclus.Bounder
	if rp.bounds != nil && req.PruneEnabled() {
		bounds = rp.bounds
	}
	var st netclus.ClusterStats
	var pw pruneWork
	resp := api.ClusterResponse{Dataset: readDataset, Epoch: 1, Algo: req.Algo}
	var labels []int32
	fail := func(name string, err error) {
		if err != nil {
			rp.k.failf("replay %s %s: %v", name, r.req.describe(), err)
		}
	}
	switch req.Algo {
	case "dbscan":
		dbscan := func(name string, g netclus.Graph, workers int, b netclus.Bounder) *netclus.DBSCANResult {
			var res *netclus.DBSCANResult
			var err error
			rp.timed(name, r.id, func() {
				res, err = netclus.DBSCANCtx(rp.ctx, g, netclus.DBSCANOptions{Eps: req.Eps, MinPts: req.MinPts, Workers: workers, Prune: b})
			})
			fail(name, err)
			return res
		}
		res := dbscan("core.dbscan", rp.view, req.Workers, bounds)
		dbscan("core.dbscan_w0", rp.view, 0, nil)
		dbscan("core.dbscan_w2", rp.view, 2, nil)
		if pr := dbscan("lbound.dbscan_pruned", rp.lbView, 0, rp.lbBounds); pr != nil {
			pw = pruneWork{prune: pr.Stats.Prune, ranges: pr.Stats.RangeQueries}
		}
		dbscan("shard.dbscan", rp.set, req.Workers, nil)
		if res != nil {
			st, labels = res.Stats, res.Labels
			resp.CorePoints = res.CorePoints
		}
	case "epslink":
		var res *netclus.EpsLinkResult
		var err error
		rp.timed("core.epslink", r.id, func() {
			res, err = netclus.EpsLinkCtx(rp.ctx, rp.view, netclus.EpsLinkOptions{Eps: req.Eps, MinSup: req.MinSup, Workers: req.Workers})
		})
		fail("core.epslink", err)
		if res != nil {
			st, labels = res.Stats, res.Labels
		}
	case "kmedoids":
		var res *netclus.KMedoidsResult
		var err error
		rp.timed("core.kmedoids", r.id, func() {
			res, err = netclus.KMedoidsCtx(rp.ctx, rp.view, netclus.KMedoidsOptions{
				K: req.K, Restarts: req.Restarts, Workers: req.Workers, Prune: bounds,
				Rand: rand.New(rand.NewSource(req.Seed)),
			})
		})
		fail("core.kmedoids", err)
		if res != nil {
			st, labels = res.Stats, res.Labels
			resp.R = res.R
		}
	}
	resp.Clusters = netclus.CountClusters(labels)
	if req.Labels {
		resp.Labels = labels
	}
	resp.Stats = api.ClusterStats{NodesSettled: st.NodesSettled, HeapPushes: st.HeapPushes,
		EdgesVisited: st.EdgesVisited, GroupsRead: st.GroupsRead, RangeQueries: st.RangeQueries}
	rp.encodeSpan(r, resp)
	return st, pw
}

// writes replays the acked op log, in commit order, through Overlay.Apply
// on a fresh twin of the live dataset. Every op the server acked must apply.
func (rp *replayer) writes(acks []acked) {
	if len(acks) == 0 {
		return
	}
	base, err := netclus.Compile(rp.e.net)
	if err != nil {
		rp.k.failf("replay: compiling the twin base: %v", err)
		return
	}
	_, _, labels := rp.m.s.live.Live().LiveParams()
	twin, err := netclus.NewLiveOverlay(base, rp.e.liveOptions(labels))
	if err != nil {
		rp.k.failf("replay: building the twin overlay: %v", err)
		return
	}
	defer twin.Close()
	for _, a := range acks {
		ops, err := api.MutateRequest{Ops: []api.MutateOp{a.op}}.LiveOps()
		if err != nil {
			rp.k.failf("replay: op %+v: %v", a.op, err)
			continue
		}
		rp.timed("delta.apply", a.id, func() { _, err = twin.Apply(rp.ctx, ops) })
		if err != nil {
			rp.k.failf("replay: applying acked op %+v at epoch %d: %v", a.op, a.epoch, err)
		}
	}
}

package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"slices"
	"time"

	"netclus"
	"netclus/internal/server"
	"netclus/internal/server/api"
)

// checker compares served answers with the same call on the in-memory
// *netclus.Network the datasets were built from. Every backend holds the same
// points, so the answers must be identical.
type checker struct {
	e        *env
	failures int
	first    string
}

func (k *checker) failf(format string, args ...any) {
	k.failures++
	if k.first == "" {
		k.first = fmt.Sprintf(format, args...)
	}
}

// clusterAnswer is the part of a cluster response that must not depend on
// the backend.
type clusterAnswer struct {
	clusters, noise, core int
	r                     float64
	labels                []int32
}

// clusterRef runs req on the in-memory network the way the server's handler
// does, sequentially and without pruning.
func (k *checker) clusterRef(ctx context.Context, req api.ClusterRequest) (clusterAnswer, error) {
	var a clusterAnswer
	var labels []int32
	switch req.Algo {
	case "dbscan":
		res, err := netclus.DBSCANCtx(ctx, k.e.net, netclus.DBSCANOptions{Eps: req.Eps, MinPts: req.MinPts})
		if err != nil {
			return a, err
		}
		labels, a.core = res.Labels, res.CorePoints
	case "epslink":
		res, err := netclus.EpsLinkCtx(ctx, k.e.net, netclus.EpsLinkOptions{Eps: req.Eps, MinSup: req.MinSup})
		if err != nil {
			return a, err
		}
		labels = res.Labels
	case "kmedoids":
		res, err := netclus.KMedoidsCtx(ctx, k.e.net, netclus.KMedoidsOptions{
			K: req.K, Restarts: req.Restarts, Rand: rand.New(rand.NewSource(req.Seed)),
		})
		if err != nil {
			return a, err
		}
		labels, a.r = res.Labels, res.R
	default:
		return a, fmt.Errorf("unknown algo %q", req.Algo)
	}
	if req.MinSup > 1 {
		netclus.SuppressSmallClusters(labels, req.MinSup)
	}
	a.clusters = netclus.CountClusters(labels)
	for _, l := range labels {
		if l == netclus.Noise {
			a.noise++
		}
	}
	a.labels = labels
	return a, nil
}

// verify checks one served answer body against the reference.
func (k *checker) verify(ctx context.Context, s sampled) {
	desc := s.req.describe()
	switch s.req.ep {
	case epKNN:
		var got api.KNNResponse
		if err := json.Unmarshal(s.body, &got); err != nil {
			k.failf("%s: decoding: %v", desc, err)
			return
		}
		want, err := netclus.KNearestNeighborsCtx(ctx, k.e.net, s.req.knn.Point, s.req.knn.K)
		if err != nil {
			k.failf("%s: reference: %v", desc, err)
			return
		}
		if !slices.Equal(got.Results, api.PointDists(want)) {
			k.failf("%s: kNN answer differs from the in-memory network", desc)
		}
	case epRange:
		var got api.RangeResponse
		if err := json.Unmarshal(s.body, &got); err != nil {
			k.failf("%s: decoding: %v", desc, err)
			return
		}
		sc := netclus.NewRangeScratch(k.e.net)
		if s.req.rng.Dists {
			want, err := sc.RangeQueryDistCtx(ctx, k.e.net, s.req.rng.Point, s.req.rng.Eps)
			if err != nil {
				k.failf("%s: reference: %v", desc, err)
				return
			}
			if got.Count != len(want) || !slices.Equal(got.Results, api.PointDists(want)) {
				k.failf("%s: range answer differs from the in-memory network", desc)
			}
			return
		}
		want, err := sc.RangeQueryCtx(ctx, k.e.net, s.req.rng.Point, s.req.rng.Eps)
		if err != nil {
			k.failf("%s: reference: %v", desc, err)
			return
		}
		// The ID-only flavour's order is unspecified: compare sets.
		w := slices.Clone(want)
		g := slices.Clone(got.Points)
		slices.Sort(w)
		slices.Sort(g)
		if got.Count != len(w) || !slices.Equal(g, w) {
			k.failf("%s: range answer differs from the in-memory network", desc)
		}
	case epCluster:
		var got api.ClusterResponse
		if err := json.Unmarshal(s.body, &got); err != nil {
			k.failf("%s: decoding: %v", desc, err)
			return
		}
		want, err := k.clusterRef(ctx, s.req.cl)
		if err != nil {
			k.failf("%s: reference: %v", desc, err)
			return
		}
		if got.Clusters != want.clusters || got.Noise != want.noise || got.CorePoints != want.core || got.R != want.r {
			k.failf("%s: cluster answer (clusters %d noise %d core %d r %v) differs from the in-memory network (%d %d %d %v)",
				desc, got.Clusters, got.Noise, got.CorePoints, got.R, want.clusters, want.noise, want.core, want.r)
			return
		}
		if s.req.cl.Labels && !slices.Equal(got.Labels, want.labels) {
			k.failf("%s: cluster labels differ from the in-memory network", desc)
		}
	}
}

// fetch sends one request outside the timed window and returns its body.
func fetch(base string, req request) ([]byte, error) {
	c := &http.Client{Timeout: 60 * time.Second}
	resp, err := c.Get(base + req.url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, body)
	}
	return body, nil
}

// labelChecks is how many sampled cluster requests are re-sent with
// labels=1 after the window, for a point-by-point label comparison.
const labelChecks = 2

// checkWindow verifies the window's sampled answers and, on immutable
// datasets, re-requests a few sampled cluster jobs with labels.
func (k *checker) checkWindow(ctx context.Context, s *served, win *window) {
	immutable := s.read.Live() == nil
	var clusters []request
	for _, c := range win.clients {
		for ep := range c.samples {
			if !immutable {
				continue // live answers move with the epoch; see checkLivePre
			}
			for _, sm := range c.samples[ep] {
				k.verify(ctx, sm)
				if sm.req.ep == epCluster {
					clusters = append(clusters, sm.req)
				}
			}
		}
	}
	for i := 0; i < len(clusters) && i < labelChecks; i++ {
		req := clusters[i].withLabels()
		body, err := fetch(s.base, req)
		if err != nil {
			k.failf("%s: %v", req.describe(), err)
			continue
		}
		k.verify(ctx, sampled{req: req, body: body})
	}
}

// checkLivePre verifies a seeded sample of reads on a live dataset before
// any write lands, while it still holds exactly the generated points.
func (k *checker) checkLivePre(ctx context.Context, s *served, t *traffic) {
	st := t.stream(numClients) // a stream no window client uses
	var n [numEndpoints]int
	for n[epKNN] < sampleCap/2 || n[epRange] < sampleCap/2 || n[epCluster] < 1 {
		req := st.next()
		if req.ep == epWrite || (req.ep == epCluster && n[epCluster] >= 1) || n[req.ep] >= sampleCap/2 {
			continue
		}
		n[req.ep]++
		if req.ep == epCluster {
			req = req.withLabels()
		}
		body, err := fetch(s.base, req)
		if err != nil {
			k.failf("%s: %v", req.describe(), err)
			continue
		}
		k.verify(ctx, sampled{req: req, body: body})
	}
}

// checkLive verifies a live dataset after the window: its maintained DBSCAN
// labels equal a from-scratch DBSCAN of the current view up to renumbering,
// and the overlay committed exactly the ops the clients saw acked.
func (k *checker) checkLive(ctx context.Context, d *server.Dataset, opsBefore int64, acks int) {
	ov := d.Live()
	if ops := ov.Stats().Ops - opsBefore; ops != int64(acks) {
		k.failf("dataset %s: %d ops acked but the overlay committed %d", d.Name, acks, ops)
	}
	if _, _, maintained := ov.LiveParams(); !maintained {
		return // the write probe's dataset keeps no labels
	}
	cur := ov.Current()
	labels, _, _, ok := cur.LiveDBSCAN(k.e.eps, 3)
	if !ok {
		k.failf("dataset %s: no maintained DBSCAN labels at eps %v", d.Name, k.e.eps)
		return
	}
	ref, err := netclus.DBSCANCtx(ctx, cur.Graph, netclus.DBSCANOptions{Eps: k.e.eps, MinPts: 3})
	if err != nil {
		k.failf("dataset %s: reference DBSCAN: %v", d.Name, err)
		return
	}
	if !sameUpToRenumbering(labels, ref.Labels) {
		k.failf("dataset %s: maintained DBSCAN labels differ from DBSCAN of the current view", d.Name)
	}
}

// sameUpToRenumbering reports whether a and b induce the same partition with
// the same noise points.
func sameUpToRenumbering(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	ab := make(map[int32]int32)
	ba := make(map[int32]int32)
	for i := range a {
		if (a[i] == netclus.Noise) != (b[i] == netclus.Noise) {
			return false
		}
		if a[i] == netclus.Noise {
			continue
		}
		if x, ok := ab[a[i]]; ok && x != b[i] {
			return false
		}
		if y, ok := ba[b[i]]; ok && y != a[i] {
			return false
		}
		ab[a[i]], ba[b[i]] = b[i], a[i]
	}
	return true
}

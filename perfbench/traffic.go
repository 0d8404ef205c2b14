package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/url"
	"sync"

	"netclus"
	"netclus/internal/server/api"
)

// endpoint is one of the served request kinds the benchmark drives.
type endpoint int

const (
	epKNN endpoint = iota
	epRange
	epCluster
	epWrite
	numEndpoints
)

var endpointNames = [numEndpoints]string{"knn", "range", "cluster", "write"}

// readDataset is the name every workload serves its points under; the write
// probe of the three read workloads goes to writeDataset.
const (
	readDataset  = "tg"
	writeDataset = "w"
)

// workload is one traffic mix against one backend.
type workload struct {
	name string
	// backend selects the served form of the points: "store" (disk store
	// behind the paper's 4 KB pages and 1 MB pool), "hot" (compiled CSR
	// replica with bounds), "sharded" (2-shard scatter-gather set) or
	// "live" (delta overlay accepting writes).
	backend string
	// traffic selects the request generator: "zipf", "uniform" or "live".
	traffic string
	// mix is the endpoint deck: each cycle of sum(mix) requests holds
	// exactly mix[e] requests of endpoint e, in a shuffled order. A
	// workload without writes in its mix sends its writes in the write
	// probe before the window.
	mix [numEndpoints]int
}

// workloads are the four served workloads; README.md says why each exists.
// The uniform pair sends one cluster job per 71 requests. A cluster job
// takes the whole admission capacity and holds back exactly one request of
// the other client, so one kNN or range request in 70 waits behind one.
// Their p99 then falls inside those waits, at the 30th percentile of cluster
// job length, where the lengths lie densest; not at the edge between waiting
// and not waiting, where a swing of a few tenths of a percent in the waiting
// share would move it tenfold. Which endpoint waits behind which job is
// fixed by the request sequence (see pinCluster), not drawn at random.
var workloads = []workload{
	{name: "zipf-cold", backend: "store", traffic: "zipf", mix: [numEndpoints]int{6, 3, 1, 0}},
	{name: "uniform-hot", backend: "hot", traffic: "uniform", mix: [numEndpoints]int{35, 35, 1, 0}},
	{name: "uniform-sharded", backend: "sharded", traffic: "uniform", mix: [numEndpoints]int{35, 35, 1, 0}},
	{name: "live-write", backend: "live", traffic: "live", mix: [numEndpoints]int{4, 2, 1, 3}},
}

func lookupWorkload(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// request is one generated request plus the decoded parameters the checks
// and the replay need.
type request struct {
	ep   endpoint
	url  string // path and query relative to the server root
	key  string // endpoint and canonical parameters: the result-cache identity
	body []byte // JSON body of a write
	knn  api.KNNRequest
	rng  api.RangeRequest
	cl   api.ClusterRequest
	op   api.MutateOp
}

// livePointMargin keeps point IDs drawn for live datasets below the
// initial count minus this margin, so deletes never make a drawn ID dangle.
const livePointMargin = 1000

// traffic holds what both clients of a run share: the workload, the
// generator's ε, the point count and the zipf popularity ranking.
type traffic struct {
	w      *workload
	seed   int64
	eps    float64
	points int
	perm   []int32 // zipf rank -> point ID
}

func newTraffic(w *workload, seed int64, eps float64, points int) *traffic {
	t := &traffic{w: w, seed: seed, eps: eps, points: points}
	if w.traffic == "zipf" {
		perm := rand.New(rand.NewSource(seed)).Perm(points)
		t.perm = make([]int32, points)
		for i, p := range perm {
			t.perm[i] = int32(p)
		}
	}
	return t
}

// splitmix64 is the SplitMix64 finalizer, used to derive independent
// per-client RNG seeds from the run seed.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// clusterCombo is one (algorithm, workers, prune) cell of the uniform
// workloads' cluster split.
type clusterCombo struct {
	algo    string
	workers int
	noPrune bool
}

// uniformCombos is dbscan:2, epslink:1, kmedoids:1 crossed with workers
// {0,1,2} and prune {server default, false}.
func uniformCombos() []clusterCombo {
	var out []clusterCombo
	for _, algo := range []string{"dbscan", "dbscan", "epslink", "kmedoids"} {
		for _, wk := range []int{0, 1, 2} {
			for _, np := range []bool{false, true} {
				out = append(out, clusterCombo{algo, wk, np})
			}
		}
	}
	return out
}

// epsLadder scales the generator's ε into the zipf-cold radii; rank 0, the
// most popular, is the widest.
var epsLadder = [...]float64{1, 0.75, 0.5, 0.25}

// goldenStep spreads a continuous parameter evenly: frac(u0 + i·φ⁻¹) covers
// [0,1) with low discrepancy, so a run's few hundred cluster requests see the
// same spread of ε whatever the seed, while no two values repeat.
const goldenStep = 0.6180339887498949

// stream generates a request sequence. It depends only on the run seed and
// the stream index, never on timing, so a seed fixes the traffic.
type stream struct {
	t     *traffic
	rng   *rand.Rand
	deck  []endpoint
	pos   int
	cycle int // decks dealt so far

	writeDeck []string
	writePos  int

	ptZipf, epsZipf *rand.Zipf

	combos   []clusterCombo
	comboPos int
	u        float64 // golden-ratio sequence state for cluster ε
}

func (t *traffic) stream(index int) *stream {
	seed := int64(splitmix64(splitmix64(uint64(t.seed)) ^ (uint64(index)+1)*0xa0761d6478bd642f))
	s := &stream{t: t, rng: rand.New(rand.NewSource(seed))}
	for e := endpoint(0); e < numEndpoints; e++ {
		for i := 0; i < t.w.mix[e]; i++ {
			s.deck = append(s.deck, e)
		}
	}
	s.pos = len(s.deck)
	s.writeDeck = []string{"insert", "insert", "move", "delete"}
	s.writePos = len(s.writeDeck)
	switch t.w.traffic {
	case "zipf":
		s.ptZipf = rand.NewZipf(s.rng, 1.3, 1, uint64(t.points-1))
		s.epsZipf = rand.NewZipf(s.rng, 1.3, 1, uint64(len(epsLadder)-1))
	case "uniform":
		s.combos = uniformCombos()
		s.comboPos = len(s.combos)
		s.u = s.rng.Float64()
	}
	return s
}

func (s *stream) next() request {
	if s.pos == len(s.deck) {
		s.rng.Shuffle(len(s.deck), func(i, j int) { s.deck[i], s.deck[j] = s.deck[j], s.deck[i] })
		if s.t.w.traffic == "uniform" {
			s.pinCluster()
		}
		s.pos = 0
		s.cycle++
	}
	ep := s.deck[s.pos]
	s.pos++
	switch ep {
	case epKNN:
		return s.knn()
	case epRange:
		return s.rangeReq()
	case epCluster:
		return s.cluster()
	default:
		return s.write()
	}
}

// pinCluster moves a uniform deck's cluster job to its front and puts two
// requests of one point endpoint right behind it. While one client waits for
// the job, the other sends the next request in the sequence, which then
// waits behind the job; it sends the one after if it drew its own request
// just before the job went out. The point endpoint alternates with each pass
// through the cluster combinations, so over two passes every combination
// holds back one kNN and one range request. The kNN and range p99 are a
// percentile of those waits; while chance chose which endpoint waited behind
// which job, the kNN p99 on uniform-hot spread up to a quarter of its median
// (quartile distance) over ten runs.
func (s *stream) pinCluster() {
	f := epKNN
	if s.cycle/len(s.combos)%2 == 1 {
		f = epRange
	}
	rest := make([]endpoint, 0, len(s.deck))
	skip := 2
	for _, e := range s.deck {
		if e == epCluster || e == f && skip > 0 {
			if e == f {
				skip--
			}
			continue
		}
		rest = append(rest, e)
	}
	s.deck = append(append(s.deck[:0], epCluster, f, f), rest...)
}

// shared is a request sequence that clients of a window draw from, in turn.
// Which client sends a request depends on timing; the sequence does not.
type shared struct {
	mu sync.Mutex
	s  *stream
}

func (sh *shared) next() request {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.s.next()
}

func (sh *shared) write() request {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.s.write()
}

// point draws a point ID: zipf-ranked on zipf-cold, uniform elsewhere, and
// below the live margin on live datasets.
func (s *stream) point() int32 {
	switch s.t.w.traffic {
	case "zipf":
		return s.t.perm[s.ptZipf.Uint64()]
	case "live":
		return int32(s.rng.Intn(s.t.points - livePointMargin))
	default:
		return int32(s.rng.Intn(s.t.points))
	}
}

// defaultPrune reports whether a uniform request leaves prune at the server
// default (half of them do, half send prune=0).
func (s *stream) defaultPrune() bool {
	return s.t.w.traffic != "uniform" || s.rng.Intn(2) == 0
}

// encodeQuery renders values, dropping prune when the request leaves it at
// the server default.
func encodeQuery(v url.Values, keepPrune bool) string {
	if !keepPrune {
		v.Del("prune")
	}
	return v.Encode()
}

func (s *stream) knn() request {
	prune := s.defaultPrune()
	req := api.KNNRequest{Point: netclus.PointID(s.point()), K: 10, Prune: prune}
	if s.t.w.traffic != "zipf" {
		req.K = 5 + s.rng.Intn(16)
	}
	return request{
		ep: epKNN, knn: req,
		url: "/v1/" + readDataset + "/knn?" + encodeQuery(req.Values(), !prune),
		key: "knn?" + req.Canonical(),
	}
}

func (s *stream) rangeReq() request {
	prune := s.defaultPrune()
	req := api.RangeRequest{Point: netclus.PointID(s.point()), Prune: prune}
	if s.t.w.traffic == "zipf" {
		req.Eps = s.t.eps * epsLadder[s.epsZipf.Uint64()]
		req.Dists = true
		req.Prune = true
	} else {
		req.Eps = s.t.eps * (0.5 + 1.5*s.rng.Float64())
	}
	return request{
		ep: epRange, rng: req,
		url: "/v1/" + readDataset + "/range?" + encodeQuery(req.Values(), !prune),
		key: "range?" + req.Canonical(),
	}
}

func (s *stream) cluster() request {
	req := api.ClusterRequest{Algo: "dbscan", Eps: s.t.eps, MinPts: 3, K: 8, Restarts: 1, Seed: 1}
	keepPrune := false
	switch s.t.w.traffic {
	case "zipf":
		req.Eps = s.t.eps * epsLadder[s.epsZipf.Uint64()]
	case "uniform":
		if s.comboPos == len(s.combos) {
			s.rng.Shuffle(len(s.combos), func(i, j int) { s.combos[i], s.combos[j] = s.combos[j], s.combos[i] })
			s.comboPos = 0
		}
		c := s.combos[s.comboPos]
		s.comboPos++
		s.u = math.Mod(s.u+goldenStep, 1)
		req.Algo, req.Workers = c.algo, c.workers
		req.Eps = s.t.eps * (0.5 + s.u)
		if c.algo == "kmedoids" {
			// A fixed seed keeps every k-medoids job the same amount of
			// work; the continuous ε still makes each key distinct.
			req.K = 10
		}
		if c.noPrune {
			off := false
			req.Prune = &off
			keepPrune = true
		}
	}
	return request{
		ep: epCluster, cl: req,
		url: "/v1/" + readDataset + "/cluster?" + encodeQuery(req.Values(), keepPrune),
		key: "cluster?" + req.Canonical(),
	}
}

// write draws one single-op batch from the insert:2 / move:1 / delete:1
// deck, addressed by point IDs below the live margin.
func (s *stream) write() request {
	if s.writePos == len(s.writeDeck) {
		s.rng.Shuffle(len(s.writeDeck), func(i, j int) { s.writeDeck[i], s.writeDeck[j] = s.writeDeck[j], s.writeDeck[i] })
		s.writePos = 0
	}
	kind := s.writeDeck[s.writePos]
	s.writePos++
	p := int32(s.rng.Intn(s.t.points - livePointMargin))
	op := api.MutateOp{Op: kind, Pos: s.rng.Float64()}
	switch kind {
	case "insert":
		op.Near = &p
	case "move":
		op.Point = &p
	default:
		op.Point = &p
		op.Pos = 0
	}
	body, err := json.Marshal(api.MutateRequest{Ops: []api.MutateOp{op}})
	if err != nil {
		panic(err) // a MutateRequest always marshals
	}
	ds := writeDataset
	if s.t.w.backend == "live" {
		ds = readDataset
	}
	return request{ep: epWrite, op: op, body: body, url: "/v1/datasets/" + ds + "/points"}
}

// withLabels returns the cluster request asking for per-point labels, for
// the label-level answer check.
func (r request) withLabels() request {
	cl := r.cl
	cl.Labels = true
	out := r
	out.cl = cl
	out.url = "/v1/" + readDataset + "/cluster?" + cl.Values().Encode()
	out.key = "cluster?" + cl.Canonical()
	return out
}

// describe renders a request for failure messages.
func (r request) describe() string {
	if r.ep == epWrite {
		return "POST " + r.url + " " + string(r.body)
	}
	return "GET " + r.url
}

package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/maphash"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"time"

	"netclus/internal/server"
	"netclus/internal/server/api"
)

// reqIDHeader carries the request ID from client span to handler span in a
// traced window.
const reqIDHeader = "X-Perfbench-Req"

// Answer samples: every sampleEvery-th request of an endpoint keeps its body
// for the check against the in-memory network, up to sampleCap per endpoint
// and client.
const (
	sampleEvery = 25
	sampleCap   = 24
)

// sampled is a served answer kept for checking.
type sampled struct {
	req  request
	body []byte
}

// acked is one committed write: its op and the epoch it produced, which
// orders the acked log.
type acked struct {
	id    int64
	epoch int64
	op    api.MutateOp
}

// record is one traced request: its client span, cache disposition and,
// for a miss, the request itself for the replay.
type record struct {
	id         int64
	ep         endpoint
	start, end int64 // ns since the window's time base
	cache      string
	req        request
}

// client is one closed-loop client: one keep-alive connection, one request
// in flight, the next sent only after the previous body is read.
type client struct {
	id        int
	hc        *http.Client
	tr        *http.Transport
	base      string
	stream    *shared
	immutable bool // answers for one key never change: check them
	traced    bool
	timeBase  time.Time

	lat       [numEndpoints][]float64 // ms, successful requests only
	attempted [numEndpoints]int
	failed    [numEndpoints]int
	firstErr  string
	// bodyHash maps a key's hash to the hash of the first body served for
	// it. Hashes, not strings, keep this map out of the GC's scan work.
	bodyHash map[uint64]uint64
	samples  [numEndpoints][]sampled
	acks     []acked
	split    map[string]int // successful cluster requests by algo/workers/prune
	records  []record
	at       [numEndpoints][]time.Duration // completion of each lat entry, from start
	start    time.Time                     // the window's start
	buf      bytes.Buffer
}

var hashSeed = maphash.MakeSeed()

func newClient(id int, base string, st *shared, immutable, traced bool, timeBase time.Time) *client {
	tr := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}
	return &client{
		id: id, tr: tr, hc: &http.Client{Transport: tr, Timeout: 60 * time.Second},
		base: base, stream: st, immutable: immutable, traced: traced, timeBase: timeBase,
		bodyHash: make(map[uint64]uint64), split: make(map[string]int),
	}
}

func (c *client) fail(ep endpoint, msg string) {
	c.failed[ep]++
	if c.firstErr == "" {
		c.firstErr = msg
	}
}

// loop sends requests until the deadline passes.
func (c *client) loop(deadline time.Time) {
	var seq int64
	var count [numEndpoints]int
	for time.Now().Before(deadline) {
		req := c.stream.next()
		id := int64(c.id)<<40 | seq
		seq++
		count[req.ep]++
		c.do(req, id, count[req.ep]%sampleEvery == 1)
	}
}

// probeWrites is how many single-op write batches the write probe sends:
// enough for a p99 with ten samples beyond it.
const probeWrites = 1000

// probe runs the write probe of a workload whose mix has no writes: before
// the window, every client sends its share of probeWrites writes, closed
// loop, to the write dataset. The traced run's delta metrics then exist on
// every workload, while the read window stays free of writes. The probe runs
// on the freshly booted server, so its latency does not depend on the heap
// or the cache state the read window leaves behind.
func probe(cs []*client) {
	var wg sync.WaitGroup
	for _, c := range cs {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			for i := 0; i < probeWrites/len(cs); i++ {
				c.do(c.stream.write(), int64(c.id)<<40|1<<39|int64(i), false)
			}
		}(c)
	}
	wg.Wait()
}

func (c *client) do(req request, id int64, sample bool) {
	ep := req.ep
	c.attempted[ep]++
	var hreq *http.Request
	var err error
	if ep == epWrite {
		hreq, err = http.NewRequest(http.MethodPost, c.base+req.url, bytes.NewReader(req.body))
		if err == nil {
			hreq.Header.Set("Content-Type", "application/json")
		}
	} else {
		hreq, err = http.NewRequest(http.MethodGet, c.base+req.url, nil)
	}
	if err != nil {
		c.fail(ep, err.Error())
		return
	}
	if c.traced {
		hreq.Header.Set(reqIDHeader, strconv.FormatInt(id, 10))
	}
	t0 := time.Now()
	resp, err := c.hc.Do(hreq)
	if err != nil {
		c.fail(ep, req.describe()+": "+err.Error())
		return
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	t1 := time.Now()
	if err != nil {
		c.fail(ep, req.describe()+": reading body: "+err.Error())
		return
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		c.fail(ep, req.describe()+": status "+strconv.Itoa(resp.StatusCode)+": "+c.buf.String())
		return
	}
	body := c.buf.Bytes()
	if !c.check(req, id, body) {
		return
	}
	c.lat[ep] = append(c.lat[ep], ms(t1.Sub(t0)))
	c.at[ep] = append(c.at[ep], t1.Sub(c.start))
	if ep == epCluster {
		prune := "default"
		if !req.cl.PruneEnabled() {
			prune = "off"
		}
		c.split[fmt.Sprintf("%s/workers=%d/prune=%s", req.cl.Algo, req.cl.Workers, prune)]++
	}
	if sample && ep != epWrite && len(c.samples[ep]) < sampleCap {
		c.samples[ep] = append(c.samples[ep], sampled{req: req, body: append([]byte(nil), body...)})
	}
	if c.traced {
		r := record{id: id, ep: ep, start: t0.Sub(c.timeBase).Nanoseconds(), end: t1.Sub(c.timeBase).Nanoseconds(),
			cache: resp.Header.Get("X-Netclusd-Cache")}
		if ep == epWrite || r.cache == "" || r.cache == "miss" {
			r.req = req
		}
		c.records = append(c.records, r)
	}
}

// check validates a 2xx answer during the window: a write must ack its one
// op; on immutable datasets every body served for one key must be the same
// bytes. A failed check counts the request as failed.
func (c *client) check(req request, id int64, body []byte) bool {
	if req.ep == epWrite {
		var mr api.MutateResponse
		if err := json.Unmarshal(body, &mr); err != nil || mr.Applied != 1 {
			c.fail(req.ep, req.describe()+": bad ack "+string(body))
			return false
		}
		c.acks = append(c.acks, acked{id: id, epoch: mr.Epoch, op: req.op})
		return true
	}
	h := maphash.Bytes(hashSeed, body)
	k := maphash.String(hashSeed, req.key)
	prev, seen := c.bodyHash[k]
	if !seen {
		c.bodyHash[k] = h
		return true
	}
	if c.immutable && prev != h {
		c.fail(req.ep, req.describe()+": body differs from an earlier answer for the same key")
		return false
	}
	return true
}

// window is the merged outcome of one timed window.
type window struct {
	clients   []*client
	dur       time.Duration // the window's nominal length
	probed    bool          // the write latencies come from the probe, not the window
	lat       [numEndpoints][]float64
	at        [numEndpoints][]time.Duration // completion of each lat entry, from the window's start
	attempted [numEndpoints]int
	failed    [numEndpoints]int
	keys      int // distinct canonical read keys
	reads     int // successful reads
	firstErr  string
	acks      []acked
	split     map[string]int
}

// waitCompacted waits until the live dataset d has no compaction running, so
// a compaction the probe started does not spill into the window.
func waitCompacted(d *server.Dataset) {
	for d.Live().Stats().CompactRunning {
		time.Sleep(time.Millisecond)
	}
}

// numClients is the closed-loop concurrency: one client per core of the
// 2-core host the benchmark is specified for.
const numClients = 2

// drive runs the window: numClients closed-loop clients against s for dur.
func drive(s *served, t *traffic, dur time.Duration, traced bool, timeBase time.Time) *window {
	immutable := t.w.backend != "live"
	cs := make([]*client, numClients)
	// The uniform workloads' clients draw from one sequence, so that the
	// sequence fixes which request waits behind each cluster job (see
	// pinCluster). The other workloads give each client its own.
	st := &shared{s: t.stream(0)}
	for i := range cs {
		if i > 0 && t.w.traffic != "uniform" {
			st = &shared{s: t.stream(i)}
		}
		cs[i] = newClient(i, s.base, st, immutable, traced, timeBase)
	}
	probed := t.w.mix[epWrite] == 0
	if probed {
		for _, c := range cs {
			c.start = time.Now()
		}
		probe(cs)
		waitCompacted(s.live)
	}
	// Every window starts from a collected heap, whatever set-up and the
	// probe left behind.
	runtime.GC()
	start := time.Now()
	deadline := start.Add(dur)
	for _, c := range cs {
		c.start = start
	}
	var wg sync.WaitGroup
	for _, c := range cs {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			c.loop(deadline)
		}(c)
	}
	wg.Wait()
	for _, c := range cs {
		c.tr.CloseIdleConnections()
	}
	win := &window{clients: cs, dur: dur, probed: probed, split: make(map[string]int)}
	keys := make(map[uint64]bool)
	for _, c := range cs {
		for e := range c.lat {
			win.lat[e] = append(win.lat[e], c.lat[e]...)
			win.at[e] = append(win.at[e], c.at[e]...)
			win.attempted[e] += c.attempted[e]
			win.failed[e] += c.failed[e]
			if endpoint(e) != epWrite {
				win.reads += len(c.lat[e])
			}
		}
		for k := range c.bodyHash {
			keys[k] = true
		}
		if win.firstErr == "" {
			win.firstErr = c.firstErr
		}
		win.acks = append(win.acks, c.acks...)
		for k, v := range c.split {
			win.split[k] += v
		}
	}
	win.keys = len(keys)
	return win
}

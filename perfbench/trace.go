package main

import (
	"bufio"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"netclus"
)

// span is one timed step of one request. Req is the request's ID, shared by
// all its spans; Parent names the span that caused this one ("" for the
// client.request root). Times are ns since the run's time base.
type span struct {
	name, parent string
	req          int64
	start, end   int64
}

func (s span) ns() float64 { return float64(s.end - s.start) }

// tracer records the spans of a traced window: the client spans come from
// the clients' records, the server.handler spans from the middleware it wraps
// around Server.Handler(). Spans stay in memory until the run ends.
type tracer struct {
	base       time.Time
	mu         sync.Mutex
	handler    []span
	pendingMax atomic.Int64
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

func (t *tracer) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id, err := strconv.ParseInt(r.Header.Get(reqIDHeader), 10, 64)
		start := time.Since(t.base).Nanoseconds()
		h.ServeHTTP(w, r)
		end := time.Since(t.base).Nanoseconds()
		if err != nil {
			return // not a window request (health probe, answer check)
		}
		t.mu.Lock()
		t.handler = append(t.handler, span{name: "server.handler", parent: "client.request", req: id, start: start, end: end})
		t.mu.Unlock()
	})
}

// samplePending polls the live dataset's pending delta ops until stop is
// closed, keeping the maximum.
func (t *tracer) samplePending(s *served, stop <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	tick := time.NewTicker(10 * time.Millisecond)
	defer tick.Stop()
	for {
		if p := s.live.Live().Stats().PendingOps; p > t.pendingMax.Load() {
			t.pendingMax.Store(p)
		}
		select {
		case <-stop:
			return
		case <-tick.C:
		}
	}
}

// gcCycles reads the completed GC cycle count.
func gcCycles() uint64 {
	s := []metrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

func tracedRun(e *env, w *workload, dur time.Duration) (*result, error) {
	half := dur / 2
	plain, err := measure(e, w, half, nil)
	if err != nil {
		return nil, err
	}
	if err := plain.s.close(); err != nil {
		return nil, err
	}
	tr := newTracer()
	gc0 := gcCycles()
	m, err := measure(e, w, half, tr)
	if err != nil {
		return nil, err
	}
	defer m.s.close()

	r := &result{Correct: true, Metrics: map[string]metric{}}
	r.outcome("untraced", plain.win, plain.k)
	plain.props.report(r)
	r.outcome("traced", m.win, m.k)
	m.props.report(r)

	base := endToEnd(plain.win, plain.setupS, plain.heapMiB)
	for name, v := range endToEnd(m.win, m.setupS, m.heapMiB) {
		r.Metrics["trace_overhead."+name] = metric{v.Value - base[name].Value, v.Unit}
	}
	lm := &layerMetrics{m: r.Metrics}
	windowLayers(lm, tr, m, gc0)

	rp, err := newReplayer(e, m, tr)
	if err != nil {
		return nil, err
	}
	defer rp.close()
	rp.run(lm)
	r.Failed += rp.k.failures
	if rp.k.first != "" {
		r.Correct = false
		r.notes = append(r.notes, "replay first failed check: "+rp.k.first)
	}
	for _, n := range lm.notApplicable {
		r.notes = append(r.notes, "not applicable on "+w.name+": "+n)
	}
	path, err := writeSpans(w.name, e.seed, tr, m.win, rp.spans)
	if err != nil {
		return nil, err
	}
	r.notes = append(r.notes, "spans written to "+path)
	return r, nil
}

// layerMetrics collects per-layer metrics.
type layerMetrics struct {
	m             map[string]metric
	notApplicable []string
}

func (l *layerMetrics) set(name, unit string, v float64) { l.m[name] = metric{v, unit} }

// ratio sets num/den, or 0 (noted as not applicable) when nothing was
// counted.
func (l *layerMetrics) ratio(name, unit string, num, den float64) {
	if den == 0 {
		l.notApplicable = append(l.notApplicable, name+" (nothing counted)")
		l.set(name, unit, 0)
		return
	}
	l.set(name, unit, num/den)
}

// windowLayers derives the metrics measured over the traced window itself:
// spans and counter deltas.
func windowLayers(l *layerMetrics, tr *tracer, m *measured, gc0 uint64) {
	before, after := m.counters.before, m.counters.after
	handler := make(map[int64]float64, len(tr.handler))
	var hd []float64
	for _, s := range tr.handler {
		handler[s.req] = s.ns()
		hd = append(hd, s.ns()/1e6)
	}
	var self []float64
	misses := 0
	for _, c := range m.win.clients {
		for _, rec := range c.records {
			if h, ok := handler[rec.id]; ok {
				self = append(self, (float64(rec.end-rec.start)-h)/1e6)
			}
			if rec.ep != epWrite && rec.req.url != "" {
				misses++
			}
		}
	}
	l.set("server.handler_p50_ms", "ms", quantile(hd, 0.5))
	l.set("server.handler_p99_ms", "ms", quantile(hd, 0.99))
	l.set("client.self_p50_ms", "ms", quantile(self, 0.5))

	l.set("server.cache_hit_ratio", "ratio", hitRatio(before.cache, after.cache))
	l.set("server.cache_containment_hits", "count", float64(after.cache.Containment-before.cache.Containment))
	l.set("server.singleflight_shared", "count", float64(after.cache.Shared-before.cache.Shared))
	l.set("server.admission_rejected", "count", float64(after.adm.Rejected-before.adm.Rejected))
	l.set("server.admission_timed_out", "count", float64(after.adm.TimedOut-before.adm.TimedOut))
	l.ratio("server.knn_batch_size", "req/batch", float64(after.knnReqs-before.knnReqs), float64(after.knnBatches-before.knnBatches))

	if before.hasStore {
		st := after.store.Sub(before.store)
		storeRatios(l, st, float64(misses))
	}
	if before.hasShard {
		shardCounters(l, before.shard, after.shard)
	}

	l.set("delta.write_p50_ms", "ms", sliced(m.win, epWrite, 0.5))
	l.set("delta.write_p99_ms", "ms", sliced(m.win, epWrite, 0.99))
	lb, la := before.live, after.live
	if _, _, maintained := m.s.live.Live().LiveParams(); maintained {
		l.ratio("delta.maintain_ms_per_batch", "ms", float64(la.LiveMaintainNS-lb.LiveMaintainNS)/1e6, float64(la.Batches-lb.Batches))
	} else {
		l.notApplicable = append(l.notApplicable, "delta.maintain_ms_per_batch (the write dataset keeps no labels)")
		l.set("delta.maintain_ms_per_batch", "ms", 0)
	}
	l.set("delta.compactions", "count", float64(la.Compactions-lb.Compactions))
	l.set("delta.max_pause_ms", "ms", la.MaxPauseMS)
	l.set("delta.compile_ms", "ms", la.LastCompileMS)
	l.set("delta.pending_ops_max", "count", float64(tr.pendingMax.Load()))
	l.set("delta.rejected", "count", float64(la.Rejected-lb.Rejected))

	var gs debug.GCStats
	debug.ReadGCStats(&gs)
	var pauses []float64
	for i, end := range gs.PauseEnd {
		if i < len(gs.Pause) && !end.Before(before.at) && !end.After(after.at) {
			pauses = append(pauses, ms(gs.Pause[i]))
		}
	}
	if len(pauses) == 0 {
		l.notApplicable = append(l.notApplicable, "runtime.gc_pause_p99_ms (no GC in the window)")
		pauses = []float64{0}
	}
	l.set("runtime.gc_pause_p99_ms", "ms", quantile(pauses, 0.99))
	l.set("runtime.gc_cycles", "count", float64(gcCycles()-gc0))
}

// storeRatios sets the page-buffer, record-cache and B+-tree metrics from a
// store counter delta over n cache misses (or replayed queries).
func storeRatios(l *layerMetrics, st netclus.StoreStats, n float64) {
	l.ratio("pagebuf.logical_reads_per_miss", "pages/miss", float64(st.Buffer.LogicalReads), n)
	l.ratio("pagebuf.physical_reads_per_miss", "pages/miss", float64(st.Buffer.PhysicalReads), n)
	l.ratio("pagebuf.hit_ratio", "ratio", float64(st.Buffer.LogicalReads-st.Buffer.PhysicalReads), float64(st.Buffer.LogicalReads))
	c := st.Cache
	l.ratio("storage.adj_cache_hit_ratio", "ratio", float64(c.AdjHits), float64(c.AdjHits+c.AdjMisses))
	l.ratio("storage.group_cache_hit_ratio", "ratio", float64(c.GroupHits), float64(c.GroupHits+c.GroupMisses))
	l.ratio("bptree.leaf_hint_hit_ratio", "ratio", float64(c.LeafHits), float64(c.LeafHits+c.LeafMisses))
}

// shardCounters sets the scatter-gather metrics from a counter delta.
func shardCounters(l *layerMetrics, before, after netclus.ShardedSetCounters) {
	q := float64(after.Queries - before.Queries)
	l.ratio("shard.rounds_per_query", "rounds/query", float64(after.Rounds-before.Rounds), q)
	l.ratio("shard.fanout_per_query", "runs/query", float64(after.Fanout-before.Fanout), q)
	var busy []float64
	sum, max := 0.0, 0.0
	for i := range after.PerShard {
		b := float64(after.PerShard[i].BusyNs)
		if i < len(before.PerShard) {
			b -= float64(before.PerShard[i].BusyNs)
		}
		busy = append(busy, b)
		sum += b
		if b > max {
			max = b
		}
	}
	mean := 0.0
	if len(busy) > 0 {
		mean = sum / float64(len(busy))
	}
	l.ratio("shard.busy_imbalance", "ratio", max, mean)
}

// writeSpans writes every span of the traced window and the replay as JSON
// lines under the build directory and returns the file's path.
func writeSpans(workload string, seed int64, tr *tracer, win *window, replay []span) (string, error) {
	dir := filepath.Join(buildDir, "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	bw := bufio.NewWriter(f)
	var line []byte
	emit := func(s span) {
		line = line[:0]
		line = append(line, `{"name":`...)
		line = strconv.AppendQuote(line, s.name)
		line = append(line, `,"parent":`...)
		line = strconv.AppendQuote(line, s.parent)
		line = append(line, `,"req":`...)
		line = strconv.AppendInt(line, s.req, 10)
		line = append(line, `,"start_ns":`...)
		line = strconv.AppendInt(line, s.start, 10)
		line = append(line, `,"end_ns":`...)
		line = strconv.AppendInt(line, s.end, 10)
		line = append(line, "}\n"...)
		bw.Write(line)
	}
	for _, c := range win.clients {
		for _, rec := range c.records {
			emit(span{name: "client.request", req: rec.id, start: rec.start, end: rec.end})
		}
	}
	for _, s := range tr.handler {
		emit(s)
	}
	for _, s := range replay {
		emit(s)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// sortedRecords returns the traced window's records in request-ID order
// (client, then sequence), the order the replay walks them in.
func sortedRecords(win *window) []record {
	var out []record
	for _, c := range win.clients {
		out = append(out, c.records...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

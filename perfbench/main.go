// Command perfbench is the netclusd benchmark. It boots netclusd in-process
// on a loopback listener, drives one workload from two closed-loop clients,
// checks the answers against the in-memory network, and prints the
// end-to-end metrics — or, with --trace 1, the per-layer metrics and the
// tracing overhead — as the last line of its output, one JSON object.
//
//	bash perfbench/run.sh --workload uniform-hot --seed 1 --seconds 20 --trace 0
//
// See README.md for the workloads and metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"net/http"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

// gomaxprocs is the parallelism the benchmark is specified for: two cores,
// shared by the server and its two clients.
const gomaxprocs = 2

func main() { os.Exit(run()) }

func run() int {
	wname := flag.String("workload", "", "workload: zipf-cold, uniform-hot, uniform-sharded or live-write")
	seed := flag.Int64("seed", 1, "seed of the request streams and the answer sample")
	seconds := flag.Float64("seconds", 20, "length of the timed window in seconds (a traced run splits it into an untraced and a traced half)")
	trace := flag.Int("trace", 0, "1 reports the per-layer metrics of a traced run instead of the end-to-end metrics")
	flag.Parse()
	w, err := lookupWorkload(*wname)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive")
		return 2
	}
	runtime.GOMAXPROCS(gomaxprocs)

	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	work, err := os.MkdirTemp(buildDir, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(work)

	e, err := newEnv(*seed, work)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Printf("workload=%s seed=%d gomaxprocs=%d nproc=%d go=%s commit=%s\n",
		w.name, *seed, runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version(), commit())
	fmt.Printf("dataset TG scale=1 nodes=%d edges=%d points=%d clusters=%d eps=%.6g\n",
		e.net.NumNodes(), e.net.NumEdges(), e.net.NumPoints(), e.cfg.K, e.eps)

	dur := time.Duration(*seconds * float64(time.Second))
	var res *result
	if *trace == 1 {
		res, err = tracedRun(e, w, dur)
	} else {
		res, err = timedRun(e, w, dur)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	res.print()
	if !res.Correct {
		return 1
	}
	return 0
}

// buildDir is where the build and the runs keep their files, relative to
// the checkout root the benchmark runs from.
const buildDir = ".bench_build"

func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	notes []string
}

func (r *result) print() {
	for _, n := range r.notes {
		fmt.Println(n)
	}
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-40s %14.6g %s\n", n, r.Metrics[n].Value, r.Metrics[n].Unit)
	}
	b, err := json.Marshal(r)
	if err != nil {
		panic(err) // metrics are finite by construction
	}
	fmt.Println(string(b))
}

// quantile is the nearest-rank q-quantile of xs (sorted in place).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}

func median(xs []float64) float64 { return quantile(append([]float64(nil), xs...), 0.5) }

// A window is cut into equal time slices; a latency percentile is computed
// per slice and the median over the slices is reported, and so is the
// throughput. A burst of interference on a shared host then moves a run's
// figures only when it spans half the window. Every slice keeps at least
// minPerSlice samples, so each slice's p99 has a hundred samples beyond it;
// an endpoint with fewer than 2·minPerSlice samples is one slice.
const (
	maxSlices   = 10
	minPerSlice = 10000
)

// slot is the slice, of k, that a completion at offset t falls in.
func slot(t, dur time.Duration, k int) int {
	return max(0, min(int(int64(t)*int64(k)/int64(dur)), k-1))
}

// sliced returns the median over the window's slices of the q-quantile of
// endpoint ep's latencies.
func sliced(win *window, ep endpoint, q float64) float64 {
	k := max(1, min(maxSlices, len(win.lat[ep])/minPerSlice))
	parts := make([][]float64, k)
	for i, l := range win.lat[ep] {
		s := slot(win.at[ep][i], win.dur, k)
		parts[s] = append(parts[s], l)
	}
	var vals []float64
	for _, p := range parts {
		if len(p) > 0 {
			vals = append(vals, quantile(p, q))
		}
	}
	return median(vals)
}

// endToEnd computes the end-to-end metrics of a window. Write latency is not
// one of them: on the read workloads it would come from the write probe, and
// the cost of a write there depends on overlay state that earlier writes
// left, so the probe's write percentiles swing from run to run. The traced
// run reports it as delta.write_p50_ms and delta.write_p99_ms, and on
// live-write it sets throughput_rps. Cluster latency is reported at p98: a
// cluster request takes the whole admission capacity, so on zipf-cold about
// 1% of them wait behind a slow request of the other client, and their p99
// sits on the edge of that wait.
func endToEnd(win *window, setupS, heapMiB float64) map[string]metric {
	m := map[string]metric{}
	for ep := endpoint(0); ep < epWrite; ep++ {
		m[endpointNames[ep]+"_p50_ms"] = metric{sliced(win, ep, 0.5), "ms"}
	}
	m["knn_p99_ms"] = metric{sliced(win, epKNN, 0.99), "ms"}
	m["range_p99_ms"] = metric{sliced(win, epRange, 0.99), "ms"}
	m["cluster_p98_ms"] = metric{sliced(win, epCluster, 0.98), "ms"}
	counts := make([]float64, maxSlices)
	for ep := range win.at {
		if endpoint(ep) == epWrite && win.probed {
			continue
		}
		for _, t := range win.at[ep] {
			if t < win.dur { // the last in-flight requests fall outside
				counts[slot(t, win.dur, maxSlices)]++
			}
		}
	}
	m["throughput_rps"] = metric{median(counts) * maxSlices / win.dur.Seconds(), "req/s"}
	m["setup_s"] = metric{setupS, "s"}
	m["setup_heap_mb"] = metric{heapMiB, "MiB"}
	return m
}

// outcome folds a window's request counts and check results into r and
// adds the per-endpoint report lines.
func (r *result) outcome(label string, win *window, k *checker) {
	for ep := endpoint(0); ep < numEndpoints; ep++ {
		r.Attempted += win.attempted[ep]
		r.Failed += win.failed[ep]
		lat := append([]float64(nil), win.lat[ep]...)
		r.notes = append(r.notes, fmt.Sprintf("%s %-8s attempted=%d ok=%d failed=%d ms p10=%.4g p50=%.4g p90=%.4g p99=%.4g max=%.4g",
			label, endpointNames[ep], win.attempted[ep], len(win.lat[ep]), win.failed[ep],
			quantile(lat, 0.1), quantile(lat, 0.5), quantile(lat, 0.9), quantile(lat, 0.99), quantile(lat, 1)))
	}
	if win.firstErr != "" {
		r.notes = append(r.notes, label+" first failed request: "+win.firstErr)
	}
	r.Failed += k.failures
	if k.first != "" {
		r.notes = append(r.notes, label+" first failed check: "+k.first)
	}
	for ep := range win.lat {
		if len(win.lat[ep]) == 0 {
			r.Correct = false
			r.notes = append(r.notes, fmt.Sprintf("%s no successful %s request", label, endpointNames[ep]))
		}
	}
	if r.Failed > 0 {
		r.Correct = false
	}
}

// measured is one booted, driven and checked window.
type measured struct {
	s        *served
	win      *window
	k        *checker
	props    *props
	setupS   float64
	heapMiB  float64
	counters *counters // nil unless traced
}

// measure boots netclusd fresh (timing the set-up setupReps times), drives
// one window and checks it. The server is left running for the caller.
func measure(e *env, w *workload, dur time.Duration, tr *tracer) (*measured, error) {
	var wrap func(h http.Handler) http.Handler
	if tr != nil {
		wrap = tr.wrap
	}
	s, setupS, heap, err := e.bootMeasured(w, wrap)
	if err != nil {
		return nil, err
	}
	ctx := context.Background()
	k := &checker{e: e}
	t := newTraffic(w, e.seed, e.eps, e.net.NumPoints())
	if w.backend == "live" {
		k.checkLivePre(ctx, s, t)
	}
	m := &measured{s: s, k: k, setupS: setupS, heapMiB: heap}
	before := snapshot(s)
	var timeBase time.Time
	stop, done := make(chan struct{}), make(chan struct{})
	if tr != nil {
		timeBase = tr.base
		go tr.samplePending(s, stop, done)
	} else {
		close(done)
	}
	m.win = drive(s, t, dur, tr != nil, timeBase)
	close(stop)
	<-done
	after := snapshot(s)
	if tr != nil {
		m.counters = &counters{before: before, after: after}
	}
	k.checkWindow(ctx, s, m.win)
	k.checkLive(ctx, s.live, before.live.Ops, len(m.win.acks))
	m.props = trafficProps(w, m.win, before, after)
	return m, nil
}

func timedRun(e *env, w *workload, dur time.Duration) (*result, error) {
	m, err := measure(e, w, dur, nil)
	if err != nil {
		return nil, err
	}
	defer m.s.close()
	r := &result{Correct: true, Metrics: endToEnd(m.win, m.setupS, m.heapMiB)}
	r.outcome("window", m.win, m.k)
	m.props.report(r)
	return r, nil
}

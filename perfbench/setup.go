package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"time"

	"netclus"
	"netclus/internal/server"
)

// The paper's physical parameters for the disk store (§5): 4 KB pages and a
// 1 MB LRU buffer pool.
var storeOptions = netclus.StoreOptions{PageSize: 4096, BufferBytes: 1 << 20}

// compactOps is the live datasets' compaction threshold. A write that
// empties a point group, or puts points on an edge that had none, makes
// every later write copy the whole base adjacency (about 3 ms on TG) until
// the next compaction. With compaction every 256 ops those stretches lasted
// up to 256 writes, and live-write throughput swung between 775 and 1,340
// req/s over six seeds. Every 64 ops bounds each stretch to 64 writes, and
// live-write still runs far more than the five compaction cycles it needs.
const compactOps = 64

// env is a run's fixed input: the TG road network with its generated points
// and, on disk, the store built from it. Generating it is not set-up.
type env struct {
	seed     int64
	net      *netclus.Network
	cfg      netclus.ClusterConfig
	eps      float64
	storeDir string
	storeMS  float64 // wall time of BuildStore
}

func newEnv(seed int64, work string) (*env, error) {
	n, cfg, err := netclus.RoadDataset("TG", 1, 10)
	if err != nil {
		return nil, fmt.Errorf("generating TG: %w", err)
	}
	e := &env{seed: seed, net: n, cfg: cfg, eps: cfg.Eps(), storeDir: filepath.Join(work, "tg.store")}
	if err := os.MkdirAll(e.storeDir, 0o755); err != nil {
		return nil, err
	}
	t0 := time.Now()
	if err := netclus.BuildStore(e.storeDir, n, storeOptions); err != nil {
		return nil, fmt.Errorf("building store: %w", err)
	}
	e.storeMS = ms(time.Since(t0))
	return e, nil
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// liveOptions configures a live dataset: compaction every compactOps ops
// and, with labels, DBSCAN labels maintained at the generator's ε with
// MinPts 3.
func (e *env) liveOptions(labels bool) netclus.LiveOptions {
	o := netclus.LiveOptions{CompactOps: compactOps}
	if labels {
		o.Live = &netclus.LiveClusterOptions{Eps: e.eps, MinPts: 3}
	}
	return o
}

// served is one booted netclusd: a fresh registry, server and listener.
type served struct {
	srv   *server.Server
	read  *server.Dataset // the dataset the workload reads
	live  *server.Dataset // the dataset the writes go to
	base  string          // http://host:port
	hs    *http.Server    // non-nil when a traced handler serves instead of srv
	done  chan error      // Serve's return value
	setup time.Duration
}

// readDatasetFor builds the workload's read dataset, the program's own
// set-up work for that backend.
func (e *env) readDatasetFor(w *workload) (*server.Dataset, error) {
	switch w.backend {
	case "store":
		return server.NewStoreDataset(readDataset, e.storeDir, storeOptions, netclus.DefaultLandmarks, false)
	case "hot":
		return server.NewNetworkDataset(readDataset, "TG", e.net, netclus.DefaultLandmarks, true)
	case "sharded":
		set, err := netclus.PartitionNetwork(e.net, 2)
		if err != nil {
			return nil, err
		}
		return server.NewShardedDataset(readDataset, "TG", set)
	default:
		return e.liveDataset(readDataset, true)
	}
}

func (e *env) liveDataset(name string, labels bool) (*server.Dataset, error) {
	snap, err := netclus.Compile(e.net)
	if err != nil {
		return nil, err
	}
	return server.NewLiveDataset(name, "TG", snap, e.liveOptions(labels))
}

// boot sets up datasets and server from nothing and starts serving on a
// loopback listener. The returned set-up time runs from the first dataset
// constructor until /healthz answers. With wrap non-nil the listener is
// served by an http.Server whose handler is wrap(srv.Handler()).
func (e *env) boot(w *workload, wrap func(http.Handler) http.Handler) (*served, error) {
	t0 := time.Now()
	reg := server.NewRegistry()
	read, err := e.readDatasetFor(w)
	if err != nil {
		return nil, fmt.Errorf("set-up of %s: %w", w.backend, err)
	}
	if err := reg.Add(read); err != nil {
		return nil, err
	}
	live := read
	if w.backend != "live" {
		if live, err = e.liveDataset(writeDataset, false); err != nil {
			reg.Close()
			return nil, fmt.Errorf("set-up of the write dataset: %w", err)
		}
		if err := reg.Add(live); err != nil {
			reg.Close()
			return nil, err
		}
	}
	srv, err := server.New(server.Config{Registry: reg})
	if err != nil {
		reg.Close()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		reg.Close()
		return nil, err
	}
	s := &served{srv: srv, read: read, live: live, base: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	if wrap != nil {
		s.hs = &http.Server{Handler: wrap(srv.Handler())}
		go func() { s.done <- s.hs.Serve(ln) }()
	} else {
		go func() { s.done <- srv.Serve(ln) }()
	}
	if err := waitHealthy(s.base); err != nil {
		s.close()
		return nil, err
	}
	s.setup = time.Since(t0)
	return s, nil
}

func waitHealthy(base string) error {
	c := &http.Client{Timeout: 5 * time.Second, Transport: &http.Transport{DisableKeepAlives: true}}
	resp, err := c.Get(base + "/healthz")
	if err != nil {
		return fmt.Errorf("healthz: %w", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("healthz: status %d", resp.StatusCode)
	}
	return nil
}

// close drains the server, closes its datasets and waits for Serve to
// return.
func (s *served) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var err error
	if s.hs != nil {
		err = s.hs.Shutdown(ctx)
	}
	if serr := s.srv.Shutdown(ctx); err == nil {
		err = serr
	}
	if serr := <-s.done; err == nil && serr != http.ErrServerClosed {
		err = serr
	}
	return err
}

// liveHeapMiB forces two collections and reads the live heap.
func liveHeapMiB() float64 {
	runtime.GC()
	runtime.GC()
	sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(sample)
	return float64(sample[0].Value.Uint64()) / (1 << 20)
}

// setupReps is how many times a run boots netclusd to time set-up; the
// median is reported and the last boot serves the window.
const setupReps = 7

// bootMeasured boots setupReps times, closing all but the last, and returns
// the median set-up time and the live heap the set-up added.
func (e *env) bootMeasured(w *workload, wrap func(http.Handler) http.Handler) (*served, float64, float64, error) {
	base := liveHeapMiB()
	var times []float64
	var s *served
	for i := 0; i < setupReps; i++ {
		if s != nil {
			if err := s.close(); err != nil {
				return nil, 0, 0, err
			}
			runtime.GC()
		}
		var err error
		if s, err = e.boot(w, wrap); err != nil {
			return nil, 0, 0, err
		}
		times = append(times, s.setup.Seconds())
	}
	heap := liveHeapMiB() - base
	return s, median(times), heap, nil
}

package main

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"netclus"
	"netclus/internal/server"
)

// snap is every public counter the benchmark reads, taken at one instant.
type snap struct {
	at         time.Time
	cache      server.ResultCacheStatsSnapshot
	adm        server.AdmissionStats
	knnBatches int64
	knnReqs    int64
	store      netclus.StoreStats
	hasStore   bool
	live       netclus.LiveStats
	shard      netclus.ShardedSetCounters
	hasShard   bool
	prune      netclus.PruneStats
}

func snapshot(s *served) snap {
	sn := snap{at: time.Now(), adm: s.srv.Admission().Stats(), live: s.live.Live().Stats(), prune: s.read.PruneStats()}
	if c := s.srv.ResultCache(); c != nil {
		sn.cache = c.Stats()
	}
	sn.knnBatches, sn.knnReqs = s.srv.Metrics().KNNBatchCounts()
	sn.store, sn.hasStore = s.read.StoreStats()
	if set := s.read.Sharded(); set != nil {
		sn.shard, sn.hasShard = set.Counters(), true
	}
	return sn
}

// counters is a window's before and after snapshots.
type counters struct{ before, after snap }

// props is a run's traffic property: what the workload was built to make the
// server do, checked so a drifting mix cannot silently change what a
// workload measures.
type props struct {
	w             *workload
	hitRatio      float64
	distinctShare float64
	split         map[string]int
	compactions   int64
	violation     string
}

// Traffic property limits.
const (
	zipfMinHitRatio    = 0.8
	uniformMaxHitRatio = 0.05
	liveMinCompactions = 5
)

func hitRatio(before, after server.ResultCacheStatsSnapshot) float64 {
	hits := after.Hits - before.Hits + after.Containment - before.Containment
	lookups := hits + after.Misses - before.Misses
	if lookups == 0 {
		return 0
	}
	return float64(hits) / float64(lookups)
}

func trafficProps(w *workload, win *window, before, after snap) *props {
	p := &props{w: w, hitRatio: hitRatio(before.cache, after.cache), split: win.split,
		compactions: after.live.Compactions - before.live.Compactions}
	if win.reads > 0 {
		p.distinctShare = float64(win.keys) / float64(win.reads)
	}
	switch {
	case w.traffic == "zipf" && p.hitRatio < zipfMinHitRatio:
		p.violation = fmt.Sprintf("cache hit ratio %.3f below %.2f", p.hitRatio, zipfMinHitRatio)
	case w.traffic == "uniform" && p.hitRatio > uniformMaxHitRatio:
		p.violation = fmt.Sprintf("cache hit ratio %.3f above %.2f", p.hitRatio, uniformMaxHitRatio)
	case w.backend == "live" && p.compactions < liveMinCompactions:
		p.violation = fmt.Sprintf("%d compactions, fewer than %d", p.compactions, liveMinCompactions)
	}
	return p
}

// report adds the property lines to r and fails it on a violation.
func (p *props) report(r *result) {
	keys := make([]string, 0, len(p.split))
	for k := range p.split {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = fmt.Sprintf("%s:%d", k, p.split[k])
	}
	r.notes = append(r.notes,
		fmt.Sprintf("traffic cache_hit_ratio=%.4f distinct_key_share=%.4f compactions=%d", p.hitRatio, p.distinctShare, p.compactions),
		"traffic cluster split "+strings.Join(parts, " "))
	if p.violation != "" {
		r.Correct = false
		r.notes = append(r.notes, "traffic property violated on "+p.w.name+": "+p.violation)
	}
}

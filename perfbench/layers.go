package main

import (
	"os"
	"path/filepath"

	"orchestra/internal/core"
	"orchestra/internal/metrics"
)

// coreLayers reports the engine's stage times and work counters from the
// Result.Stats of every reconcile in the timed phase; deferred is the
// number of roots those reconciles left deferred.
func coreLayers(l metricSet, stats []core.ReconcileStats, deferred int) {
	stage := func(f func(core.ReconcileStats) int64) []float64 {
		out := make([]float64, len(stats))
		for i, s := range stats {
			out[i] = float64(f(s)) / 1e6
		}
		return out
	}
	l.setPct("core.check_ms_p50", stage(func(s core.ReconcileStats) int64 { return s.CheckNanos }), 0.5, "ms")
	l.setPct("core.conflict_ms_p50", stage(func(s core.ReconcileStats) int64 { return s.ConflictNanos }), 0.5, "ms")
	l.setPct("core.group_ms_p50", stage(func(s core.ReconcileStats) int64 { return s.GroupNanos }), 0.5, "ms")
	l.setPct("core.apply_ms_p50", stage(func(s core.ReconcileStats) int64 { return s.ApplyNanos }), 0.5, "ms")
	l.setPct("core.softstate_ms_p50", stage(func(s core.ReconcileStats) int64 { return s.SoftStateNanos }), 0.5, "ms")
	var cands, pairs, carried float64
	for _, s := range stats {
		cands += float64(s.Candidates)
		pairs += float64(s.ConflictPairs)
		carried += float64(s.DeferredCarried)
	}
	if n := float64(len(stats)); n > 0 {
		l.set("core.candidates", cands/n, "count")
		l.set("core.conflict_pairs", pairs/n, "count")
		l.set("core.deferred_carried", carried/n, "count")
	}
	if cands > 0 {
		l.set("core.decided_ratio", (cands-float64(deferred))/cands, "ratio")
	}
}

// storeLayers reports the central store's and the database's counter
// deltas over the timed phase, per txn published in it.
func storeLayers(l metricSet, st metrics.StoreSnapshot, db metrics.DBSnapshot, txns float64) {
	l.set("central.epoch_contention", float64(st.EpochContention), "count")
	l.set("central.peer_contention", float64(st.PeerContention), "count")
	l.set("central.shard_contention", float64(st.ShardContentionTotal()), "count")
	l.set("central.dedup_hits", float64(st.DedupHits), "count")
	dbLayers(l, db, txns)
}

func dbLayers(l metricSet, db metrics.DBSnapshot, txns float64) {
	if txns > 0 {
		l.set("reldb.commits_per_txn", float64(db.Commits)/txns, "commit/txn")
		l.set("wal.flushes_per_txn", float64(db.GroupFlushes+db.WALAppends)/txns, "flush/txn")
	}
	if db.GroupFlushes > 0 {
		l.set("reldb.commits_per_flush", float64(db.GroupedCommits)/float64(db.GroupFlushes), "commit/flush")
	}
	l.set("reldb.group_peak", float64(db.GroupPeak), "count")
	if db.Commits > 0 {
		l.set("reldb.table_waits_per_1k_commits", 1000*float64(db.TableWaits)/float64(db.Commits), "count")
	}
}

// spanLayers reports the median of each named span's duration, and the
// 99th percentile too for publishes.
func spanLayers(l metricSet, tr *tracer, names ...string) {
	for _, n := range names {
		d := tr.durations(n)
		l.setPct(n+"_ms_p50", d, 0.5, "ms")
		if n == "central.publish" {
			l.setPct(n+"_ms_p99", d, 0.99, "ms")
		}
	}
}

func runtimeLayers(l metricSet, ph phaseResult, txns float64) {
	if txns > 0 {
		l.set("runtime.alloc_mb_per_txn", ph.allocMB/txns, "MB/txn")
	}
	l.set("runtime.gc_cpu_fraction", ph.gcCPUFrac, "ratio")
}

func subStore(a, b metrics.StoreSnapshot) metrics.StoreSnapshot {
	return metrics.StoreSnapshot{
		EpochContention: a.EpochContention - b.EpochContention,
		PeerContention:  a.PeerContention - b.PeerContention,
		DedupHits:       a.DedupHits - b.DedupHits,
		ShardContention: []int64{a.ShardContentionTotal() - b.ShardContentionTotal()},
	}
}

func addStore(a, b metrics.StoreSnapshot) metrics.StoreSnapshot {
	return metrics.StoreSnapshot{
		EpochContention: a.EpochContention + b.EpochContention,
		PeerContention:  a.PeerContention + b.PeerContention,
		DedupHits:       a.DedupHits + b.DedupHits,
		ShardContention: []int64{a.ShardContentionTotal() + b.ShardContentionTotal()},
	}
}

func subDB(a, b metrics.DBSnapshot) metrics.DBSnapshot {
	return metrics.DBSnapshot{
		Commits:        a.Commits - b.Commits,
		WALAppends:     a.WALAppends - b.WALAppends,
		GroupFlushes:   a.GroupFlushes - b.GroupFlushes,
		GroupedCommits: a.GroupedCommits - b.GroupedCommits,
		GroupPeak:      a.GroupPeak, // a high-water mark: not a delta
		TableWaits:     a.TableWaits - b.TableWaits,
	}
}

func addDB(a, b metrics.DBSnapshot) metrics.DBSnapshot {
	out := metrics.DBSnapshot{
		Commits:        a.Commits + b.Commits,
		WALAppends:     a.WALAppends + b.WALAppends,
		GroupFlushes:   a.GroupFlushes + b.GroupFlushes,
		GroupedCommits: a.GroupedCommits + b.GroupedCommits,
		GroupPeak:      a.GroupPeak,
		TableWaits:     a.TableWaits + b.TableWaits,
	}
	if b.GroupPeak > out.GroupPeak {
		out.GroupPeak = b.GroupPeak
	}
	return out
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if info.Mode().IsRegular() {
			n += info.Size()
		}
		return nil
	})
	return n, err
}

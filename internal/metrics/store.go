package metrics

import (
	"fmt"
	"sync/atomic"
)

// atomicMax raises peak to at least v (lock-free, concurrent-safe); the
// shared high-water-mark primitive behind every peak gauge in this
// package.
func atomicMax(peak *atomic.Int64, v int64) {
	for {
		cur := peak.Load()
		if v <= cur || peak.CompareAndSwap(cur, v) {
			return
		}
	}
}

// StoreCounters aggregates concurrency counters for an update store: how
// often the publish and reconcile paths contended on the store's internal
// locks (the sharding signal — a hot counter means the shards are too
// coarse) and how the batched decision-recording path is used (the
// round-trip signal — decisions per round trip is the batching win). All
// methods are safe for concurrent use and nil-safe, so an uninstrumented
// store can carry a nil *StoreCounters.
type StoreCounters struct {
	publishes       atomic.Int64
	epochContention atomic.Int64
	peerContention  atomic.Int64

	decisionTrips atomic.Int64
	decisionPeers atomic.Int64
	decisions     atomic.Int64
	batchPeak     atomic.Int64

	snapshots       atomic.Int64
	compactions     atomic.Int64
	compactedEpochs atomic.Int64

	dedupHits atomic.Int64

	trustRecompiles atomic.Int64

	// shards carries per-epoch-shard publish counters; sized once by
	// InitShards before the store goes concurrent, then only the atomics
	// move.
	shards []shardCounter
}

// shardCounter tracks one table shard: how many publish commits it served
// and how many of them arrived while another publish was already committing
// into the same shard (the serialization the sharding exists to avoid —
// a hot contended counter means epochs are hashing onto too few shards).
type shardCounter struct {
	publishes atomic.Int64
	contended atomic.Int64
	inflight  atomic.Int64
}

// InitShards sizes the per-shard counters. Call once, before any
// EnterShard/LeaveShard; nil-safe like every other method.
func (c *StoreCounters) InitShards(n int) {
	if c == nil || n <= 0 {
		return
	}
	c.shards = make([]shardCounter, n)
}

// EnterShard records a publish commit entering table shard k, counting it
// as contended when another publish is already in flight on the same shard.
func (c *StoreCounters) EnterShard(k int) {
	if c == nil || k < 0 || k >= len(c.shards) {
		return
	}
	sh := &c.shards[k]
	sh.publishes.Add(1)
	if sh.inflight.Add(1) > 1 {
		sh.contended.Add(1)
	}
}

// LeaveShard records the publish commit leaving shard k.
func (c *StoreCounters) LeaveShard(k int) {
	if c == nil || k < 0 || k >= len(c.shards) {
		return
	}
	c.shards[k].inflight.Add(-1)
}

// ObservePublish counts one Publish call.
func (c *StoreCounters) ObservePublish() {
	if c == nil {
		return
	}
	c.publishes.Add(1)
}

// ObserveEpochContention counts one publisher that had to wait for the
// epoch-allocation critical section.
func (c *StoreCounters) ObserveEpochContention() {
	if c == nil {
		return
	}
	c.epochContention.Add(1)
}

// ObservePeerContention counts one caller that had to wait for a per-peer
// publish/reconcile shard lock.
func (c *StoreCounters) ObservePeerContention() {
	if c == nil {
		return
	}
	c.peerContention.Add(1)
}

// ObserveDecisionRoundTrip records one decision-recording round trip
// carrying the outcomes of peers reconciliations and decisions total
// accept/reject decisions.
func (c *StoreCounters) ObserveDecisionRoundTrip(peers, decisions int) {
	if c == nil {
		return
	}
	c.decisionTrips.Add(1)
	c.decisionPeers.Add(int64(peers))
	c.decisions.Add(int64(decisions))
	atomicMax(&c.batchPeak, int64(peers))
}

// ObserveDedupHit counts one idempotency-keyed call answered from the
// dedup record of an earlier delivery instead of re-executing — each hit is
// a duplicate that would have double-applied without the key.
func (c *StoreCounters) ObserveDedupHit() {
	if c == nil {
		return
	}
	c.dedupHits.Add(1)
}

// ObserveTrustRecompiles counts n effective policies rebuilt by one
// trust registration — the incremental re-evaluation cost of a
// mid-stream mapping change (1 for an isolated peer or an edit the
// delegators' caps hide, more when other participants' effective
// policies change with it).
func (c *StoreCounters) ObserveTrustRecompiles(n int) {
	if c == nil || n <= 0 {
		return
	}
	c.trustRecompiles.Add(int64(n))
}

// ObserveSnapshot counts one retained engine-state snapshot written.
func (c *StoreCounters) ObserveSnapshot() {
	if c == nil {
		return
	}
	c.snapshots.Add(1)
}

// ObserveCompaction counts one compaction pass that dropped the given
// number of epochs from the publish tables.
func (c *StoreCounters) ObserveCompaction(epochs int) {
	if c == nil {
		return
	}
	c.compactions.Add(1)
	c.compactedEpochs.Add(int64(epochs))
}

// StoreSnapshot is a point-in-time copy of StoreCounters.
type StoreSnapshot struct {
	Publishes       int64 // Publish calls
	EpochContention int64 // epoch-allocation lock waits
	PeerContention  int64 // per-peer shard lock waits

	DecisionRoundTrips int64 // decision-recording store calls
	DecisionPeers      int64 // reconciliation outcomes carried by those calls
	Decisions          int64 // individual accept/reject decisions recorded
	BatchPeak          int64 // most outcomes carried by a single round trip

	Snapshots       int64 // retained engine-state snapshots written
	Compactions     int64 // compaction passes that dropped rows
	CompactedEpochs int64 // epochs dropped from the publish tables

	DedupHits int64 // duplicate keyed deliveries answered from dedup state

	TrustRecompiles int64 // effective policies rebuilt across all registrations

	ShardPublishes  []int64 // publish commits per table shard (nil when unsharded)
	ShardContention []int64 // same-shard publish overlaps per table shard
}

// Snapshot returns a copy of the counters (each field read atomically).
// A nil receiver yields the zero snapshot.
func (c *StoreCounters) Snapshot() StoreSnapshot {
	if c == nil {
		return StoreSnapshot{}
	}
	snap := StoreSnapshot{
		Publishes:          c.publishes.Load(),
		EpochContention:    c.epochContention.Load(),
		PeerContention:     c.peerContention.Load(),
		DecisionRoundTrips: c.decisionTrips.Load(),
		DecisionPeers:      c.decisionPeers.Load(),
		Decisions:          c.decisions.Load(),
		BatchPeak:          c.batchPeak.Load(),
		Snapshots:          c.snapshots.Load(),
		Compactions:        c.compactions.Load(),
		CompactedEpochs:    c.compactedEpochs.Load(),
		DedupHits:          c.dedupHits.Load(),
		TrustRecompiles:    c.trustRecompiles.Load(),
	}
	if len(c.shards) > 0 {
		snap.ShardPublishes = make([]int64, len(c.shards))
		snap.ShardContention = make([]int64, len(c.shards))
		for i := range c.shards {
			snap.ShardPublishes[i] = c.shards[i].publishes.Load()
			snap.ShardContention[i] = c.shards[i].contended.Load()
		}
	}
	return snap
}

// ShardContentionTotal sums same-shard publish overlaps across all shards.
func (s StoreSnapshot) ShardContentionTotal() int64 {
	var n int64
	for _, v := range s.ShardContention {
		n += v
	}
	return n
}

// String renders the snapshot as a compact one-line summary.
func (s StoreSnapshot) String() string {
	return fmt.Sprintf(
		"publishes=%d epochwait=%d peerwait=%d dtrips=%d dpeers=%d decisions=%d batchpeak=%d shardwait=%d",
		s.Publishes, s.EpochContention, s.PeerContention,
		s.DecisionRoundTrips, s.DecisionPeers, s.Decisions, s.BatchPeak,
		s.ShardContentionTotal())
}

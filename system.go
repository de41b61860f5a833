package orchestra

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"orchestra/internal/core"
	"orchestra/internal/metrics"
	"orchestra/internal/simnet"
	"orchestra/internal/store"
	"orchestra/internal/store/central"
	"orchestra/internal/store/dhtstore"
)

// System wires a confederation of peers to an update store. It is a
// convenience for embedding; peers can equally be constructed directly
// against any Store implementation.
type System struct {
	schema      *Schema
	cs          *central.Store
	cluster     *dhtstore.Cluster
	net         *simnet.Network
	peers       map[PeerID]*Peer
	order       []PeerID
	fanout      int
	interleaved bool
	storeFor    func(core.PeerID) (store.Store, error)
	pstats      metrics.Pipeline

	streamPoll      time.Duration
	streamRetryBase time.Duration
	streamRetryMax  time.Duration
	streamObs       func(store.StreamResult)
}

// SystemOption configures NewSystem.
type SystemOption func(*systemConfig)

type systemConfig struct {
	dir         string
	distributed bool
	latency     time.Duration
	fanout      int
	interleaved bool
	storeFor    func(core.PeerID) (store.Store, error)

	streamPoll      time.Duration
	streamRetryBase time.Duration
	streamRetryMax  time.Duration
	streamObs       func(store.StreamResult)
}

// WithStoreDir makes the central store durable in the given directory.
func WithStoreDir(dir string) SystemOption {
	return func(c *systemConfig) { c.dir = dir }
}

// WithDistributedStore uses the DHT-based update store with the given
// per-message latency (the paper's 500µs if zero). Each added peer joins
// the overlay as a storage node.
func WithDistributedStore(latency time.Duration) SystemOption {
	return func(c *systemConfig) {
		c.distributed = true
		c.latency = latency
	}
}

// WithReconcileFanOut bounds the number of peers ReconcileAll drives
// concurrently. n <= 0 (the default) uses runtime.GOMAXPROCS(0). The bound
// affects concurrency only, never semantics: every fan-out (including 1)
// runs the same publish-barrier round, so results do not depend on the
// host's core count.
func WithReconcileFanOut(n int) SystemOption {
	return func(c *systemConfig) { c.fanout = n }
}

// WithInterleavedReconcile restores the historical strictly sequential
// ReconcileAll pass: each peer publishes and reconciles in registration
// order, so a peer only sees the same-round publications of peers
// registered before it. Useful for reproducing the paper's per-peer
// reconciliation cadence; implies a fan-out of 1.
func WithInterleavedReconcile() SystemOption {
	return func(c *systemConfig) { c.interleaved = true }
}

// WithPeerStores routes every peer's store traffic through its own client
// from the factory instead of a store the system owns — e.g. a remote
// client over TCP or a fault-injecting simnet, each with its own retry
// policy. The system then opens no store of its own (CentralStore returns
// nil) and the factory's target outlives Close.
func WithPeerStores(factory func(core.PeerID) (store.Store, error)) SystemOption {
	return func(c *systemConfig) { c.storeFor = factory }
}

// WithStreamPoll sets the reconcile cadence RunStreaming uses against
// stores without watch support (default 50ms). Watching stores ignore it:
// they block on the subscription instead of polling.
func WithStreamPoll(d time.Duration) SystemOption {
	return func(c *systemConfig) { c.streamPoll = d }
}

// WithStreamRetry bounds the exponential backoff RunStreaming applies to
// transiently failing streaming steps and broken subscriptions (defaults
// 2ms base, 100ms cap).
func WithStreamRetry(base, max time.Duration) SystemOption {
	return func(c *systemConfig) { c.streamRetryBase, c.streamRetryMax = base, max }
}

// WithStreamObserver registers a callback RunStreaming invokes after every
// streaming step whose decisions are recorded. It is called from the
// per-peer stream goroutines — possibly concurrently for different peers.
func WithStreamObserver(fn func(store.StreamResult)) SystemOption {
	return func(c *systemConfig) { c.streamObs = fn }
}

// NewSystem builds a system over the schema. By default it uses an
// in-memory central store.
func NewSystem(schema *Schema, opts ...SystemOption) (*System, error) {
	var cfg systemConfig
	for _, o := range opts {
		o(&cfg)
	}
	sys := &System{
		schema:      schema,
		peers:       make(map[PeerID]*Peer),
		fanout:      cfg.fanout,
		interleaved: cfg.interleaved,
		storeFor:    cfg.storeFor,

		streamPoll:      cfg.streamPoll,
		streamRetryBase: cfg.streamRetryBase,
		streamRetryMax:  cfg.streamRetryMax,
		streamObs:       cfg.streamObs,
	}
	if cfg.storeFor != nil {
		return sys, nil
	}
	if cfg.distributed {
		lat := cfg.latency
		if lat <= 0 {
			lat = simnet.DefaultLatency
		}
		sys.net = simnet.NewVirtual(lat)
		sys.cluster = dhtstore.NewCluster(sys.net)
		return sys, nil
	}
	cs, err := central.Open(schema, cfg.dir)
	if err != nil {
		return nil, err
	}
	sys.cs = cs
	return sys, nil
}

// Schema returns the shared schema.
func (s *System) Schema() *Schema { return s.schema }

// AddPeer registers a participant with its trust policy and returns its
// handle.
func (s *System) AddPeer(id PeerID, t Trust) (*Peer, error) {
	if _, dup := s.peers[id]; dup {
		return nil, fmt.Errorf("orchestra: peer %s already exists", id)
	}
	var st store.Store
	switch {
	case s.storeFor != nil:
		cl, err := s.storeFor(id)
		if err != nil {
			return nil, err
		}
		st = cl
	case s.cluster != nil:
		cl, err := s.cluster.AddNode("node-" + string(id))
		if err != nil {
			return nil, err
		}
		st = cl
	default:
		st = s.cs
	}
	p, err := store.NewPeer(context.Background(), id, s.schema, t, st)
	if err != nil {
		return nil, err
	}
	s.peers[id] = p
	s.order = append(s.order, id)
	return p, nil
}

// Peer returns a participant's handle.
func (s *System) Peer(id PeerID) (*Peer, bool) {
	p, ok := s.peers[id]
	return p, ok
}

// Peers returns the participants in registration order.
func (s *System) Peers() []*Peer {
	out := make([]*Peer, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.peers[id])
	}
	return out
}

// Instances returns all participants' instances (for StateRatio).
func (s *System) Instances() []*Instance {
	out := make([]*Instance, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.peers[id].Instance())
	}
	return out
}

// PeerError reports one peer's failure within a ReconcileAll round. The
// joined error ReconcileAll returns is made of these, so callers can pick
// out which peers missed the round (errors.As / a type switch over
// errors.Join's tree) and know the rest of the confederation proceeded.
type PeerError struct {
	Peer PeerID
	Op   string // "publish", "reconcile", or "record"
	Err  error
}

func (e *PeerError) Error() string {
	return fmt.Sprintf("orchestra: %s %s: %v", e.Op, e.Peer, e.Err)
}

func (e *PeerError) Unwrap() error { return e.Err }

// ReconcileAll runs one publish/reconcile round for every peer and returns
// each peer's result.
//
// The round is split into two barriers: first every peer publishes its
// pending transactions, then every peer reconciles — each on its own
// goroutine, bounded by the fan-out (default GOMAXPROCS; see
// WithReconcileFanOut). Engines are single-owner, so peers are independent;
// the update stores are safe for concurrent use. The split makes every
// same-round publication visible to every reconciler regardless of the
// fan-out, so results do not depend on the host's core count.
//
// The reconcile pass runs in waves of fan-out size: each wave's peers
// reconcile concurrently with decision recording deferred, then the whole
// wave's accept/reject outcomes are flushed to the store in a single
// RecordDecisionsBatch round trip. Batching changes round trips only,
// never results — one peer's recorded decisions are invisible to another
// peer's reconciliation, so flush timing cannot alter candidates. At
// fan-out 1 each wave is one peer, so its decisions flush right after its
// own reconcile. The historical interleaved registration-order pass
// (publish+reconcile per peer, earlier peers invisible to none) is
// available via WithInterleavedReconcile.
//
// The round degrades gracefully under store failures: a peer whose publish
// or reconcile fails is reported in the returned error as a *PeerError and
// sits the rest of the round out — its pending work is untouched, so it
// simply catches up on a later round — while every other peer completes
// normally. The map carries the results of the peers that succeeded; the
// returned error joins every per-peer failure. (The interleaved pass keeps
// its historical stop-at-first-error behavior.)
func (s *System) ReconcileAll(ctx context.Context) (map[PeerID]*Result, error) {
	fan := s.fanout
	if fan <= 0 {
		fan = runtime.GOMAXPROCS(0)
	}
	out := make(map[PeerID]*Result, len(s.order))
	if s.interleaved {
		for _, id := range s.order {
			done := s.pstats.WorkerStart()
			res, err := s.peers[id].PublishAndReconcile(ctx)
			done()
			if err != nil {
				return out, fmt.Errorf("orchestra: reconcile %s: %w", id, err)
			}
			s.pstats.Observe(res)
			out[id] = res
		}
		return out, nil
	}

	// Publish barrier: everyone's pending transactions reach the store
	// before anyone reconciles. A failed publisher does not sink the round:
	// its error is recorded and it skips the reconcile pass (publishing and
	// reconciling later), while the rest of the confederation proceeds.
	recErrs := make([]error, len(s.order))
	s.forEachPeer(fan, func(i int) {
		if _, err := s.peers[s.order[i]].Publish(ctx); err != nil {
			recErrs[i] = &PeerError{Peer: s.order[i], Op: "publish", Err: err}
		}
	})

	// Reconcile fan-out (skipping peers already failed in the barrier).
	results := make([]*Result, len(s.order))
	s.reconcileWaves(ctx, fan, results, recErrs)
	for i, res := range results {
		if res != nil {
			out[s.order[i]] = res
		}
	}
	return out, errors.Join(recErrs...)
}

// reconcileWaves drives the batched reconcile pass: waves of at most fan
// peers reconcile concurrently with recording deferred, then each wave's
// decisions flush in one RecordDecisionsBatch round trip.
func (s *System) reconcileWaves(ctx context.Context, fan int, results []*Result, recErrs []error) {
	n := len(s.order)
	batches := make([]store.DecisionBatch, n)
	for lo := 0; lo < n; lo += fan {
		hi := lo + fan
		if hi > n {
			hi = n
		}
		var wg sync.WaitGroup
		for i := lo; i < hi; i++ {
			if recErrs[i] != nil {
				continue // failed its publish; sits the round out
			}
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				done := s.pstats.WorkerStart()
				defer done()
				res, batch, err := s.peers[s.order[i]].ReconcileBuffered(ctx)
				if err != nil {
					recErrs[i] = &PeerError{Peer: s.order[i], Op: "reconcile", Err: err}
					return
				}
				results[i] = res
				batches[i] = batch
			}(i)
		}
		wg.Wait()

		// Flush the wave: one store round trip for every peer that has
		// decisions to record. Empty outcomes have nothing to persist.
		flush := make([]store.DecisionBatch, 0, hi-lo)
		decisions := 0
		for i := lo; i < hi; i++ {
			if results[i] == nil || batches[i].Empty() {
				continue
			}
			flush = append(flush, batches[i])
			decisions += len(batches[i].Accepted) + len(batches[i].Rejected)
		}
		if len(flush) > 0 {
			if err := s.peers[flush[0].Peer].Store().RecordDecisionsBatch(ctx, flush); err != nil {
				// Only the peers whose decisions were in the failed flush
				// lose their results; empty-outcome peers completed fine.
				for i := lo; i < hi; i++ {
					if results[i] != nil && recErrs[i] == nil && !batches[i].Empty() {
						recErrs[i] = &PeerError{Peer: s.order[i], Op: "record", Err: err}
						results[i] = nil
					}
				}
			} else {
				s.pstats.ObserveDecisionFlush(len(flush), decisions)
			}
		}
		for i := lo; i < hi; i++ {
			if results[i] != nil {
				s.pstats.Observe(results[i])
			}
		}
	}
}

// RunStreaming runs the incremental reconcile loop for every peer until
// ctx is done, replacing the round barrier of ReconcileAll: each peer
// subscribes to newly stable epochs via its store's watch capability
// (Store.WatchFrom, degrading to polling where the store cannot watch) and
// reconciles each stable window as it arrives, overlapping publish,
// reconcile, and decision flush across the confederation. Publishing is
// the application's job — Edit and Publish stay usable concurrently while
// the streams run.
//
// RunStreaming blocks until every peer's stream has stopped. Cancelling
// ctx is the normal shutdown and yields a nil error; a peer whose stream
// dies on a permanent (non-transient, non-cancellation) failure is
// reported in the joined error as a *PeerError with Op "stream", and the
// other peers keep streaming until ctx ends.
//
// Results are delivered through the observer (WithStreamObserver) and the
// Pipeline counters, which gain publish-to-stable and stable-to-decision
// lag alongside the usual per-stage stats.
func (s *System) RunStreaming(ctx context.Context) error {
	errs := make([]error, len(s.order))
	var wg sync.WaitGroup
	for i, id := range s.order {
		wg.Add(1)
		go func(i int, p *Peer) {
			defer wg.Done()
			err := p.ReconcileStream(ctx, store.StreamOptions{
				Poll:      s.streamPoll,
				RetryBase: s.streamRetryBase,
				RetryMax:  s.streamRetryMax,
				Metrics:   &s.pstats,
				OnResult:  s.streamObs,
			})
			if err != nil && ctx.Err() == nil {
				errs[i] = &PeerError{Peer: p.ID(), Op: "stream", Err: err}
			}
		}(i, s.peers[id])
	}
	wg.Wait()
	return errors.Join(errs...)
}

// forEachPeer runs fn(i) for every peer index on at most fan goroutines.
func (s *System) forEachPeer(fan int, fn func(i int)) {
	n := len(s.order)
	if fan > n {
		fan = n
	}
	if fan <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	sem := make(chan struct{}, fan)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer func() { <-sem; wg.Done() }()
			fn(i)
		}(i)
	}
	wg.Wait()
}

// Pipeline exposes the aggregated reconciliation-pipeline counters (stage
// latencies, work counts, the fan-out busy gauge, and the decision-flush
// batching stats) collected by ReconcileAll.
func (s *System) Pipeline() *metrics.Pipeline { return &s.pstats }

// CentralStore returns the backing central store (nil for a distributed
// system); it exposes the store's sharding/batching counters to embedders
// and the bench harness.
func (s *System) CentralStore() *central.Store { return s.cs }

// Messages returns the DHT fabric traffic (0 for the central store).
func (s *System) Messages() int64 {
	if s.net == nil {
		return 0
	}
	return s.net.Stats().Messages()
}

// NetworkLatency returns the total simulated network latency charged so
// far (0 for the central store).
func (s *System) NetworkLatency() time.Duration {
	if s.net == nil {
		return 0
	}
	return s.net.VirtualLatency()
}

// Close releases the store.
func (s *System) Close() error {
	if s.cs != nil {
		return s.cs.Close()
	}
	return nil
}

// DeferredAcross summarizes, for diagnostics, how many transactions remain
// deferred at each peer.
func (s *System) DeferredAcross() map[PeerID]int {
	out := make(map[PeerID]int, len(s.peers))
	for id, p := range s.peers {
		out[id] = len(p.Engine().DeferredIDs())
	}
	return out
}

// SortedPeerIDs returns the registered peer IDs, sorted.
func (s *System) SortedPeerIDs() []PeerID {
	out := append([]PeerID(nil), s.order...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Ensure the facade type aliases stay wired (compile-time checks).
var (
	_ Trust = core.TrustAll(1)
	_ Store = (*central.Store)(nil)
)

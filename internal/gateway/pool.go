package gateway

import (
	"context"
	"sync/atomic"

	"orchestra/internal/core"
	"orchestra/internal/store"
)

// Pool fans store operations out over a fixed set of interchangeable
// clients round-robin — the gateway's backend connection pool. A single
// TCP client serializes every in-flight call over one connection; a pool
// of N clients gives the gateway N concurrent lanes to the same
// orchestra-store without any coordination, because the update-store
// protocol is already safe for concurrent callers. Capability questions go
// to the first client (the lanes are interchangeable by construction);
// watch subscriptions stick to the lane that opened them.
type Pool struct {
	stores []store.Store
	next   atomic.Uint64
}

// NewPool builds a pool over the given clients; it panics on an empty set
// (a programming error).
func NewPool(stores ...store.Store) *Pool {
	if len(stores) == 0 {
		panic("gateway: empty store pool")
	}
	return &Pool{stores: stores}
}

func (p *Pool) pick() store.Store {
	return p.stores[p.next.Add(1)%uint64(len(p.stores))]
}

// Store interface, delegated round-robin.

func (p *Pool) RegisterPeer(ctx context.Context, peer core.PeerID, t core.Trust) error {
	return p.pick().RegisterPeer(ctx, peer, t)
}

func (p *Pool) Publish(ctx context.Context, peer core.PeerID, txns []store.PublishedTxn) (core.Epoch, error) {
	return p.pick().Publish(ctx, peer, txns)
}

func (p *Pool) BeginReconciliation(ctx context.Context, peer core.PeerID) (*store.Reconciliation, error) {
	return p.pick().BeginReconciliation(ctx, peer)
}

func (p *Pool) RecordDecisions(ctx context.Context, peer core.PeerID, recno int, accepted, rejected []core.TxnID) error {
	return p.pick().RecordDecisions(ctx, peer, recno, accepted, rejected)
}

func (p *Pool) RecordDecisionsBatch(ctx context.Context, batches []store.DecisionBatch) error {
	return p.pick().RecordDecisionsBatch(ctx, batches)
}

func (p *Pool) CurrentRecno(ctx context.Context, peer core.PeerID) (int, error) {
	return p.pick().CurrentRecno(ctx, peer)
}

// Optional capabilities, present whenever the underlying clients carry
// them (the remote client always does; whether they work is the probes'
// answer).

func (p *Pool) CanSnapshot(ctx context.Context) bool { return store.CanSnapshot(ctx, p.stores[0]) }

func (p *Pool) Snapshot(ctx context.Context) (core.Epoch, error) {
	if sn, ok := p.pick().(store.Snapshotter); ok {
		return sn.Snapshot(ctx)
	}
	return 0, errNoCapability("snapshot")
}

func (p *Pool) CompactBefore(ctx context.Context, e core.Epoch) error {
	if sn, ok := p.pick().(store.Snapshotter); ok {
		return sn.CompactBefore(ctx, e)
	}
	return errNoCapability("snapshot")
}

func (p *Pool) LatestSnapshot(ctx context.Context) (*store.Snapshot, error) {
	if sr, ok := p.pick().(store.SnapshotReplayer); ok {
		return sr.LatestSnapshot(ctx)
	}
	return nil, errNoCapability("snapshot")
}

func (p *Pool) ReplayFrom(ctx context.Context, peer core.PeerID, from core.Epoch, afterSeq int64) ([]store.PublishedTxn, map[core.TxnID]core.RestoredDecision, error) {
	if sr, ok := p.pick().(store.SnapshotReplayer); ok {
		return sr.ReplayFrom(ctx, peer, from, afterSeq)
	}
	return nil, nil, errNoCapability("snapshot")
}

func (p *Pool) CanWatch(ctx context.Context) bool { return store.CanWatch(ctx, p.stores[0]) }

func (p *Pool) WatchFrom(ctx context.Context, from core.Epoch) (<-chan store.WatchEvent, error) {
	if w, ok := p.pick().(store.Watcher); ok {
		return w.WatchFrom(ctx, from)
	}
	return nil, errNoCapability("watch")
}

func (p *Pool) CanDedupe(ctx context.Context) bool { return store.CanDedupe(ctx, p.stores[0]) }

type errNoCapability string

func (e errNoCapability) Error() string {
	return "gateway: backend does not support " + string(e)
}

package main

import (
	"context"
	"fmt"
	"strconv"
	"sync/atomic"
	"time"

	"orchestra/internal/core"
	"orchestra/internal/store"
)

// timedStore records a span around every call into the store it wraps.
// It forwards each optional capability the wrapped store has — watch,
// snapshot and replay, dedupe, multi-group, and (through
// timedResolverStore) trust resolution — and answers every capability
// probe by asking the wrapped store, so wrapping never switches a caller
// onto another path, for example from watching to polling.
type timedStore struct {
	inner  store.Store
	tr     *tracer
	prefix string // span name prefix: the layer the wrapped store belongs to
	// label names the request a call belongs to when the call carries no
	// idempotency key (for example "r12" during round 12); may be nil.
	label func() string

	peer  string
	steps atomic.Int64
	// lastBeginEnd is when the latest BeginReconciliation returned; the
	// engine runs right after it, so the engine's span starts there.
	lastBeginEnd atomic.Int64
	lastReq      atomic.Value // string

	// onPublish, when set, sees every successful publish's epoch and the
	// time it returned.
	onPublish func(epoch core.Epoch, returned time.Time)
}

// timedResolverStore is a timedStore over a store that resolves trust
// delegations.
type timedResolverStore struct{ *timedStore }

// wrapStore returns the timing wrapper for st: a *timedResolverStore when
// st resolves trust, else a *timedStore.
func wrapStore(st store.Store, tr *tracer, prefix, peer string, label func() string) store.Store {
	t := &timedStore{inner: st, tr: tr, prefix: prefix, peer: peer, label: label}
	if _, ok := st.(store.TrustResolver); ok {
		return &timedResolverStore{t}
	}
	return t
}

// timed returns the underlying *timedStore of a wrapper made by wrapStore.
func timed(st store.Store) *timedStore {
	switch t := st.(type) {
	case *timedStore:
		return t
	case *timedResolverStore:
		return t.timedStore
	}
	return nil
}

// request names the request a call belongs to: its idempotency key if it
// carries one, else the label and the wrapper's peer, else the peer and
// its streaming step number.
func (t *timedStore) request(ctx context.Context) string {
	if k, ok := store.IdempotencyKeyFrom(ctx); ok {
		return string(k)
	}
	if t.label != nil {
		return t.label() + "/" + t.peer
	}
	return t.peer + "/" + strconv.FormatInt(t.steps.Load(), 10)
}

func (t *timedStore) span(name, req string, start time.Time) time.Time {
	end := time.Now()
	t.tr.add(t.prefix+"."+name, req, start, end)
	return end
}

func (t *timedStore) RegisterPeer(ctx context.Context, peer core.PeerID, tr core.Trust) error {
	start := time.Now()
	err := t.inner.RegisterPeer(ctx, peer, tr)
	t.span("register", t.request(ctx), start)
	return err
}

func (t *timedStore) Publish(ctx context.Context, peer core.PeerID, txns []store.PublishedTxn) (core.Epoch, error) {
	name := "publish"
	if len(txns) == 0 {
		name = "publish_empty" // a round's publish barrier with nothing pending
	}
	start := time.Now()
	e, err := t.inner.Publish(ctx, peer, txns)
	end := t.span(name, t.request(ctx), start)
	if err == nil && t.onPublish != nil && len(txns) > 0 {
		t.onPublish(e, end)
	}
	return e, err
}

func (t *timedStore) BeginReconciliation(ctx context.Context, peer core.PeerID) (*store.Reconciliation, error) {
	t.steps.Add(1)
	req := t.request(ctx)
	start := time.Now()
	rec, err := t.inner.BeginReconciliation(ctx, peer)
	end := t.span("begin", req, start)
	t.lastBeginEnd.Store(end.UnixNano())
	t.lastReq.Store(req)
	return rec, err
}

func (t *timedStore) RecordDecisions(ctx context.Context, peer core.PeerID, recno int, accepted, rejected []core.TxnID) error {
	start := time.Now()
	err := t.inner.RecordDecisions(ctx, peer, recno, accepted, rejected)
	t.span("decide", t.request(ctx), start)
	return err
}

func (t *timedStore) RecordDecisionsBatch(ctx context.Context, batches []store.DecisionBatch) error {
	start := time.Now()
	err := t.inner.RecordDecisionsBatch(ctx, batches)
	t.span("decide", t.request(ctx), start)
	return err
}

func (t *timedStore) CurrentRecno(ctx context.Context, peer core.PeerID) (int, error) {
	return t.inner.CurrentRecno(ctx, peer)
}

// engineSpan records the engine's reconcile for the peer's latest begin:
// it starts when that begin returned and lasts the sum of the engine's
// stage times.
func (t *timedStore) engineSpan(stats core.ReconcileStats) {
	if t == nil || t.tr == nil {
		return
	}
	start := time.Unix(0, t.lastBeginEnd.Load())
	d := time.Duration(stats.CheckNanos + stats.ConflictNanos + stats.GroupNanos + stats.ApplyNanos + stats.SoftStateNanos)
	req, _ := t.lastReq.Load().(string)
	t.tr.add("core.reconcile", req, start, start.Add(d))
}

// Optional capabilities: forwarded when the wrapped store has them.

func (t *timedStore) CanWatch(ctx context.Context) bool { return store.CanWatch(ctx, t.inner) }

func (t *timedStore) WatchFrom(ctx context.Context, from core.Epoch) (<-chan store.WatchEvent, error) {
	w, ok := t.inner.(store.Watcher)
	if !ok {
		return nil, fmt.Errorf("perfbench: %T cannot watch", t.inner)
	}
	return w.WatchFrom(ctx, from)
}

func (t *timedStore) CanSnapshot(ctx context.Context) bool { return store.CanSnapshot(ctx, t.inner) }

func (t *timedStore) Snapshot(ctx context.Context) (core.Epoch, error) {
	s, ok := t.inner.(store.Snapshotter)
	if !ok {
		return 0, fmt.Errorf("perfbench: %T cannot snapshot", t.inner)
	}
	start := time.Now()
	e, err := s.Snapshot(ctx)
	t.span("snapshot", t.request(ctx), start)
	return e, err
}

func (t *timedStore) CompactBefore(ctx context.Context, e core.Epoch) error {
	s, ok := t.inner.(store.Snapshotter)
	if !ok {
		return fmt.Errorf("perfbench: %T cannot compact", t.inner)
	}
	return s.CompactBefore(ctx, e)
}

func (t *timedStore) LatestSnapshot(ctx context.Context) (*store.Snapshot, error) {
	s, ok := t.inner.(store.SnapshotReplayer)
	if !ok {
		return nil, fmt.Errorf("perfbench: %T cannot serve snapshots", t.inner)
	}
	start := time.Now()
	snap, err := s.LatestSnapshot(ctx)
	t.span("snapshot_fetch", t.request(ctx), start)
	return snap, err
}

func (t *timedStore) ReplayFrom(ctx context.Context, peer core.PeerID, from core.Epoch, afterSeq int64) ([]store.PublishedTxn, map[core.TxnID]core.RestoredDecision, error) {
	s, ok := t.inner.(store.SnapshotReplayer)
	if !ok {
		return nil, nil, fmt.Errorf("perfbench: %T cannot replay a tail", t.inner)
	}
	start := time.Now()
	log, dec, err := s.ReplayFrom(ctx, peer, from, afterSeq)
	t.span("tail_replay", t.request(ctx), start)
	return log, dec, err
}

func (t *timedStore) CanReplay(ctx context.Context) bool { return store.CanReplay(ctx, t.inner) }

func (t *timedStore) ReplayFor(ctx context.Context, peer core.PeerID) ([]store.PublishedTxn, map[core.TxnID]core.RestoredDecision, error) {
	r, ok := t.inner.(store.Replayer)
	if !ok {
		return nil, nil, fmt.Errorf("perfbench: %T cannot replay", t.inner)
	}
	start := time.Now()
	log, dec, err := r.ReplayFor(ctx, peer)
	t.span("replay", t.request(ctx), start)
	return log, dec, err
}

func (t *timedStore) CanDedupe(ctx context.Context) bool { return store.CanDedupe(ctx, t.inner) }

func (t *timedStore) CanMultiGroup(ctx context.Context) bool {
	return store.CanMultiGroup(ctx, t.inner)
}

func (t *timedResolverStore) EffectiveTrust(ctx context.Context, peer core.PeerID) (core.Trust, error) {
	return t.inner.(store.TrustResolver).EffectiveTrust(ctx, peer)
}

// capabilities answers every capability probe for st.
func capabilities(ctx context.Context, st store.Store) map[string]bool {
	return map[string]bool{
		"watch":         store.CanWatch(ctx, st),
		"snapshot":      store.CanSnapshot(ctx, st),
		"replay":        store.CanReplay(ctx, st),
		"dedupe":        store.CanDedupe(ctx, st),
		"multi_group":   store.CanMultiGroup(ctx, st),
		"resolve_trust": store.CanResolveTrust(st),
	}
}

// sameCapabilities checks that wrapping st changed no capability answer.
func sameCapabilities(ctx context.Context, raw, wrapped store.Store) (map[string]bool, error) {
	a, b := capabilities(ctx, raw), capabilities(ctx, wrapped)
	for k, v := range a {
		if b[k] != v {
			return a, fmt.Errorf("capability %s: store answers %v, timing wrapper answers %v", k, v, b[k])
		}
	}
	return a, nil
}

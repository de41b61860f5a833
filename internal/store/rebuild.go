package store

import (
	"context"
	"fmt"

	"orchestra/internal/core"
)

// Replayer is the full-history replay capability. Peer reconstruction
// does not use it — it reads the log through SnapshotReplayer.ReplayFrom
// alone — and it stays only because the repository benchmark's timing
// wrapper names it.
type Replayer interface {
	// ReplayFor returns every published transaction in global order
	// together with the peer's recorded decisions (with their acceptance
	// sequence).
	ReplayFor(ctx context.Context, peer core.PeerID) ([]PublishedTxn, map[core.TxnID]core.RestoredDecision, error)
}

// CanReplay reports whether the store supports peer reconstruction — the
// gate callers (and the storetest conformance suite) check before reaching
// for RebuildPeer. Reconstruction reads the log with ReplayFrom, so this is
// exactly the CanSnapshot answer; it stays as its own name because the
// repository benchmark asks it.
func CanReplay(ctx context.Context, st Store) bool { return CanSnapshot(ctx, st) }

// RebuildPeer reconstructs a participant's engine — instance, applied and
// rejected sets, provenance — from the update store alone (the paper's
// §5.2 soft-state guarantee; docs/RECOVERY.md has the contract). There is
// one path: when the store retains a snapshot covering the peer, the
// engine starts from the peer's snapshot state and the log from the
// snapshot's residue, and ReplayFrom fetches only the tail after the
// snapshot epoch and decision high-water mark; otherwise the engine starts
// fresh and ReplayFrom fetches the whole log from epoch 0. Either way one
// Engine.Restore folds the log. Deferred state is not recorded in the
// store (it is client soft state in the truest sense) and is reconstructed
// by the next reconciliation, which reconsiders anything undecided.
//
// The returned peer is ready to continue reconciling where the lost one
// stopped.
func RebuildPeer(ctx context.Context, id core.PeerID, schema *core.Schema, trust core.Trust, st Store) (*Peer, error) {
	return rebuild(ctx, id, schema, trust, st, true)
}

// FullReplayRebuild is RebuildPeer with the snapshot skipped: a fresh
// engine folds the whole log from epoch 0. It is the reference the rebuild
// tests compare the snapshot start against; after compaction it fails for
// peers the retained snapshot covers, whose early history exists only
// there.
func FullReplayRebuild(ctx context.Context, id core.PeerID, schema *core.Schema, trust core.Trust, st Store) (*Peer, error) {
	return rebuild(ctx, id, schema, trust, st, false)
}

func rebuild(ctx context.Context, id core.PeerID, schema *core.Schema, trust core.Trust, st Store, useSnapshot bool) (*Peer, error) {
	sr, ok := st.(SnapshotReplayer)
	if !ok {
		return nil, fmt.Errorf("store: %T cannot replay peer state", st)
	}
	useSnapshot = useSnapshot && CanSnapshot(ctx, st)
	// LatestSnapshot and ReplayFrom are two calls; a concurrent snapshot +
	// compaction cycle can retire the fetched snapshot (or newly cover the
	// peer) in between, failing the fetch. One retry against the fresh
	// snapshot resolves that transient — a second failure is a real error.
	for attempt := 0; ; attempt++ {
		p, err := rebuildOnce(ctx, id, schema, trust, st, sr, useSnapshot)
		if err == nil || !useSnapshot || attempt > 0 {
			return p, err
		}
	}
}

// rebuildOnce picks the starting state — the peer's snapshot entry, or a
// fresh engine at epoch 0 and decision seq 0 — then fetches the log from
// there and folds it.
func rebuildOnce(ctx context.Context, id core.PeerID, schema *core.Schema, trust core.Trust, st Store, sr SnapshotReplayer, useSnapshot bool) (*Peer, error) {
	engine := core.NewEngine(id, schema, trust)
	var (
		from     core.Epoch
		afterSeq int64
		log      []core.LoggedTxn
	)
	if useSnapshot {
		snap, err := sr.LatestSnapshot(ctx)
		if err != nil {
			return nil, err
		}
		if ps := snap.Peer(id); ps != nil {
			if engine, err = core.NewEngineFromSnapshot(schema, trust, &ps.Engine); err != nil {
				return nil, fmt.Errorf("store: snapshot for %s: %w", id, err)
			}
			from, afterSeq = snap.Epoch, ps.DecisionSeq
			log = loggedTxns(snap.Residue)
		}
	}
	tail, decisions, err := sr.ReplayFrom(ctx, id, from, afterSeq)
	if err != nil {
		return nil, err
	}
	if err := engine.Restore(append(log, loggedTxns(tail)...), decisions); err != nil {
		return nil, fmt.Errorf("store: rebuild %s: %w", id, err)
	}
	return &Peer{engine: engine, store: st}, nil
}

// loggedTxns converts published transactions to the core restore log form.
func loggedTxns(pts []PublishedTxn) []core.LoggedTxn {
	out := make([]core.LoggedTxn, len(pts))
	for i, pt := range pts {
		out[i] = core.LoggedTxn{Txn: pt.Txn, Antecedents: pt.Antecedents}
	}
	return out
}

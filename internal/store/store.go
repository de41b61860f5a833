// Package store defines the update store interface of §5.2 — publish and
// retrieve updates, associate each published transaction with a client
// reconciliation, and hold each peer's applied/rejected sets so that client
// state is reconstructable soft state — together with the Peer wrapper that
// drives a reconciliation engine against a store. Decisions are recorded
// in batches (RecordDecisionsBatch, fed by Peer.ReconcileBuffered), which
// amortizes store round trips without changing outcomes; RecordDecisions is
// the one-peer case. A lost participant is rebuilt along one path
// (RebuildPeer): from the retained snapshot when it covers the peer, else
// from epoch 0, fetching the log with ReplayFrom and folding it with one
// core.Engine.Restore. Optional capabilities are asked through the Can*
// probes. Implementations live in store/central (RDBMS-backed, §5.2.1),
// store/remote (any backend over TCP, one cached store.caps RPC answering
// every probe), and store/dhtstore (DHT-based, §5.2.2); store/storetest
// holds the conformance suite they all must pass.
package store

import (
	"context"
	"errors"

	"orchestra/internal/core"
)

// ErrUnknownPeer is returned for operations by unregistered peers.
var ErrUnknownPeer = errors.New("store: unknown peer")

// PublishedTxn is a transaction as shipped to the update store: the
// transaction plus its antecedent set, computed by the publisher from its
// own instance's provenance.
type PublishedTxn struct {
	Txn         *core.Transaction
	Antecedents []core.TxnID
}

// Reconciliation is the store's answer to a reconciliation request: the
// reconciliation number, the epoch window it covers, and the candidates —
// newly published fully-trusted transactions, each with the peer's priority
// and its transaction extension (unapplied antecedent closure, in global
// order).
type Reconciliation struct {
	Recno      int
	FromEpoch  core.Epoch // exclusive
	ToEpoch    core.Epoch // inclusive: the largest stable epoch
	Candidates []*core.Candidate
}

// DecisionBatch is one peer's reconciliation outcome, as submitted to
// RecordDecisionsBatch. It carries exactly the arguments of one
// RecordDecisions call.
type DecisionBatch struct {
	Peer     core.PeerID
	Recno    int
	Accepted []core.TxnID
	Rejected []core.TxnID
}

// Empty reports whether the batch carries no decisions.
func (b DecisionBatch) Empty() bool { return len(b.Accepted)+len(b.Rejected) == 0 }

// Store is the update store interface. Implementations must be safe for
// concurrent use by multiple peers.
type Store interface {
	// RegisterPeer declares a peer and its trust policy. Trust conditions
	// are needed store-side so that priorities and relevance can be
	// evaluated without shipping every update to the client.
	RegisterPeer(ctx context.Context, peer core.PeerID, trust core.Trust) error

	// Publish atomically publishes a batch of transactions from the peer,
	// allocating a new epoch; the transactions are recorded as already
	// accepted by their publisher. An empty batch returns the current
	// epoch without allocating.
	Publish(ctx context.Context, peer core.PeerID, txns []PublishedTxn) (core.Epoch, error)

	// BeginReconciliation determines the peer's reconciliation epoch (the
	// most recent epoch not preceded by an unfinished one), records the
	// reconciliation, and returns the candidate transactions the peer
	// needs.
	BeginReconciliation(ctx context.Context, peer core.PeerID) (*Reconciliation, error)

	// RecordDecisions persists the accept/reject outcome of the peer's
	// reconciliation recno, like a one-element RecordDecisionsBatch.
	// Deferred transactions are not recorded: they are client soft state.
	// It stays in the interface because the repository benchmark's timing
	// wrapper calls it through this interface.
	RecordDecisions(ctx context.Context, peer core.PeerID, recno int, accepted, rejected []core.TxnID) error

	// RecordDecisionsBatch persists several peers' reconciliation outcomes
	// at once. It is semantically equivalent to calling RecordDecisions
	// once per batch, but implementations amortize the round trips: the
	// central store commits every batch in one database transaction, the
	// remote store ships the whole slice in one RPC, and the DHT store
	// regroups the decisions by transaction controller. ReconcileAll uses
	// it to flush each fan-out wave's decisions together.
	RecordDecisionsBatch(ctx context.Context, batches []DecisionBatch) error

	// CurrentRecno returns the peer's most recent reconciliation number.
	CurrentRecno(ctx context.Context, peer core.PeerID) (int, error)
}

package core

import (
	"fmt"
	"slices"
	"sort"
)

// LoggedTxn is one entry of the update store's replay log: a published
// transaction and its antecedent set.
type LoggedTxn struct {
	Txn         *Transaction
	Antecedents []TxnID
}

// RestoredDecision is a peer's recorded decision for one transaction,
// together with its acceptance sequence: the order in which the peer's
// decisions were recorded at the store. Acceptance order — not global
// publication order — is the peer's valid local history: a peer may accept
// its own revision of a value before importing a later-published identical
// insert that is idempotent by then.
type RestoredDecision struct {
	Decision Decision
	Seq      int64
}

// Restore folds a slice of the update store's log and this peer's recorded
// decisions into the engine — the soft-state reconstruction path of the
// paper's §5.2 (see docs/RECOVERY.md for the recovery contract). On a fresh
// engine the log is the whole history; on one seeded from a snapshot
// (NewEngineFromSnapshot) it is the snapshot's residue plus the
// post-snapshot tail, with the decisions recorded after the snapshot's
// per-peer sequence high-water mark. Transactions the engine has already
// decided are skipped, so overlapping log entries are harmless.
//
// The instance is the net effect of every accepted transaction's updates in
// acceptance order (flattened, so superseded intermediate states are
// skipped exactly as the original reconciliations skipped them). Deferred
// transactions are not recorded by the store; they are reconsidered
// automatically by the next reconciliation, which the caller performs after
// Restore.
func (e *Engine) Restore(log []LoggedTxn, decisions map[TxnID]RestoredDecision) error {
	ordered := append([]LoggedTxn(nil), log...)
	sort.Slice(ordered, func(i, j int) bool { return ordered[i].Txn.Order < ordered[j].Txn.Order })

	var accepted []*Transaction
	antecedents := make(map[TxnID][]TxnID)
	var maxOwnSeq uint64
	haveOwn := false
	for _, lt := range ordered {
		id := lt.Txn.ID
		if id.Origin == e.peer {
			haveOwn = true
			if id.Seq > maxOwnSeq {
				maxOwnSeq = id.Seq
			}
		}
		if e.applied.Has(id) || e.rejected.Has(id) {
			continue // already folded in by the snapshot
		}
		switch decisions[id].Decision {
		case DecisionAccept:
			accepted = append(accepted, lt.Txn)
			antecedents[id] = lt.Antecedents
			e.applied.Add(id)
		case DecisionReject:
			e.rejected.Add(id)
		}
	}
	// Acceptance order, breaking ties (within one reconciliation batch) by
	// global order.
	sort.SliceStable(accepted, func(i, j int) bool {
		si, sj := decisions[accepted[i].ID].Seq, decisions[accepted[j].ID].Seq
		if si != sj {
			return si < sj
		}
		return accepted[i].Order < accepted[j].Order
	})

	// Replay in the units the engine applied. A reconciliation flattens,
	// checks and applies each accepted extension on its own, and records
	// its members under consecutive decision seqs, each naming an earlier
	// member as an antecedent. One flatten over the whole history is not
	// equivalent: an extension that revises a value and reverts it had no
	// net effect live, but in one sequence its first step collides with
	// whatever value an earlier acceptance left in place.
	for start := 0; start < len(accepted); {
		run := TxnSet{accepted[start].ID: {}}
		end := start + 1
		for ; end < len(accepted); end++ {
			x := accepted[end]
			if decisions[x.ID].Seq != decisions[accepted[end-1].ID].Seq+1 || !slices.ContainsFunc(antecedents[x.ID], run.Has) {
				break
			}
			run.Add(x.ID)
		}
		if err := e.applyRestored(accepted[start:end]); err != nil {
			return fmt.Errorf("core: restore: %w", err)
		}
		start = end
	}
	if haveOwn && maxOwnSeq+1 > e.nextSeq {
		e.nextSeq = maxOwnSeq + 1
	}
	return nil
}

// applyRestored flattens one replay unit, checks it against the instance
// and applies it.
func (e *Engine) applyRestored(unit []*Transaction) error {
	flat, err := Flatten(e.schema, UpdateFootprint(unit))
	if err != nil {
		return err
	}
	if err := e.inst.CompatibleAll(flat); err != nil {
		return err
	}
	for _, u := range flat {
		e.inst.applyUnchecked(u)
	}
	e.noteProducers(unit)
	return nil
}

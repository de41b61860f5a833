package central

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"orchestra/internal/core"
	"orchestra/internal/store"
	"orchestra/internal/store/storetest"
	"orchestra/internal/trust"
	"orchestra/internal/workload"
)

// TestRebuildPeerReconstructsState: after a multi-peer run, a peer
// reconstructed from the store's log — by full replay, and by snapshot
// plus tail where the store took a snapshot — has exactly the same
// instance and decision sets as the original: §5.2's soft-state
// guarantee.
func TestRebuildPeerReconstructsState(t *testing.T) {
	ctx := context.Background()
	t.Run("random", func(t *testing.T) {
		schema := storetest.Schema(t)
		for seed := int64(1); seed <= 6; seed++ {
			s := MustOpenMemory(schema)
			const n = 4
			peers := make([]*store.Peer, n)
			for i := range peers {
				var err error
				peers[i], err = store.NewPeer(ctx, core.PeerID(fmt.Sprintf("p%d", i)), schema, core.TrustAll(1), s)
				if err != nil {
					t.Fatal(err)
				}
			}
			r := rand.New(rand.NewSource(seed))
			orgs := []string{"rat", "mouse"}
			for round := 0; round < 6; round++ {
				for _, p := range peers {
					org := orgs[r.Intn(2)]
					prot := fmt.Sprintf("prot%d", r.Intn(5))
					fn := fmt.Sprintf("f%d", r.Intn(3))
					key := core.Strs(org, prot)
					if cur, ok := p.Instance().Lookup("F", key); ok {
						if cur[2].Str() != fn {
							p.Edit(core.Modify("F", cur, core.Strs(org, prot, fn), p.ID()))
						}
					} else {
						p.Edit(core.Insert("F", core.Strs(org, prot, fn), p.ID()))
					}
					if _, err := p.PublishAndReconcile(ctx); err != nil {
						t.Fatal(err)
					}
				}
			}
			checkRebuilds(t, s, schema, peers, func(int) core.Trust { return core.TrustAll(1) })
			s.Close()
		}
	})
	// The §6 curation shape: the paper's generator, several txns per peer
	// per round and tied priorities, so peers accept revise-and-revert
	// extensions on top of earlier revisions of the same value. The store
	// snapshots mid-run and the rebuilds replay the tail after it.
	t.Run("curation", func(t *testing.T) {
		schema := workload.Schema()
		const (
			n            = 8
			txnsPerRound = 4
			rounds       = 20
			tail         = 2
		)
		s := MustOpenMemory(schema)
		defer s.Close()
		policies := make([]core.Trust, n)
		peers := make([]*store.Peer, n)
		gens := make([]*workload.Generator, n)
		for i := range peers {
			rng := rand.New(rand.NewSource(int64(i)))
			var b strings.Builder
			for j := 0; j < n; j++ {
				if j != i {
					fmt.Fprintf(&b, "priority %d when origin = 'c%d'\n", 1+rng.Intn(3), j)
				}
			}
			policies[i] = trust.MustParse(b.String())
			var err error
			peers[i], err = store.NewPeer(ctx, core.PeerID(fmt.Sprintf("c%d", i)), schema, policies[i], s)
			if err != nil {
				t.Fatal(err)
			}
			gens[i] = workload.New(workload.Config{Seed: int64(i), TxnSize: 2, KeySpace: 400})
		}
		round := func() {
			for i, p := range peers {
				for k := 0; k < txnsPerRound; k++ {
					if ups := gens[i].NextUpdates(p.Instance(), p.ID()); len(ups) > 0 {
						if _, err := p.Edit(ups...); err != nil {
							t.Fatal(err)
						}
					}
				}
				if _, err := p.Publish(ctx); err != nil {
					t.Fatal(err)
				}
			}
			for _, p := range peers {
				if _, err := p.Reconcile(ctx); err != nil {
					t.Fatal(err)
				}
			}
		}
		for r := 0; r < rounds; r++ {
			round()
		}
		if _, err := s.Snapshot(ctx); err != nil {
			t.Fatalf("snapshot: %v", err)
		}
		for r := 0; r < tail; r++ {
			round()
		}
		checkRebuilds(t, s, schema, peers, func(i int) core.Trust { return policies[i] })
	})
}

// checkRebuilds rebuilds every peer by full replay and by RebuildPeer
// (snapshot plus tail when the store holds a snapshot) and requires both to
// match the live peer's instance and decision sets.
func checkRebuilds(t *testing.T, s *Store, schema *core.Schema, peers []*store.Peer, trustFor func(int) core.Trust) {
	t.Helper()
	ctx := context.Background()
	log, _, err := s.ReplayFrom(ctx, peers[0].ID(), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i, orig := range peers {
		full, err := store.FullReplayRebuild(ctx, orig.ID(), schema, trustFor(i), s)
		if err != nil {
			t.Fatalf("full replay of %s: %v", orig.ID(), err)
		}
		rebuilt, err := store.RebuildPeer(ctx, orig.ID(), schema, trustFor(i), s)
		if err != nil {
			t.Fatalf("rebuild %s: %v", orig.ID(), err)
		}
		for name, p := range map[string]*store.Peer{"full replay": full, "rebuild": rebuilt} {
			if !p.Instance().Equal(orig.Instance()) {
				t.Fatalf("%s of %s diverges from the live instance", name, orig.ID())
			}
			for _, pt := range log {
				id := pt.Txn.ID
				if orig.Engine().Applied(id) != p.Engine().Applied(id) {
					t.Fatalf("%s of %s: applied(%s) diverges", name, orig.ID(), id)
				}
				if orig.Engine().Rejected(id) != p.Engine().Rejected(id) {
					t.Fatalf("%s of %s: rejected(%s) diverges", name, orig.ID(), id)
				}
			}
		}
	}
}

// TestRebuiltPeerContinues: a rebuilt peer can keep editing and reconciling
// — including reconsidering transactions it had deferred before the crash,
// since those are undecided in the store.
func TestRebuiltPeerContinues(t *testing.T) {
	schema := storetest.Schema(t)
	ctx := context.Background()
	s := MustOpenMemory(schema)
	defer s.Close()

	a, _ := store.NewPeer(ctx, "a", schema, core.TrustAll(1), s)
	b, _ := store.NewPeer(ctx, "b", schema, core.TrustAll(1), s)
	q, _ := store.NewPeer(ctx, "q", schema, core.TrustAll(1), s)

	// A conflict q defers.
	a.Edit(core.Insert("F", core.Strs("rat", "p1", "va"), "a"))
	a.PublishAndReconcile(ctx)
	b.Edit(core.Insert("F", core.Strs("rat", "p1", "vb"), "b"))
	b.PublishAndReconcile(ctx)
	res, _ := q.PublishAndReconcile(ctx)
	if len(res.Deferred) != 2 {
		t.Fatalf("setup: %+v", res)
	}

	// q crashes; rebuild it from the store.
	q2, err := store.RebuildPeer(ctx, "q", schema, core.TrustAll(1), s)
	if err != nil {
		t.Fatal(err)
	}
	// The deferred conflict is soft state: the rebuilt peer has not
	// re-seen it yet (it was associated with a past reconciliation), but
	// its instance and decisions are intact and it can continue working.
	if q2.Instance().Len("F") != 0 {
		t.Fatalf("rebuilt instance: %v", q2.Instance().Tuples("F"))
	}
	if _, err := q2.Edit(core.Insert("F", core.Strs("mouse", "p2", "w"), "q")); err != nil {
		t.Fatal(err)
	}
	if _, err := q2.PublishAndReconcile(ctx); err != nil {
		t.Fatal(err)
	}
	if q2.Instance().Len("F") != 1 {
		t.Fatalf("rebuilt peer could not continue: %v", q2.Instance().Tuples("F"))
	}
	// Its local sequence numbers continue past the pre-crash ones: the new
	// transaction must not collide in the store.
	if n, _ := s.CurrentRecno(ctx, "q"); n < 2 {
		t.Errorf("recno = %d", n)
	}
}

func TestRebuildRequiresReplayer(t *testing.T) {
	// A store without Replayer support is rejected cleanly.
	schema := storetest.Schema(t)
	ctx := context.Background()
	if _, err := store.RebuildPeer(ctx, "x", schema, core.TrustAll(1), nonReplayer{}); err == nil {
		t.Error("non-replayer store accepted")
	}
}

type nonReplayer struct{ store.Store }

// TestRebuildPeerRegisteredAfterCompaction: a peer that registers after a
// compaction is not covered by the retained snapshot, so RebuildPeer starts
// it from a fresh engine and replays from epoch 0 across the compaction
// horizon — which ReplayFrom allows for it, while a covered peer's replay
// from 0 fails with the compaction error.
func TestRebuildPeerRegisteredAfterCompaction(t *testing.T) {
	ctx := context.Background()
	schema := storetest.Schema(t)
	s := MustOpenMemory(schema)
	defer s.Close()
	peers := snapshotHistory(t, s, schema)
	horizon, err := s.Snapshot(ctx)
	if err != nil || horizon == 0 {
		t.Fatalf("snapshot: %d, %v", horizon, err)
	}
	if err := s.CompactBefore(ctx, horizon); err != nil {
		t.Fatalf("compact: %v", err)
	}

	trustN := storetest.TrustOrigins(map[core.PeerID]int{"pa": 2, "pb": 1})
	pn, err := store.NewPeer(ctx, "pn", schema, trustN, s)
	if err != nil {
		t.Fatal(err)
	}
	cycle := func(p *store.Peer, us ...core.Update) *core.Result {
		t.Helper()
		if len(us) > 0 {
			if _, err := p.Edit(us...); err != nil {
				t.Fatal(err)
			}
		}
		res, err := p.PublishAndReconcile(ctx)
		if err != nil {
			t.Fatalf("cycle %s: %v", p.ID(), err)
		}
		return res
	}
	// pn publishes its own edit, then decides a post-compaction conflict:
	// pa's value wins over pb's.
	cycle(pn, core.Insert("F", core.Strs("dog", "p3", "n"), "pn"))
	cycle(peers["pa"], core.Insert("F", core.Strs("mouse", "p2", "hi"), "pa"))
	cycle(peers["pb"], core.Insert("F", core.Strs("mouse", "p2", "lo"), "pb"))
	if res := cycle(pn); len(res.Accepted) == 0 || len(res.Rejected) == 0 {
		t.Fatalf("pn post-compaction outcome: %+v", res)
	}

	if _, _, err := s.ReplayFrom(ctx, "pq", 0, 0); err == nil || !strings.Contains(err.Error(), "compacted") {
		t.Errorf("ReplayFrom(pq, 0, 0) after compaction: %v, want compaction error", err)
	}
	checkRebuilds(t, s, schema, []*store.Peer{pn}, func(int) core.Trust { return trustN })
}

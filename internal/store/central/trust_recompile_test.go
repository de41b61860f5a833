package central

import (
	"context"
	"fmt"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"orchestra/internal/core"
	"orchestra/internal/store"
	"orchestra/internal/trust"
	"orchestra/internal/workload"
)

// TestTrustRecompileCounter pins the incremental re-evaluation contract at
// the store boundary: a mid-stream re-registration recompiles exactly the
// participants whose delegation closure reaches the changed peer — never
// the whole membership, and of those only the ones whose effective policy
// can change — and the TrustRecompiles counter exposes that.
func TestTrustRecompileCounter(t *testing.T) {
	schema := trustPersistSchema(t)
	ctx := context.Background()
	st, err := Open(schema, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	reg := func(peer, text string) {
		t.Helper()
		if err := st.RegisterPeer(ctx, core.PeerID(peer), trust.MustParse(text)); err != nil {
			t.Fatalf("register %s: %v", peer, err)
		}
	}
	recompiles := func() int64 { return st.Metrics().Snapshot().TrustRecompiles }

	// Chain a --> b --> c plus two peers outside the chain.
	reg("c", "priority 1 when origin = 'pz'")
	reg("b", "priority 1 when origin = 'py'\ndelegate 'c' priority 2")
	reg("a", "priority 1 when origin = 'px'\ndelegate 'b' priority 3")
	reg("iso", "priority 1 when true")
	reg("other", "priority 2 when origin = 'pq'")

	// Changing the chain's leaf recompiles the leaf and both delegators —
	// and nobody else (5 members, delta 3).
	before := recompiles()
	reg("c", "priority 8 when origin = 'pz'")
	if got := recompiles() - before; got != 3 {
		t.Fatalf("leaf re-registration recompiled %d participants, want 3 (a, b, c)", got)
	}

	// Changing an isolated peer recompiles only itself.
	before = recompiles()
	reg("iso", "priority 2 when true")
	if got := recompiles() - before; got != 1 {
		t.Fatalf("isolated re-registration recompiled %d participants, want 1", got)
	}

	// Changing the chain's head recompiles only the head: delegation edges
	// point downstream, so b and c are unaffected.
	before = recompiles()
	reg("a", "priority 6 when origin = 'px'\ndelegate 'b' priority 3")
	if got := recompiles() - before; got != 1 {
		t.Fatalf("head re-registration recompiled %d participants, want 1", got)
	}

	// A rules-only edit whose capped contribution is unchanged recompiles
	// only the edited peer: c's rule moves from 8 to 9, but a and b see c
	// through cap 2 either way, so their effective policies stay as built.
	before = recompiles()
	reg("c", "priority 9 when origin = 'pz'")
	if got := recompiles() - before; got != 1 {
		t.Fatalf("capped-unchanged re-registration recompiled %d participants, want 1", got)
	}
}

// TestTrustRegisterDoesNotStallPublish: a trust change never stalls the
// group. While a 1k-peer star's hub flips from a direct policy to its
// delegating one — an edge change that re-resolves every peer — a leaf
// keeps publishing, and its p99 publish latency stays below a tenth of
// the registration's own duration (a relative bound, meaningful under
// -race too).
func TestTrustRegisterDoesNotStallPublish(t *testing.T) {
	tt, err := workload.NewTrustTopology(workload.TopologyConfig{Kind: workload.Star, Peers: 1000, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	schema := trustPersistSchema(t)
	ctx := context.Background()
	st, err := Open(schema, "")
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	reg := func(id core.PeerID, text string) {
		t.Helper()
		if err := st.RegisterPeer(ctx, id, trust.MustParse(text)); err != nil {
			t.Fatalf("register %s: %v", id, err)
		}
	}
	for i := 0; i < tt.Len(); i++ {
		reg(tt.PeerID(i), tt.DirectPolicy(i))
	}
	for i := tt.Len() - 1; i >= 1; i-- {
		reg(tt.PeerID(i), tt.Policy(i))
	}

	// The publisher runs open loop, one publish due every interval, and
	// times each from its due time: a stall delays every publish due
	// during it, not just the one in flight. It stops at the first due
	// time after the registration ended, so a backlog is drained first.
	const interval = 500 * time.Microsecond
	pub := tt.PeerID(1)
	var lat []time.Duration
	var pubErr error
	var end atomic.Int64 // the registration's end, unix ns; 0 while running
	started, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		start := time.Now()
		for seq := uint64(1); ; seq++ {
			due := start.Add(time.Duration(seq-1) * interval)
			if e := end.Load(); e != 0 && due.UnixNano() > e {
				return
			}
			time.Sleep(time.Until(due))
			x := core.NewTransaction(core.TxnID{Origin: pub, Seq: seq},
				core.Insert("R", core.Strs(fmt.Sprintf("k%d", seq), "v"), pub))
			if _, err := st.Publish(ctx, pub, []store.PublishedTxn{{Txn: x}}); err != nil {
				pubErr = err
				return
			}
			lat = append(lat, time.Since(due))
			if seq == 1 {
				close(started)
			}
		}
	}()
	hub := trust.MustParse(tt.Policy(0))
	<-started
	t0 := time.Now()
	err = st.RegisterPeer(ctx, tt.PeerID(0), hub)
	register := time.Since(t0)
	end.Store(time.Now().UnixNano())
	<-done
	if err != nil {
		t.Fatal(err)
	}
	if pubErr != nil {
		t.Fatal(pubErr)
	}
	if len(lat) < 10 {
		t.Fatalf("only %d publishes were due during a %v registration", len(lat), register)
	}
	slices.Sort(lat)
	p99 := lat[len(lat)*99/100]
	t.Logf("hub flip took %v; %d publishes due meanwhile, p99 %v", register, len(lat), p99)
	if p99 >= register/10 {
		t.Fatalf("publish p99 %v during a %v trust registration: want below a tenth of it", p99, register)
	}
}

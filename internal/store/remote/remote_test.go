package remote

import (
	"context"
	"strings"
	"testing"
	"time"

	"orchestra/internal/core"
	"orchestra/internal/rpc"
	"orchestra/internal/simnet"
	"orchestra/internal/store"
	"orchestra/internal/store/central"
	"orchestra/internal/store/storetest"
	"orchestra/internal/trust"
)

// startServer hosts a central store over TCP and returns its address.
func startServer(t *testing.T, schema *core.Schema) string {
	t.Helper()
	backend := central.MustOpenMemory(schema)
	srv := NewServer(backend, schema)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		srv.Close()
		backend.Close()
	})
	return addr
}

func policyAll(t *testing.T) *trust.Policy {
	t.Helper()
	p, err := trust.Parse("priority 1 when true")
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestConformance runs the full storetest suite over the wire: every peer
// is a TCP client of a server hosting a central backend, so the suite
// exercises the binary publish payloads, textual trust policies, batched
// decisions, and the tail-replay RPC end-to-end.
func TestConformance(t *testing.T) {
	storetest.RunConformance(t, func(t *testing.T, schema *core.Schema) (func(core.PeerID) store.Store, func()) {
		addr := startServer(t, schema)
		return func(p core.PeerID) store.Store { return NewClient(string(p), addr) }, func() {}
	})
}

// TestWatchConformance runs the watch-subscription suite over TCP: the
// subscription crosses the wire as the bounded long-poll, so ordering,
// contiguity, cursor resume, and the compaction boundary are all exercised
// through the proxy. A short poll keeps the suite fast.
func TestWatchConformance(t *testing.T) {
	storetest.RunWatchConformance(t, func(t *testing.T, schema *core.Schema) (func(core.PeerID) store.Store, func()) {
		addr := startServer(t, schema)
		return func(p core.PeerID) store.Store {
			return NewClient(string(p), addr, WithWatchPoll(10*time.Millisecond))
		}, func() {}
	})
}

// TestMultiGroupConformance runs the tenancy suite over TCP: a group
// gateway in front of a shared-database Node, with every peer a
// group-scoped client. Exercises the group route prefix, lazy per-group
// sub-servers, and the namespace codec on the wire.
func TestMultiGroupConformance(t *testing.T) {
	plain := func(t *testing.T, schema *core.Schema) (func(core.PeerID) store.Store, func()) {
		addr := startServer(t, schema)
		return func(p core.PeerID) store.Store { return NewClient(string(p), addr) }, func() {}
	}
	storetest.RunMultiGroupConformance(t, plain,
		func(t *testing.T, schema *core.Schema) (func(string, core.PeerID) store.Store, func()) {
			node, err := central.OpenNode("")
			if err != nil {
				t.Fatal(err)
			}
			gw := NewGroupServer(func(group string) (store.Store, error) {
				return node.OpenGroup(group, schema)
			}, schema)
			addr, err := gw.Listen("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			return func(group string, p core.PeerID) store.Store {
					return NewClient(string(p), addr, WithGroup(group))
				}, func() {
					gw.Close()
					node.Close()
				}
		})
}

func TestRemoteEndToEnd(t *testing.T) {
	schema := storetest.Schema(t)
	addr := startServer(t, schema)
	ctx := context.Background()

	mk := func(id core.PeerID) *store.Peer {
		p, err := store.NewPeer(ctx, id, schema, policyAll(t), NewClient(string(id), addr))
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	alice := mk("alice")
	bob := mk("bob")

	if _, err := alice.Edit(core.Insert("F", core.Strs("rat", "p1", "immune"), "alice")); err != nil {
		t.Fatal(err)
	}
	if _, err := alice.PublishAndReconcile(ctx); err != nil {
		t.Fatal(err)
	}
	res, err := bob.PublishAndReconcile(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Accepted) != 1 {
		t.Fatalf("bob accepted %v", res.Accepted)
	}
	if bob.Instance().Len("F") != 1 {
		t.Errorf("bob instance: %v", bob.Instance().Tuples("F"))
	}
	if n, err := NewClient("x", addr).CurrentRecno(ctx, "bob"); err != nil || n != 1 {
		t.Errorf("recno over the wire: %d %v", n, err)
	}
}

func TestRemoteAntecedentChains(t *testing.T) {
	schema := storetest.Schema(t)
	addr := startServer(t, schema)
	ctx := context.Background()
	a, _ := store.NewPeer(ctx, "a", schema, policyAll(t), NewClient("a", addr))
	b, _ := store.NewPeer(ctx, "b", schema, policyAll(t), NewClient("b", addr))
	c, _ := store.NewPeer(ctx, "c", schema, policyAll(t), NewClient("c", addr))

	xa, _ := a.Edit(core.Insert("F", core.Strs("rat", "p1", "v0"), "a"))
	a.PublishAndReconcile(ctx)
	b.PublishAndReconcile(ctx)
	xb, _ := b.Edit(core.Modify("F", core.Strs("rat", "p1", "v0"), core.Strs("rat", "p1", "v1"), "b"))
	b.PublishAndReconcile(ctx)

	res, err := c.PublishAndReconcile(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Accepted) != 2 {
		t.Fatalf("c accepted %v, want chain %v+%v", res.Accepted, xa.ID, xb.ID)
	}
	got, _ := c.Instance().Lookup("F", core.Strs("rat", "p1"))
	if got[2].Str() != "v1" {
		t.Errorf("c sees %v", got)
	}
}

func TestRemotePolicyOverTheWire(t *testing.T) {
	schema := storetest.Schema(t)
	addr := startServer(t, schema)
	ctx := context.Background()

	// q trusts only the curator, via a textual policy evaluated
	// server-side.
	qPolicy, err := trust.Parse("priority 1 when origin = 'curator'")
	if err != nil {
		t.Fatal(err)
	}
	curator, _ := store.NewPeer(ctx, "curator", schema, policyAll(t), NewClient("curator", addr))
	outsider, _ := store.NewPeer(ctx, "outsider", schema, policyAll(t), NewClient("outsider", addr))
	q, err := store.NewPeer(ctx, "q", schema, qPolicy, NewClient("q", addr))
	if err != nil {
		t.Fatal(err)
	}

	curator.Edit(core.Insert("F", core.Strs("rat", "p1", "t"), "curator"))
	curator.PublishAndReconcile(ctx)
	outsider.Edit(core.Insert("F", core.Strs("mouse", "p2", "u"), "outsider"))
	outsider.PublishAndReconcile(ctx)

	res, err := q.PublishAndReconcile(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Accepted) != 1 || q.Instance().Len("F") != 1 {
		t.Fatalf("q accepted %v, instance %v", res.Accepted, q.Instance().Tuples("F"))
	}
}

func TestRemoteRejectsNonTextualPolicy(t *testing.T) {
	schema := storetest.Schema(t)
	addr := startServer(t, schema)
	cl := NewClient("x", addr)
	err := cl.RegisterPeer(context.Background(), "x", core.TrustAll(1))
	if err == nil || !strings.Contains(err.Error(), "textual") {
		t.Errorf("err = %v", err)
	}
}

func TestRemoteBadPolicyRejectedServerSide(t *testing.T) {
	schema := storetest.Schema(t)
	addr := startServer(t, schema)
	// Send a syntactically invalid policy text directly: the server must
	// reject it when compiling.
	cl := NewClient("x", addr)
	err := rpc.Invoke(context.Background(), cl.caller, addr, mRegister,
		&registerArgs{Peer: "x", Policy: "garbage"}, nil)
	if err == nil {
		t.Error("server accepted garbage policy")
	}
}

// TestCapsRPC: one store.caps round trip answers every capability probe
// from the backend's own answers, and the client caches it — except after
// a transient failure, which the next probe retries. Group-scoped clients
// ask their group's sub-server like every other method.
func TestCapsRPC(t *testing.T) {
	schema := storetest.Schema(t)
	ctx := context.Background()
	// serve hosts a central backend, or — plain — the same backend behind
	// nothing but the store.Store method set.
	serve := func(plain bool) func(t *testing.T) rpc.Handler {
		return func(t *testing.T) rpc.Handler {
			cs := central.MustOpenMemory(schema)
			t.Cleanup(func() { cs.Close() })
			var backend store.Store = cs
			if plain {
				backend = struct{ store.Store }{cs}
			}
			return NewServer(backend, schema).Handler()
		}
	}
	all := capsReply{Snapshot: true, Dedupe: true, Watch: true, MultiGroup: true}
	for _, tc := range []struct {
		name      string
		handler   func(t *testing.T) rpc.Handler
		opts      []ClientOption
		failFirst bool
		want      capsReply
		probes    int
	}{
		{name: "central", handler: serve(false), want: all, probes: 1},
		{name: "plain", handler: serve(true), want: capsReply{}, probes: 1},
		{name: "transient", handler: serve(false), failFirst: true, want: all, probes: 2},
		{name: "group", handler: func(t *testing.T) rpc.Handler {
			node, err := central.OpenNode("")
			if err != nil {
				t.Fatal(err)
			}
			gw := NewGroupServer(func(group string) (store.Store, error) { return node.OpenGroup(group, schema) }, schema)
			t.Cleanup(func() { gw.Close(); node.Close() })
			return gw.Handler()
		}, opts: []ClientOption{WithGroup("g1")}, want: all, probes: 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h := tc.handler(t)
			probes, fail := 0, tc.failFirst
			caller := rpc.CallerFunc(func(ctx context.Context, to, method string, body []byte) ([]byte, error) {
				if strings.HasSuffix(method, mCaps) {
					probes++
					if fail {
						fail = false
						return nil, simnet.ErrUnreachable
					}
				}
				return h.ServeRPC(ctx, rpc.Request{From: "client", Method: method, Body: body})
			})
			c := NewClientOn(caller, "server", tc.opts...)
			if tc.failFirst && c.CanSnapshot(ctx) {
				t.Error("a transient probe failure answered yes")
			}
			for i := 0; i < 2; i++ {
				got := capsReply{
					Snapshot:   store.CanSnapshot(ctx, c),
					Dedupe:     store.CanDedupe(ctx, c),
					Watch:      store.CanWatch(ctx, c),
					MultiGroup: store.CanMultiGroup(ctx, c),
				}
				if got != tc.want {
					t.Errorf("probe pass %d: %+v, want %+v", i, got, tc.want)
				}
				if store.CanReplay(ctx, c) != tc.want.Snapshot {
					t.Errorf("CanReplay differs from CanSnapshot")
				}
			}
			if probes != tc.probes {
				t.Errorf("%d store.caps round trips, want %d", probes, tc.probes)
			}
		})
	}
}

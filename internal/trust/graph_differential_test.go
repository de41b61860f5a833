package trust

import (
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"orchestra/internal/core"
	"orchestra/internal/workload"
)

// orderedTopology builds a graph the way live harnesses do: direct
// policies first, then the full delegating policies in descending index
// order.
func orderedTopology(tt *workload.TrustTopology) *Graph {
	g := NewGraph(nil)
	for i := 0; i < tt.Len(); i++ {
		g.Set(tt.PeerID(i), MustParse(tt.DirectPolicy(i)))
	}
	for i := tt.Len() - 1; i >= 0; i-- {
		g.Set(tt.PeerID(i), MustParse(tt.Policy(i)))
	}
	return g
}

// TestGraphLoadResolvesOnce: the bulk load that recovery uses resolves
// each member exactly once whatever the (map) order, and lands on the
// same effective policies as the ordered, one-Set-at-a-time build.
func TestGraphLoadResolvesOnce(t *testing.T) {
	const n = 400
	tt, err := workload.NewTrustTopology(workload.TopologyConfig{Kind: workload.Star, Peers: n, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	members := make(map[core.PeerID]core.Trust, n)
	for i := 0; i < n; i++ {
		members[tt.PeerID(i)] = MustParse(tt.Policy(i))
	}
	g := NewGraph(nil)
	if deps := g.Load(members); len(deps) != n {
		t.Fatalf("Load returned %d dependents, want %d", len(deps), n)
	}
	if got := g.TotalRecompiles(); got != n {
		t.Fatalf("Load resolved %d times, want %d (once per member)", got, n)
	}
	want := orderedTopology(tt)
	for i := 0; i < n; i++ {
		id := tt.PeerID(i)
		a, b := g.Effective(id).(*Policy), want.Effective(id).(*Policy)
		if a.String() != b.String() {
			t.Fatalf("%s: loaded effective policy differs from the ordered build", id)
		}
		if g.Recompiles(id) != 1 {
			t.Fatalf("%s resolved %d times", id, g.Recompiles(id))
		}
	}
}

// diffEditor generates random memberships over a fixed peer roster: rule
// lists drawn from a small predicate pool (so the merge's duplicate
// suppression is exercised across members), delegations to any roster
// peer, registered or not.
type diffEditor struct {
	rng   *rand.Rand
	peers []core.PeerID
}

func (e *diffEditor) rules(self core.PeerID) string {
	var b strings.Builder
	fmt.Fprintf(&b, "priority %d when origin = '%s'\n", 1+e.rng.Intn(6), self)
	for k := e.rng.Intn(3); k > 0; k-- {
		switch e.rng.Intn(3) {
		case 0:
			fmt.Fprintf(&b, "priority %d when true\n", 1+e.rng.Intn(4))
		case 1:
			fmt.Fprintf(&b, "priority %d when origin = '%s'\n", 1+e.rng.Intn(6), e.peers[e.rng.Intn(len(e.peers))])
		default:
			fmt.Fprintf(&b, "priority %d when attr(0) = 'org%d'\n", 1+e.rng.Intn(6), e.rng.Intn(3))
		}
	}
	return b.String()
}

func (e *diffEditor) delegations(self core.PeerID) string {
	var b strings.Builder
	for k := e.rng.Intn(4); k > 0; k-- {
		fmt.Fprintf(&b, "delegate '%s' priority %d\n", e.peers[e.rng.Intn(len(e.peers))], 1+e.rng.Intn(4))
	}
	return b.String()
}

// recapped renders the policy's delegations, in order, with new caps.
func (e *diffEditor) recapped(p *Policy) string {
	var b strings.Builder
	for _, d := range p.Delegations() {
		fmt.Fprintf(&b, "delegate '%s' priority %d\n", d.Peer, 1+e.rng.Intn(4))
	}
	return b.String()
}

// delegationText renders a policy's delegations in its textual form.
func delegationText(p *Policy) string {
	var b strings.Builder
	for _, d := range p.Delegations() {
		fmt.Fprintf(&b, "delegate '%s' priority %d\n", d.Peer, d.Cap)
	}
	return b.String()
}

// assertMatchesScratch compares every member of g with a graph built from
// scratch on the same memberships: textual effective policies by their
// rendering, every effective trust by priority over sampled origins, and
// the cached closures.
func assertMatchesScratch(t *testing.T, step string, g *Graph, members map[core.PeerID]core.Trust, origins []core.PeerID) {
	t.Helper()
	want := NewGraph(nil)
	for _, id := range slices.Sorted(maps.Keys(members)) {
		want.Set(id, members[id])
	}
	if got, w := g.Members(), want.Members(); !reflect.DeepEqual(got, w) {
		t.Fatalf("%s: members %v, want %v", step, got, w)
	}
	for id, m := range members {
		a, b := g.Effective(id), want.Effective(id)
		if _, textual := m.(*Policy); textual {
			pa, ok1 := a.(*Policy)
			pb, ok2 := b.(*Policy)
			if !ok1 || !ok2 || pa.String() != pb.String() {
				t.Fatalf("%s: effective policy of %s differs from a from-scratch graph:\n%v\nwant\n%v", step, id, a, b)
			}
		}
		for _, o := range origins {
			u := core.Insert("F", core.Strs("org1", "prot", "fn"), o)
			if pa, pb := a.Priority(u), b.Priority(u); pa != pb {
				t.Fatalf("%s: %s priority(origin=%s) = %d, from scratch %d", step, id, o, pa, pb)
			}
		}
		if got, w := g.Closure(id), want.Closure(id); !reflect.DeepEqual(got, w) {
			t.Fatalf("%s: closure of %s = %v, want %v", step, id, got, w)
		}
	}
}

// TestGraphFastPathDifferential: seeded random edit sequences — rules-only
// edits (the fast path), edge changes, cap-only changes, removals,
// non-textual members and identical re-registrations — over every generated topology kind and
// random graphs. After every edit, every member's effective trust equals
// that of a graph built from scratch on the final memberships, and the
// rebuild count never exceeds the dependency set (and equals it off the
// fast path).
func TestGraphFastPathDifferential(t *testing.T) {
	const n, steps = 32, 60
	kinds := append([]string(nil), "random")
	for _, k := range workload.Topologies {
		kinds = append(kinds, string(k))
	}
	for _, kind := range kinds {
		for seed := int64(1); seed <= 2; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", kind, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				ed := &diffEditor{rng: rng}
				for i := 0; i < n; i++ {
					ed.peers = append(ed.peers, core.PeerID(fmt.Sprintf("p%04d", i)))
				}
				members := make(map[core.PeerID]core.Trust, n)
				var g *Graph
				if kind == "random" {
					g = NewGraph(nil)
					for _, id := range ed.peers {
						pol := MustParse(ed.rules(id) + ed.delegations(id))
						g.Set(id, pol)
						members[id] = pol
					}
				} else {
					tt, err := workload.NewTrustTopology(workload.TopologyConfig{Kind: workload.TopologyKind(kind), Peers: n, Seed: seed})
					if err != nil {
						t.Fatal(err)
					}
					g = orderedTopology(tt)
					for i := 0; i < n; i++ {
						members[tt.PeerID(i)] = g.Member(tt.PeerID(i))
					}
				}
				origins := append(ed.peers[:n:n], "ghost")
				assertMatchesScratch(t, "initial", g, members, origins)

				for s := 0; s < steps; s++ {
					id := ed.peers[rng.Intn(n)]
					cur, textual := members[id].(*Policy)
					var next core.Trust
					op := "edges"
					switch r := rng.Intn(10); {
					case r < 5 && textual:
						op, next = "rules-only", MustParse(ed.rules(id)+delegationText(cur))
					case r == 5 && textual:
						op, next = "identical", MustParse(cur.String())
					case r == 6 && members[id] != nil:
						op = "remove"
					case r == 7:
						op, next = "non-textual", core.TrustAll(1+rng.Intn(4))
					case r == 8 && textual:
						op, next = "caps", MustParse(ed.rules(id)+ed.recapped(cur))
					default:
						next = MustParse(ed.rules(id) + ed.delegations(id))
					}
					// The fast path: textual before and after, same edges.
					np, _ := next.(*Policy)
					fast := textual && np != nil && delegationText(np) == delegationText(cur)
					before := g.TotalRecompiles()
					var deps []core.PeerID
					if next == nil {
						deps = g.Remove(id)
						delete(members, id)
					} else {
						deps = g.Set(id, next)
						members[id] = next
					}
					step := fmt.Sprintf("step %d (%s %s)", s, op, id)
					rebuilt := g.TotalRecompiles() - before
					switch {
					case fast && (rebuilt < 1 || rebuilt > len(deps)):
						t.Fatalf("%s: rebuilt %d of %d dependents", step, rebuilt, len(deps))
					case !fast && rebuilt != len(deps):
						t.Fatalf("%s: rebuilt %d, want the whole dependency set %d", step, rebuilt, len(deps))
					}
					assertMatchesScratch(t, step, g, members, origins)
				}
			})
		}
	}
}

// BenchmarkGraphSet times hub edits on a resolved 1k-peer star: a
// rules-only edit (the hub's own rule priority, which the leaves' caps
// hide) and an edge-changing flip between the hub's direct and
// delegating policies, which re-resolves every peer.
func BenchmarkGraphSet(b *testing.B) {
	tt, err := workload.NewTrustTopology(workload.TopologyConfig{Kind: workload.Star, Peers: 1000, Seed: 7})
	if err != nil {
		b.Fatal(err)
	}
	hub := tt.PeerID(0)
	bumped := strings.Replace(tt.Policy(0), tt.DirectPolicy(0), fmt.Sprintf("priority 5 when origin = '%s'\n", hub), 1)
	for _, c := range []struct {
		name string
		pols [2]string
	}{
		{"rules-only", [2]string{bumped, tt.Policy(0)}},
		{"edge-flip", [2]string{tt.DirectPolicy(0), tt.Policy(0)}},
	} {
		b.Run(c.name, func(b *testing.B) {
			g := orderedTopology(tt)
			pols := [2]*Policy{MustParse(c.pols[0]), MustParse(c.pols[1])}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g.Set(hub, pols[i%2])
			}
		})
	}
}

package trust

import (
	"cmp"
	"math"
	"runtime"
	"slices"
	"sort"
	"sync"
	"time"

	"orchestra/internal/core"
)

// Graph resolves trust delegations across a set of participants. Each
// member has its own trust (usually a textual *Policy, possibly carrying
// `delegate <peer> priority <n>` mappings); the graph computes every
// member's *effective* trust — its own rules plus, for every transitively
// reachable delegate, that delegate's direct rules capped at the
// bottleneck priority of the best delegation path (the priority-preserving
// transitive closure of Gatterbauer & Suciu: cap(B→D) is the maximum over
// paths of the minimum edge priority, so cycles are harmless — a cycle
// can never raise a cap). Effective policies are compiled at resolution
// time.
//
// An edit costs what it changes. The participants whose closure reaches
// a changed member (reverse reachability over delegation edges, the
// member included) are its dependency set; of those, only the ones whose
// effective policy can differ are rebuilt:
//
//   - an edit that keeps a textual member's delegation edges leaves every
//     closure as it was, so the graph rebuilds the member itself and each
//     dependent whose cached cap on the member caps the old and the new
//     rules to different (priority, predicate) lists; every other
//     dependent keeps its effective policy, pointer and all;
//   - edge changes, new members, removals and non-textual members
//     re-resolve the whole dependency set.
//
// Resolution is deterministic in its inputs, so both paths produce
// bit-identical effective policies. The per-member recompile counters
// count rebuilds.
//
// A Graph is safe for concurrent use. Writers (Set, Load, Remove) are
// serialized and resolve without blocking readers: until a writer
// installs its results, readers see the previous effective policies.
type Graph struct {
	// wmu serializes writers. A writer edits the topology and installs
	// its results holding mu as well, but resolves — the expensive part —
	// holding only wmu.
	wmu sync.Mutex
	// mu guards what readers see: the index and the nodes (membership,
	// effective policies, cached closures, counters). Writers change them
	// only under mu, and read them without it.
	mu     sync.RWMutex
	schema *core.Schema
	index  map[core.PeerID]int32
	nodes  []node
	free   []int32 // released node slots
	total  int

	// Writer-only state, guarded by wmu.
	preds     map[string]int32 // interned rule predicates
	predRefs  []int32          // live rule references per predicate id
	predFree  []int32          // released predicate ids
	rank      []int32          // each node's position in peer-ID order
	rankStale bool
	sc        graphScratch
}

// node is one peer the graph knows: a member, or a peer some member
// delegates to that is not registered (kept so its delegators are found
// when it registers).
type node struct {
	id    core.PeerID
	trust core.Trust // the member's own trust; nil for a non-member
	pol   *Policy    // trust as a textual policy, else nil
	rules []Rule     // pol's rules as registered
	preds []int32    // interned predicate of each rule
	out   []edge     // pol's delegations as registered
	in    []int32    // nodes delegating here
	// caps caches the closure: every reachable delegate with its path
	// bottleneck cap, in merge (peer-ID) order.
	caps       []edge
	eff        core.Trust
	recompiles int
}

// edge is a delegation to a node, or a closure entry, with its cap.
type edge struct {
	to  int32
	cap int
}

// graphScratch is the writers' reusable working memory, sized by node and
// predicate count.
type graphScratch struct {
	width   []int    // widest-path width per node; 0 = unreached
	reached []int32  // nodes with a width set
	heap    []edge   // widest-path frontier, a max-heap on cap
	seen    []uint32 // dependency-search visit stamp per node
	stamp   uint32
	prio    []int   // highest merged priority per predicate id
	merged  []int32 // predicate ids with prio set
	built   []built
}

// built is one rebuilt member, with its closure, awaiting install.
type built struct {
	i    int32
	eff  core.Trust
	caps []edge
}

// NewGraph returns an empty graph. The schema (may be nil) is bound to
// effective policies whose member policy has none, so attr('name') rules
// resolve.
func NewGraph(schema *core.Schema) *Graph {
	return &Graph{
		schema: schema,
		index:  make(map[core.PeerID]int32),
		preds:  make(map[string]int32),
	}
}

// Set registers or replaces a member's trust and returns its dependency
// set, sorted: the peers whose delegation closure contains the member,
// plus the member itself. Only the dependents whose effective trust can
// differ are rebuilt (see Graph); when the member keeps its delegation
// edges that is usually just the member.
func (g *Graph) Set(peer core.PeerID, t core.Trust) []core.PeerID {
	g.wmu.Lock()
	defer g.wmu.Unlock()
	g.mu.Lock()
	i, oldRules, sameEdges := g.installLocked(peer, t)
	g.mu.Unlock()
	deps := g.dependents([]int32{i})
	if sameEdges {
		g.rebuildChanged(i, oldRules, deps)
	} else {
		g.rebuild(deps)
	}
	return g.ids(deps)
}

// Load registers every given member, then resolves each member of the
// union of their dependency sets exactly once — the bulk form of Set for
// recovery, where per-member Sets would re-resolve the loaded members over
// and over. It returns that union, sorted.
func (g *Graph) Load(members map[core.PeerID]core.Trust) []core.PeerID {
	g.wmu.Lock()
	defer g.wmu.Unlock()
	seeds := make([]int32, 0, len(members))
	g.mu.Lock()
	for id, t := range members {
		i, _, _ := g.installLocked(id, t)
		seeds = append(seeds, i)
	}
	g.mu.Unlock()
	deps := g.dependents(seeds)
	g.rebuild(deps)
	return g.ids(deps)
}

// Remove drops a member and re-resolves the participants that delegated
// (transitively) to it, returning them sorted.
func (g *Graph) Remove(peer core.PeerID) []core.PeerID {
	g.wmu.Lock()
	defer g.wmu.Unlock()
	i, ok := g.index[peer]
	if !ok || g.nodes[i].trust == nil {
		return nil
	}
	deps := slices.DeleteFunc(g.dependents([]int32{i}), func(d int32) bool { return d == i })
	g.mu.Lock()
	g.setEdgesLocked(i, nil)
	n := &g.nodes[i]
	g.release(n.rules, n.preds)
	n.trust, n.pol, n.rules, n.preds, n.caps, n.eff = nil, nil, nil, nil, nil, nil
	g.mu.Unlock()
	g.rebuild(deps)
	// Freed only now: until the rebuild, dependents' closures named it.
	g.mu.Lock()
	g.freeIfUnusedLocked(i)
	g.mu.Unlock()
	return g.ids(deps)
}

// Effective returns the member's resolved, compiled trust, or nil for an
// unknown member.
func (g *Graph) Effective(peer core.PeerID) core.Trust {
	g.mu.RLock()
	defer g.mu.RUnlock()
	if i, ok := g.index[peer]; ok {
		return g.nodes[i].eff
	}
	return nil
}

// Member returns the member's own (unresolved) trust, or nil.
func (g *Graph) Member(peer core.PeerID) core.Trust {
	g.mu.RLock()
	defer g.mu.RUnlock()
	if i, ok := g.index[peer]; ok {
		return g.nodes[i].trust
	}
	return nil
}

// Members returns the member IDs, sorted.
func (g *Graph) Members() []core.PeerID {
	g.mu.RLock()
	defer g.mu.RUnlock()
	out := make([]core.PeerID, 0, len(g.index))
	for id, i := range g.index {
		if g.nodes[i].trust != nil {
			out = append(out, id)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Closure returns the member's transitive delegation closure: for every
// reachable delegate, the bottleneck-maximal priority cap of the best
// path. The member itself is excluded (its own rules are uncapped).
func (g *Graph) Closure(peer core.PeerID) map[core.PeerID]int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	out := make(map[core.PeerID]int)
	if i, ok := g.index[peer]; ok {
		for _, c := range g.nodes[i].caps {
			out[g.nodes[c.to].id] = c.cap
		}
	}
	return out
}

// Recompiles returns how many times the member's effective trust has been
// rebuilt (including its initial registration).
func (g *Graph) Recompiles(peer core.PeerID) int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	if i, ok := g.index[peer]; ok {
		return g.nodes[i].recompiles
	}
	return 0
}

// TotalRecompiles returns the total number of effective-trust rebuilds
// across all members.
func (g *Graph) TotalRecompiles() int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.total
}

// installLocked puts the member's trust into the topology. It returns the
// rules the member was registered with and whether the edit keeps the
// member's delegation edges: textual before and after, with the same
// delegations.
func (g *Graph) installLocked(peer core.PeerID, t core.Trust) (int32, []Rule, bool) {
	i := g.nodeLocked(peer)
	n := &g.nodes[i]
	old, oldRules, oldPreds := n.pol, n.rules, n.preds
	pol, _ := t.(*Policy)
	var rules []Rule
	var preds []int32
	if pol != nil {
		rules = pol.rules
		preds = g.intern(rules)
	}
	g.release(oldRules, oldPreds)
	sameEdges := old != nil && pol != nil && g.sameEdges(n.out, pol.delegs)
	n.trust, n.pol, n.rules, n.preds = t, pol, rules, preds
	if !sameEdges {
		g.setEdgesLocked(i, pol)
	}
	return i, oldRules, sameEdges
}

// nodeLocked returns the peer's node, allocating one if the graph has
// never seen the peer.
func (g *Graph) nodeLocked(peer core.PeerID) int32 {
	if i, ok := g.index[peer]; ok {
		return i
	}
	var i int32
	if n := len(g.free); n > 0 {
		i, g.free = g.free[n-1], g.free[:n-1]
	} else {
		i = int32(len(g.nodes))
		g.nodes = append(g.nodes, node{})
	}
	g.nodes[i] = node{id: peer}
	g.index[peer] = i
	g.rankStale = true
	return i
}

// freeIfUnusedLocked releases a non-member node no member delegates to.
func (g *Graph) freeIfUnusedLocked(i int32) {
	if n := &g.nodes[i]; n.trust == nil && len(n.in) == 0 {
		delete(g.index, n.id)
		*n = node{}
		g.free = append(g.free, i)
	}
}

// sameEdges reports whether the delegations name the same nodes, with
// the same caps and in the same order, as the edges.
func (g *Graph) sameEdges(out []edge, delegs []Delegation) bool {
	if len(out) != len(delegs) {
		return false
	}
	for k, d := range delegs {
		to, ok := g.index[d.Peer]
		if !ok || out[k].to != to || out[k].cap != d.Cap {
			return false
		}
	}
	return true
}

// setEdgesLocked replaces node i's delegation edges with pol's (none for
// nil), keeping every target's reverse adjacency in step.
func (g *Graph) setEdgesLocked(i int32, pol *Policy) {
	old := g.nodes[i].out
	g.nodes[i].out = nil
	for _, e := range old {
		in := g.nodes[e.to].in
		if k := slices.Index(in, i); k >= 0 {
			in[k] = in[len(in)-1]
			g.nodes[e.to].in = in[:len(in)-1]
		}
		g.freeIfUnusedLocked(e.to)
	}
	if pol == nil || len(pol.delegs) == 0 {
		return
	}
	out := make([]edge, len(pol.delegs))
	for k, d := range pol.delegs {
		to := g.nodeLocked(d.Peer)
		out[k] = edge{to: to, cap: d.Cap}
		g.nodes[to].in = append(g.nodes[to].in, i)
	}
	g.nodes[i].out = out
}

// intern returns the predicate id of each rule, taking a reference on it.
func (g *Graph) intern(rules []Rule) []int32 {
	if len(rules) == 0 {
		return nil
	}
	ids := make([]int32, len(rules))
	for k := range rules {
		id, ok := g.preds[rules[k].Predicate]
		if !ok {
			if n := len(g.predFree); n > 0 {
				id, g.predFree = g.predFree[n-1], g.predFree[:n-1]
			} else {
				id = int32(len(g.predRefs))
				g.predRefs = append(g.predRefs, 0)
			}
			g.preds[rules[k].Predicate] = id
		}
		g.predRefs[id]++
		ids[k] = id
	}
	return ids
}

// release drops the references intern took for the rules.
func (g *Graph) release(rules []Rule, ids []int32) {
	for k, id := range ids {
		if g.predRefs[id]--; g.predRefs[id] == 0 {
			delete(g.preds, rules[k].Predicate)
			g.predFree = append(g.predFree, id)
		}
	}
}

// ranks returns each node's position in peer-ID order, re-sorting after
// new nodes were allocated.
func (g *Graph) ranks() []int32 {
	if g.rankStale {
		order := make([]int32, len(g.nodes))
		for i := range order {
			order[i] = int32(i)
		}
		slices.SortFunc(order, func(a, b int32) int { return cmp.Compare(g.nodes[a].id, g.nodes[b].id) })
		g.rank = slices.Grow(g.rank[:0], len(order))[:len(order)]
		for r, i := range order {
			g.rank[i] = int32(r)
		}
		g.rankStale = false
	}
	return g.rank
}

// dependents returns the members whose effective trust depends on a seed
// (the seeds included, if members): reverse reachability over delegation
// edges, in peer-ID order.
func (g *Graph) dependents(seeds []int32) []int32 {
	sc := &g.sc
	if len(sc.seen) < len(g.nodes) {
		sc.seen = make([]uint32, len(g.nodes))
		sc.stamp = 0
	}
	if sc.stamp++; sc.stamp == 0 {
		clear(sc.seen)
		sc.stamp = 1
	}
	var out []int32
	for _, s := range seeds {
		if sc.seen[s] != sc.stamp {
			sc.seen[s] = sc.stamp
			out = append(out, s)
		}
	}
	for k := 0; k < len(out); k++ {
		for _, src := range g.nodes[out[k]].in {
			if sc.seen[src] != sc.stamp {
				sc.seen[src] = sc.stamp
				out = append(out, src)
			}
		}
	}
	out = slices.DeleteFunc(out, func(i int32) bool { return g.nodes[i].trust == nil })
	rank := g.ranks()
	slices.SortFunc(out, func(a, b int32) int { return cmp.Compare(rank[a], rank[b]) })
	return out
}

// ids maps nodes to their peer IDs.
func (g *Graph) ids(nodes []int32) []core.PeerID {
	out := make([]core.PeerID, len(nodes))
	for k, i := range nodes {
		out[k] = g.nodes[i].id
	}
	return out
}

// rebuild re-resolves every given member from scratch — closure search
// and merge — and installs the results.
func (g *Graph) rebuild(members []int32) {
	res := g.sc.built[:0]
	ran := time.Now()
	for _, i := range members {
		caps := g.closure(i)
		res = append(res, built{i: i, eff: g.resolve(i, caps), caps: caps})
		pace(&ran)
	}
	g.install(res)
}

// pace yields the processor once a writer has run for a millisecond
// since it last did, so a long re-resolution delays goroutines queued
// behind it by about that much — not by the whole set, or by the
// scheduler's 10ms preemption.
func pace(ran *time.Time) {
	if time.Since(*ran) > time.Millisecond {
		runtime.Gosched()
		*ran = time.Now()
	}
}

// rebuildChanged handles an edit to member m that kept its delegation
// edges, replacing the rules old: every closure is unchanged, so m is
// rebuilt over its cached closure, and a dependent only if m's rules,
// capped at the dependent's cached cap on m, changed.
func (g *Graph) rebuildChanged(m int32, old []Rule, deps []int32) {
	rank := g.ranks()
	rules := g.nodes[m].rules
	res := g.sc.built[:0]
	ran := time.Now()
	for _, d := range deps {
		if d != m {
			caps := g.nodes[d].caps
			k, found := slices.BinarySearchFunc(caps, rank[m], func(c edge, r int32) int { return cmp.Compare(rank[c.to], r) })
			if !found || cappedEqual(old, rules, caps[k].cap) {
				continue
			}
		}
		caps := g.nodes[d].caps
		res = append(res, built{i: d, eff: g.resolve(d, caps), caps: caps})
		pace(&ran)
	}
	g.install(res)
}

// cappedEqual reports whether two rule lists are the same (priority,
// predicate) list once every priority is capped at c.
func cappedEqual(a, b []Rule, c int) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if min(a[k].Priority, c) != min(b[k].Priority, c) || a[k].Predicate != b[k].Predicate {
			return false
		}
	}
	return true
}

// install publishes rebuilt members to readers.
func (g *Graph) install(res []built) {
	g.mu.Lock()
	for _, b := range res {
		n := &g.nodes[b.i]
		n.eff, n.caps = b.eff, b.caps
		n.recompiles++
		g.total++
	}
	g.mu.Unlock()
	clear(res)
	g.sc.built = res[:0]
}

// closure runs the widest-path (maximum-bottleneck) search from member
// src over delegation edges: Dijkstra with a max-heap, where a path's
// width is the minimum delegation cap along it. Delegations to
// non-members contribute nothing. Cycles are handled naturally — caps
// never increase along a path, so a node popped at its best width is
// final. The result excludes src and is in merge (peer-ID) order.
func (g *Graph) closure(src int32) []edge {
	if len(g.nodes[src].out) == 0 {
		return nil
	}
	sc := &g.sc
	if len(sc.width) < len(g.nodes) {
		sc.width = make([]int, len(g.nodes))
	}
	width := sc.width
	width[src] = math.MaxInt
	reached := append(sc.reached[:0], src)
	h := append(sc.heap[:0], edge{to: src, cap: math.MaxInt})
	for len(h) > 0 {
		var it edge
		it, h = heapPop(h)
		if it.cap < width[it.to] {
			continue // stale entry
		}
		for _, e := range g.nodes[it.to].out {
			if g.nodes[e.to].trust == nil {
				continue
			}
			if w := min(e.cap, it.cap); w > width[e.to] {
				if width[e.to] == 0 {
					reached = append(reached, e.to)
				}
				width[e.to] = w
				h = heapPush(h, edge{to: e.to, cap: w})
			}
		}
	}
	caps := make([]edge, 0, len(reached)-1)
	for _, i := range reached {
		if i != src {
			caps = append(caps, edge{to: i, cap: width[i]})
		}
		width[i] = 0
	}
	sc.reached, sc.heap = reached[:0], h[:0]
	rank := g.ranks()
	slices.SortFunc(caps, func(a, b edge) int { return cmp.Compare(rank[a.to], rank[b.to]) })
	return caps
}

// heapPush and heapPop maintain a binary max-heap on cap.
func heapPush(h []edge, e edge) []edge {
	h = append(h, e)
	for k := len(h) - 1; k > 0; {
		p := (k - 1) / 2
		if h[p].cap >= h[k].cap {
			break
		}
		h[p], h[k] = h[k], h[p]
		k = p
	}
	return h
}

func heapPop(h []edge) (edge, []edge) {
	top, n := h[0], len(h)-1
	h[0] = h[n]
	h = h[:n]
	for k := 0; ; {
		c := 2*k + 1
		if c >= n {
			break
		}
		if c+1 < n && h[c+1].cap > h[c].cap {
			c++
		}
		if h[k].cap >= h[c].cap {
			break
		}
		h[k], h[c] = h[c], h[k]
		k = c
	}
	return top, h
}

// resolve builds and compiles member i's effective trust over its
// closure: its own rules uncapped, each closure member's direct rules
// capped at the closure width, and non-textual closure members as
// dynamic sources. The merge order (own rules, then closure members in
// peer-ID order) and the duplicate-rule suppression are deterministic,
// so resolution is reproducible bit-for-bit.
func (g *Graph) resolve(i int32, caps []edge) core.Trust {
	n := &g.nodes[i]
	pol := n.pol
	if pol == nil {
		return n.trust
	}
	if len(caps) == 0 {
		pol.compiled() // compile at registration even without delegations
		return pol
	}
	eff := NewPolicy()
	eff.schema = pol.schema
	if eff.schema == nil {
		eff.schema = g.schema
	}
	eff.interpret = pol.interpret
	size := len(n.rules)
	for _, c := range caps {
		size += len(g.nodes[c.to].rules)
	}
	eff.rules = make([]Rule, 0, size)
	sc := &g.sc
	if len(sc.prio) < len(g.predRefs) {
		sc.prio = make([]int, len(g.predRefs))
	}
	g.merge(eff, n.rules, n.preds, math.MaxInt)
	for _, c := range caps {
		cn := &g.nodes[c.to]
		if cn.pol != nil {
			g.merge(eff, cn.rules, cn.preds, c.cap)
		} else {
			eff.dyn = append(eff.dyn, dynSource{t: cn.trust, cap: c.cap})
		}
	}
	for _, id := range sc.merged {
		sc.prio[id] = 0
	}
	sc.merged = sc.merged[:0]
	eff.compiled() // compile at resolution, not first decision
	return eff
}

// merge appends rules capped at c to eff. A rule whose predicate was
// already merged at the same or a higher priority can never win the max
// and is dropped.
func (g *Graph) merge(eff *Policy, rules []Rule, preds []int32, c int) {
	sc := &g.sc
	for k := range rules {
		prio := min(rules[k].Priority, c)
		id := preds[k]
		if prio <= 0 || sc.prio[id] >= prio {
			continue
		}
		if sc.prio[id] == 0 {
			sc.merged = append(sc.merged, id)
		}
		sc.prio[id] = prio
		eff.rules = append(eff.rules, Rule{Priority: prio, Predicate: rules[k].Predicate, expr: rules[k].expr})
	}
}

package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"orchestra"
	"orchestra/internal/core"
	"orchestra/internal/metrics"
	"orchestra/internal/store"
	"orchestra/internal/store/central"
	"orchestra/internal/trust"
)

// The curation workload is the paper's §6 evaluation: 8 curators over an
// in-memory central store, each making 4 SWISS-PROT-style txns per round
// (Zipf s=1.5 over the function catalogue, 7.3 XRefs per new key, txn size
// 2, key space 400) and pricing others' txns with a seeded textual policy
// whose priorities tie. ReconcileAll rounds run back to back. Round cost
// grows with the confederation's age, so the timed phase is a fixed number
// of rounds from a fresh store (an episode), repeated until the time is up.
// A run cycles through curationInputs episode inputs, all drawn from the
// run's seed, and stops only after a whole cycle, so every input weighs
// the same and a faster program repeats the same inputs, not other ones.
//
// After each episode's timed rounds the store takes a snapshot, a short
// tail of rounds follows, and every peer is rebuilt from snapshot + tail
// and checked against its live self.
const (
	curationPeers        = 8
	curationTxnsPerRound = 4
	curationRounds       = 40
	curationTail         = 2  // rounds between the snapshot and the rebuilds
	curationInputs       = 16 // distinct episode inputs per run
)

// curationPolicy renders peer i's textual policy: a priority from 1 to 3
// for each other curator, drawn from the seed, so equal priorities (and
// with them deferrals) occur.
func curationPolicy(seed int64, i, n int) string {
	rng := rand.New(rand.NewSource(seed*7919 + int64(i)))
	var b strings.Builder
	for j := 0; j < n; j++ {
		if j != i {
			fmt.Fprintf(&b, "priority %d when origin = '%s'\n", 1+rng.Intn(3), curatorID(j))
		}
	}
	return b.String()
}

func curatorID(i int) core.PeerID { return core.PeerID(fmt.Sprintf("c%d", i)) }

// episode is what one curation episode measured.
type episode struct {
	setup      float64
	rounds     []float64 // ReconcileAll durations, ms
	rebuilds   []float64 // RebuildPeer durations, ms
	phase      phaseResult
	created    int // txns made in the timed rounds
	decided    int // of those, decided by every peer
	stateRatio float64
	print      string
	stats      []core.ReconcileStats
	deferred   int // roots left deferred, summed over reconciles
	priceNs    []float64
	store      metrics.StoreSnapshot
	db         metrics.DBSnapshot
	caps       map[string]bool
	failed     int64
	attempted  int64
	failures   []string
	opErrs     []string // failed snapshot, rebuild and edit calls
}

func runCuration(cfg runConfig) (*report, error) {
	rounds := curationRounds
	if cfg.smoke {
		rounds = 4
	}
	rep := newReport()
	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	var eps []*episode
	for len(eps)%curationInputs != 0 || time.Now().Before(deadline) {
		ep, err := curationEpisode(cfg, episodeSeed(cfg.seed, len(eps)%curationInputs), rounds)
		if err != nil {
			return nil, err
		}
		eps = append(eps, ep)
	}

	var setups, roundMs, rebuildMs, price []float64
	var opErrs []string
	var phases []phaseResult
	var created, decided, deferred int
	var stats []core.ReconcileStats
	var st metrics.StoreSnapshot
	var db metrics.DBSnapshot
	for i, ep := range eps {
		setups = append(setups, ep.setup)
		roundMs = append(roundMs, ep.rounds...)
		rebuildMs = append(rebuildMs, ep.rebuilds...)
		opErrs = append(opErrs, ep.opErrs...)
		price = append(price, ep.priceNs...)
		phases = append(phases, ep.phase)
		created += ep.created
		decided += ep.decided
		deferred += ep.deferred
		stats = append(stats, ep.stats...)
		st = addStore(st, ep.store)
		db = addDB(db, ep.db)
		rep.attempted += ep.attempted
		rep.failed += ep.failed
		rep.failures = append(rep.failures, ep.failures...)
		same := eps[i%curationInputs]
		rep.check(ep.print == same.print, "a repeated episode's decisions %s differ from its first run's %s", ep.print, same.print)
	}
	ph := mergePhases(phases)
	rep.txns = float64(decided)

	e := rep.e2e
	e.set("setup_s", median(setups), "s")
	e.set("txns_per_s", float64(decided)/ph.wall.Seconds(), "txn/s")
	e.setPct("decide_ms_p50", roundMs, 0.5, "ms")
	e.setPct("decide_ms_p75", roundMs, 0.75, "ms")
	e.setPct("decide_ms_p90", roundMs, 0.9, "ms")
	e.set("heap_peak_mb", ph.heapPeakMB, "MB")
	e.set("cpu_ms_per_txn", ms(ph.cpu)/rep.txns, "ms/txn")
	e.setPct("round_ms_p50", roundMs, 0.5, "ms")
	e.setPct("round_ms_p90", roundMs, 0.9, "ms")
	var ratios []float64
	for _, ep := range eps {
		ratios = append(ratios, ep.stateRatio)
	}
	e.set("state_ratio", median(ratios), "ratio")
	e.setPct("rebuild_ms_p50", rebuildMs, 0.5, "ms")
	e.set("failed_ratio", float64(rep.failed)/float64(rep.attempted), "ratio")
	// Episode 0 runs the same inputs in every run of this seed, traced or
	// not; the traced run compares these.
	rep.record["fingerprint"] = eps[0].print
	rep.record["state_ratio"] = eps[0].stateRatio
	rep.record["capabilities"] = eps[0].caps
	rep.record["episodes"] = len(eps)
	rep.record["rounds_per_episode"] = rounds
	rep.record["txns_created"] = created
	rep.record["failed_operations"] = opErrs
	for _, msg := range opErrs {
		fmt.Println("OPERATION FAILED:", msg)
	}

	if cfg.tr != nil {
		l := rep.layers
		coreLayers(l, stats, deferred)
		storeLayers(l, st, db, float64(created))
		spanLayers(l, cfg.tr, "central.publish", "central.begin", "central.decide")
		l.setPct("trust.price_ns", price, 0.5, "ns")
		runtimeLayers(l, ph, float64(decided))
	}
	return rep, nil
}

// curationEpisode runs one episode from a fresh store.
func curationEpisode(cfg runConfig, seed int64, rounds int) (*episode, error) {
	ctx := context.Background()
	ep := &episode{}
	start := time.Now()
	schema := orchestra.WorkloadSchema()
	cs, err := central.Open(schema, "")
	if err != nil {
		return nil, err
	}
	defer cs.Close()
	var label atomic.Value
	label.Store("setup")
	wrappers := map[core.PeerID]*timedStore{}
	factory := func(id core.PeerID) (store.Store, error) {
		if cfg.tr == nil {
			return cs, nil
		}
		w := wrapStore(cs, cfg.tr, "central", string(id), func() string { return label.Load().(string) })
		wrappers[id] = timed(w)
		return w, nil
	}
	sys, err := orchestra.NewSystem(schema, orchestra.WithPeerStores(factory))
	if err != nil {
		return nil, err
	}
	policies := make([]*trust.Policy, curationPeers)
	gens := make([]*orchestra.WorkloadGenerator, curationPeers)
	for i := range policies {
		if policies[i], err = trust.Parse(curationPolicy(seed, i, curationPeers)); err != nil {
			return nil, err
		}
		if _, err := sys.AddPeer(curatorID(i), policies[i]); err != nil {
			return nil, err
		}
		gens[i] = orchestra.NewWorkload(orchestra.WorkloadConfig{Seed: seed*1_000_003 + int64(i), TxnSize: 2, KeySpace: 400})
	}
	peers := sys.Peers()
	if cfg.tr != nil {
		if ep.caps, err = sameCapabilities(ctx, cs, peers[0].Store()); err != nil {
			ep.failures = append(ep.failures, err.Error())
		}
	} else {
		ep.caps = capabilities(ctx, cs)
	}
	ep.setup = time.Since(start).Seconds()
	st0, db0 := cs.Metrics().Snapshot(), cs.DBMetrics().Snapshot()

	var ids []core.TxnID
	antes := map[core.TxnID][]core.TxnID{}
	accepted := make([]map[core.TxnID]bool, len(peers))
	rejected := make([]map[core.TxnID]bool, len(peers))
	for i := range peers {
		accepted[i], rejected[i] = map[core.TxnID]bool{}, map[core.TxnID]bool{}
	}
	round := func(r int) error {
		var roundUpdates []core.Update
		for i, p := range peers {
			for t := 0; t < curationTxnsPerRound; t++ {
				ups := gens[i].NextUpdates(p.Instance(), p.ID())
				if len(ups) == 0 {
					continue
				}
				x, err := p.Edit(ups...)
				ep.attempted++
				if err != nil {
					ep.failed++
					ep.opErrs = append(ep.opErrs, fmt.Sprintf("round %d edit by %s: %v", r, p.ID(), err))
					continue
				}
				antes[x.ID] = p.Engine().LocalAntecedents(x.ID)
				roundUpdates = append(roundUpdates, ups...)
				ids = append(ids, x.ID)
			}
		}
		req := fmt.Sprintf("r%d", r)
		label.Store(req)
		t0 := time.Now()
		// Publishing in registration order numbers the epochs, and with
		// them the order that settles equal-priority conflicts, from the
		// seed alone; ReconcileAll's own publish barrier, now empty, would
		// number them in whatever order its goroutines run.
		var errs []error
		for _, p := range peers {
			if _, err := p.Publish(ctx); err != nil {
				errs = append(errs, &orchestra.PeerError{Peer: p.ID(), Op: "publish", Err: err})
			}
		}
		res, err := sys.ReconcileAll(ctx)
		t1 := time.Now()
		cfg.tr.add("system.round", req, t0, t1)
		ep.attempted += int64(len(peers))
		if err := errors.Join(append(errs, err)...); err != nil {
			var pe *orchestra.PeerError
			for _, e := range unwrapAll(err) {
				if errors.As(e, &pe) {
					ep.failed++
				}
			}
			if !errors.As(err, &pe) {
				return err
			}
		}
		if r >= rounds {
			return nil // a tail round: not part of the timed phase
		}
		ep.rounds = append(ep.rounds, ms(t1.Sub(t0)))
		for i, p := range peers {
			r := res[p.ID()]
			if r == nil {
				continue
			}
			for _, id := range r.Accepted {
				accepted[i][id] = true
			}
			for _, id := range r.Rejected {
				rejected[i][id] = true
			}
			ep.stats = append(ep.stats, r.Stats)
			ep.deferred += len(r.Deferred)
			if w := wrappers[p.ID()]; w != nil {
				w.engineSpan(r.Stats)
			}
		}
		if cfg.tr != nil {
			ep.priceNs = append(ep.priceNs, pricePolicies(ctx, cfg.tr, cs, peers, roundUpdates, req))
		}
		return nil
	}

	ph := startPhase()
	for r := 0; r < rounds; r++ {
		if err := round(r); err != nil {
			return nil, err
		}
	}
	ep.phase = ph.end()
	ep.created = len(ids)
	for _, id := range ids {
		all := true
		for _, p := range peers {
			if !p.Engine().Applied(id) && !p.Engine().Rejected(id) {
				all = false
				break
			}
		}
		if all {
			ep.decided++
		}
	}
	st1, db1 := cs.Metrics().Snapshot(), cs.DBMetrics().Snapshot()
	ep.store, ep.db = subStore(st1, st0), subDB(db1, db0)

	ep.failures = append(ep.failures, curationInvariants(peers, accepted, rejected, antes)...)
	ep.stateRatio = metrics.StateRatio(sys.Instances(), "Function")
	ep.print = decisionPrint(peers, ids)

	// Snapshot, a tail of rounds, then rebuild every peer from the store.
	ep.attempted++
	if _, err := peers[0].Store().(store.Snapshotter).Snapshot(ctx); err != nil {
		ep.failed++
		ep.opErrs = append(ep.opErrs, fmt.Sprintf("snapshot: %v", err))
	}
	for r := rounds; r < rounds+curationTail; r++ {
		if err := round(r); err != nil {
			return nil, err
		}
	}
	label.Store("rebuild")
	for i, p := range peers {
		t0 := time.Now()
		rebuilt, err := store.RebuildPeer(ctx, p.ID(), schema, policies[i], p.Store())
		t1 := time.Now()
		cfg.tr.add("core.rebuild", "rb/"+string(p.ID()), t0, t1)
		ep.attempted++
		if err != nil {
			ep.failed++
			ep.opErrs = append(ep.opErrs, fmt.Sprintf("rebuild %s: %v", p.ID(), err))
			continue
		}
		ep.rebuilds = append(ep.rebuilds, ms(t1.Sub(t0)))
		if !rebuilt.Instance().Equal(p.Instance()) {
			ep.failures = append(ep.failures, fmt.Sprintf("rebuilt %s instance differs from the live one", p.ID()))
		}
	}
	return ep, nil
}

// curationInvariants checks the paper's acceptance rules on the episode's
// history: no peer both accepts and rejects a txn, and every txn a peer
// accepted has its antecedents accepted there too.
func curationInvariants(peers []*orchestra.Peer, accepted, rejected []map[core.TxnID]bool, antes map[core.TxnID][]core.TxnID) []string {
	var out []string
	for i, p := range peers {
		for id := range accepted[i] {
			if rejected[i][id] || p.Engine().Rejected(id) {
				out = append(out, fmt.Sprintf("%s both accepted and rejected %s", p.ID(), id))
			}
			for _, a := range antes[id] {
				if !p.Engine().Applied(a) {
					out = append(out, fmt.Sprintf("%s accepted %s without its antecedent %s", p.ID(), id, a))
				}
			}
		}
	}
	sort.Strings(out)
	return out
}

// pricePolicies times each peer's store-resolved policy over the round's
// updates and returns the median ns per Priority call.
func pricePolicies(ctx context.Context, tr *tracer, cs *central.Store, peers []*orchestra.Peer, ups []core.Update, req string) float64 {
	if len(ups) == 0 {
		return 0
	}
	var per []float64
	for _, p := range peers {
		pol, err := cs.EffectiveTrust(ctx, p.ID())
		if err != nil {
			continue
		}
		t0 := time.Now()
		for _, u := range ups {
			_ = pol.Priority(u)
		}
		t1 := time.Now()
		tr.add("trust.price", "price/"+req+"/"+string(p.ID()), t0, t1)
		per = append(per, float64(t1.Sub(t0).Nanoseconds())/float64(len(ups)))
	}
	return median(per)
}

// episodeSeed derives the seed of a run's e-th episode input.
func episodeSeed(seed int64, e int) int64 { return seed*1_000_033 + int64(e) }

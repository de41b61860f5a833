package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"orchestra"
	"orchestra/internal/core"
	"orchestra/internal/metrics"
	"orchestra/internal/store"
	"orchestra/internal/workload"
)

// The tenants workload is the multi-group path: a Fleet of 2 durable nodes
// with default options hosting 200 groups of 2 peers each (TrustAll as a
// textual policy). Every round each peer makes one txn, then one
// Scheduler.RunRound reconciles every group; rounds run back to back.
// Per-group work is tiny, so tenancy, the commits the groups share in each
// node's WAL, and the scheduler's fan-out dominate. Like curation, the
// timed phase is a fixed number of rounds from a fresh fleet (an episode),
// repeated until the time is up, which also bounds the fleet's memory.
// Every episode has the same inputs.
//
// After each episode's timed rounds, a sample of groups rebuilds every
// peer from the store: a snapshot, one more round (the tail), then
// store.RebuildPeer. Curation rebuilds too, but its snapshots fail (see
// README.md), so the split of a rebuild from snapshot + tail into its
// per-layer parts is measured here.
const (
	tenantGroups   = 200
	tenantPeers    = 2
	tenantRounds   = 40
	tenantRebuilds = 8 // groups whose peers are rebuilt after each episode
)

// tenantEpisode is what one tenants episode measured.
type tenantEpisode struct {
	setup     float64
	rounds    []float64 // RunRound durations, ms
	rebuilds  []float64 // RebuildPeer durations, ms
	phase     phaseResult
	txns      int
	bytes     int64
	published int
	db        []metrics.DBSnapshot // per node, over the timed rounds
	pipe      metrics.PipelineSnapshot
	print     string
	attempted int64
	failed    int64
	failures  []string
}

func runTenants(cfg runConfig) (*report, error) {
	groups, rounds := tenantGroups, tenantRounds
	if cfg.smoke {
		groups, rounds = 10, 4
	}
	rep := newReport()
	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	var eps []*tenantEpisode
	for len(eps) < 3 || time.Now().Before(deadline) {
		ep, err := tenantsEpisode(cfg, groups, rounds)
		if err != nil {
			return nil, err
		}
		eps = append(eps, ep)
	}

	var setups, roundMs, rebuildMs []float64
	var phases []phaseResult
	var txns, published int
	var bytes int64
	var db metrics.DBSnapshot
	var skew []float64
	var pipe metrics.PipelineSnapshot
	for _, ep := range eps {
		setups = append(setups, ep.setup)
		roundMs = append(roundMs, ep.rounds...)
		rebuildMs = append(rebuildMs, ep.rebuilds...)
		phases = append(phases, ep.phase)
		txns += ep.txns
		published += ep.published
		bytes += ep.bytes
		minC, maxC := int64(-1), int64(0)
		for _, d := range ep.db {
			db = addDB(db, d)
			maxC = max(maxC, d.Commits)
			if minC < 0 || d.Commits < minC {
				minC = d.Commits
			}
		}
		if minC > 0 {
			skew = append(skew, float64(maxC)/float64(minC))
		}
		pipe = addPipeline(pipe, ep.pipe)
		rep.attempted += ep.attempted
		rep.failed += ep.failed
		rep.failures = append(rep.failures, ep.failures...)
	}
	ph := mergePhases(phases)
	rep.txns = float64(txns)
	rep.record["fingerprint"] = eps[0].print
	rep.record["episodes"] = len(eps)
	rep.record["groups"] = groups
	rep.record["rounds_per_episode"] = rounds

	e := rep.e2e
	e.set("setup_s", median(setups), "s")
	e.set("txns_per_s", float64(txns)/ph.wall.Seconds(), "txn/s")
	e.setPct("decide_ms_p50", roundMs, 0.5, "ms")
	e.setPct("decide_ms_p75", roundMs, 0.75, "ms")
	e.setPct("decide_ms_p90", roundMs, 0.9, "ms")
	e.setPct("round_ms_p50", roundMs, 0.5, "ms")
	e.setPct("round_ms_p90", roundMs, 0.9, "ms")
	e.setPct("rebuild_ms_p50", rebuildMs, 0.5, "ms")
	e.set("heap_peak_mb", ph.heapPeakMB, "MB")
	e.set("cpu_ms_per_txn", ms(ph.cpu)/rep.txns, "ms/txn")
	e.set("stored_bytes_per_txn", float64(bytes)/float64(published), "B/txn")
	e.set("failed_ratio", float64(rep.failed)/float64(rep.attempted), "ratio")

	if cfg.tr != nil {
		l := rep.layers
		dbLayers(l, db, float64(txns))
		l.set("fleet.node_commit_skew", median(skew), "ratio")
		pipelineLayers(l, pipe)
		l.setPct("central.snapshot_fetch_ms_p50", cfg.tr.durations("central.snapshot_fetch"), 0.5, "ms")
		l.setPct("central.tail_replay_ms_p50", cfg.tr.durations("central.tail_replay"), 0.5, "ms")
		cfg.tr.link()
		l.setPct("core.restore_ms_p50", cfg.tr.selfOf("core.rebuild"), 0.5, "ms")
		runtimeLayers(l, ph, float64(txns))
	}
	return rep, nil
}

// tenantsEpisode runs one episode on a fresh fleet.
func tenantsEpisode(cfg runConfig, groups, rounds int) (*tenantEpisode, error) {
	ctx := context.Background()
	ep := &tenantEpisode{}
	start := time.Now()
	dir, err := os.MkdirTemp(cfg.work, "tenants-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	fleet := orchestra.NewFleet(orchestra.WithStoreDirs(func(name string) string { return filepath.Join(dir, name) }))
	defer fleet.Close()
	for _, n := range []string{"n0", "n1"} {
		if err := fleet.AddStore(n); err != nil {
			return nil, err
		}
	}
	schema := workload.Schema()
	for g := 0; g < groups; g++ {
		spec := orchestra.GroupSpec{ID: fmt.Sprintf("g%03d", g), Schema: schema}
		for p := 0; p < tenantPeers; p++ {
			pol, err := orchestra.ParseTrustPolicy("priority 1 when true")
			if err != nil {
				return nil, err
			}
			spec.Peers = append(spec.Peers, orchestra.GroupPeer{ID: orchestra.PeerID(fmt.Sprintf("p%d", p)), Trust: pol})
		}
		if _, err := fleet.AddGroup(spec); err != nil {
			return nil, err
		}
	}
	all := fleet.Groups()
	sched := orchestra.NewScheduler(all)
	ep.setup = time.Since(start).Seconds()

	round := 0
	runRound := func() error {
		round++
		for _, g := range all {
			for _, p := range g.System().Peers() {
				fn := workload.Functions[int(cfg.seed+int64(round))%len(workload.Functions)]
				u := orchestra.Insert("Function", orchestra.Strs("org-"+g.ID()+"-"+string(p.ID()), fmt.Sprintf("P%07d", round), fn), p.ID())
				if _, err := p.Edit(u); err != nil {
					return fmt.Errorf("group %s peer %s edit: %w", g.ID(), p.ID(), err)
				}
			}
		}
		ep.published += len(all) * tenantPeers
		t0 := time.Now()
		err := sched.RunRound(ctx)
		t1 := time.Now()
		cfg.tr.add("fleet.round", fmt.Sprintf("r%d", round), t0, t1)
		if round <= rounds {
			ep.rounds = append(ep.rounds, ms(t1.Sub(t0)))
		}
		ep.attempted += int64(len(all))
		if err == nil {
			return nil
		}
		for _, e := range unwrapAll(err) {
			var ge *orchestra.GroupError
			if !errors.As(e, &ge) {
				return err
			}
			ep.failed++
		}
		return nil
	}

	db0 := nodeMetrics(fleet)
	var pipe0 metrics.PipelineSnapshot
	for _, g := range all {
		pipe0 = addPipeline(pipe0, g.System().Pipeline().Snapshot())
	}
	ph := startPhase()
	for r := 0; r < rounds; r++ {
		if err := runRound(); err != nil {
			return nil, err
		}
	}
	ep.phase = ph.end()
	db1 := nodeMetrics(fleet)
	for i := range db1 {
		ep.db = append(ep.db, subDB(db1[i], db0[i]))
	}
	for _, g := range all {
		ep.pipe = addPipeline(ep.pipe, g.System().Pipeline().Snapshot())
	}
	ep.pipe = subPipeline(ep.pipe, pipe0)
	ep.txns = rounds * len(all) * tenantPeers

	// Every group's peers hold every txn of their group.
	var prints []string
	for _, g := range all {
		peers := g.System().Peers()
		for _, p := range peers {
			n := p.Instance().Len("Function")
			if n != round*tenantPeers {
				ep.failures = append(ep.failures, fmt.Sprintf("group %s peer %s holds %d txns, want %d", g.ID(), p.ID(), n, round*tenantPeers))
			}
		}
		var ids []core.TxnID
		for _, p := range peers {
			for s := uint64(1); s <= uint64(round); s++ {
				ids = append(ids, core.TxnID{Origin: p.ID(), Seq: s})
			}
		}
		prints = append(prints, decisionPrint(peers, ids))
	}
	sort.Strings(prints)
	ep.print = fmt.Sprintf("%016x", hashStrings(prints))

	if err := tenantsRebuild(ctx, cfg, ep, all[:min(tenantRebuilds, len(all))], runRound); err != nil {
		return nil, err
	}
	if err := fleet.Close(); err != nil {
		return nil, err
	}
	ep.bytes, err = dirBytes(dir)
	return ep, err
}

// tenantsRebuild snapshots the sampled groups, runs one more round (the
// tail), then rebuilds each of their peers from snapshot + tail and checks
// the rebuilt instance against the live one.
func tenantsRebuild(ctx context.Context, cfg runConfig, ep *tenantEpisode, sample []*orchestra.Group, runRound func() error) error {
	for _, g := range sample {
		if _, err := g.System().Peers()[0].Store().(store.Snapshotter).Snapshot(ctx); err != nil {
			return fmt.Errorf("group %s snapshot: %w", g.ID(), err)
		}
	}
	if err := runRound(); err != nil {
		return err
	}
	for _, g := range sample {
		for _, p := range g.System().Peers() {
			req := "rb/" + g.ID() + "/" + string(p.ID())
			st := p.Store()
			if cfg.tr != nil {
				raw := st
				st = wrapStore(raw, cfg.tr, "central", string(p.ID()), func() string { return "rb/" + g.ID() })
				if _, err := sameCapabilities(ctx, raw, st); err != nil {
					ep.failures = append(ep.failures, err.Error())
				}
			}
			pol, err := orchestra.ParseTrustPolicy("priority 1 when true")
			if err != nil {
				return err
			}
			t0 := time.Now()
			rebuilt, err := store.RebuildPeer(ctx, p.ID(), g.System().Schema(), pol, st)
			t1 := time.Now()
			cfg.tr.add("core.rebuild", req, t0, t1)
			ep.attempted++
			if err != nil {
				ep.failed++
				ep.failures = append(ep.failures, fmt.Sprintf("rebuild %s: %v", req, err))
				continue
			}
			ep.rebuilds = append(ep.rebuilds, ms(t1.Sub(t0)))
			if !rebuilt.Instance().Equal(p.Instance()) {
				ep.failures = append(ep.failures, fmt.Sprintf("rebuilt %s instance differs from the live one", req))
			}
		}
	}
	return nil
}

func nodeMetrics(f *orchestra.Fleet) []metrics.DBSnapshot {
	var out []metrics.DBSnapshot
	for _, n := range f.Stores() {
		node, _ := f.Node(n)
		out = append(out, node.Metrics().Snapshot())
	}
	return out
}

func addPipeline(a, b metrics.PipelineSnapshot) metrics.PipelineSnapshot {
	a.Reconciles += b.Reconciles
	a.Candidates += b.Candidates
	a.ConflictPairs += b.ConflictPairs
	a.CheckTime += b.CheckTime
	a.ConflictTime += b.ConflictTime
	a.GroupTime += b.GroupTime
	a.ApplyTime += b.ApplyTime
	a.SoftStateTime += b.SoftStateTime
	return a
}

func subPipeline(a, b metrics.PipelineSnapshot) metrics.PipelineSnapshot {
	b.Reconciles, b.Candidates, b.ConflictPairs = -b.Reconciles, -b.Candidates, -b.ConflictPairs
	b.CheckTime, b.ConflictTime, b.GroupTime, b.ApplyTime, b.SoftStateTime = -b.CheckTime, -b.ConflictTime, -b.GroupTime, -b.ApplyTime, -b.SoftStateTime
	return addPipeline(a, b)
}

// pipelineLayers reports the engine's stage times on tenants as means per
// reconcile from the groups' Pipeline counters: the scheduler does not
// hand back per-reconcile results.
func pipelineLayers(l metricSet, p metrics.PipelineSnapshot) {
	if p.Reconciles == 0 {
		return
	}
	n := float64(p.Reconciles)
	l.set("core.check_ms_p50", ms(p.CheckTime)/n, "ms")
	l.set("core.conflict_ms_p50", ms(p.ConflictTime)/n, "ms")
	l.set("core.group_ms_p50", ms(p.GroupTime)/n, "ms")
	l.set("core.apply_ms_p50", ms(p.ApplyTime)/n, "ms")
	l.set("core.softstate_ms_p50", ms(p.SoftStateTime)/n, "ms")
	l.set("core.candidates", float64(p.Candidates)/n, "count")
	l.set("core.conflict_pairs", float64(p.ConflictPairs)/n, "count")
}

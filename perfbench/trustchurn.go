package main

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"time"

	"orchestra"
	"orchestra/internal/core"
	"orchestra/internal/store"
	"orchestra/internal/store/central"
	"orchestra/internal/trust"
	"orchestra/internal/workload"
)

// The trust_churn workload puts trust writes beside data-path reads: a
// 1,000-peer star trust topology registered in an in-memory central store,
// 4 of its leaves streaming (RunStreaming), one goroutine publishing
// conflict-free txns from another leaf at a fixed open-loop rate, and a
// second goroutine re-registering the hub every churnEditEvery, alternating
// between two policies. Every hub edit re-resolves all 1,000 peers.
//
// The rate and the edit schedule come from one measurement of this path on
// a 2-vCPU host: closed loop, one publisher reaches 10,300-11,100
// publishes/s, and a hub edit blocks publishing for its whole 1.5-2.5 s.
// At 500/s (5% of that capacity) the backlog an edit leaves drains in about
// 0.1 s, so an edit every 10 s delays at most about a quarter of the
// publishes. The median stays clear of the stall, and the tail and the
// edit time measure it.
const (
	churnPeers     = 1000
	churnStreamers = 4
	churnPublisher = churnStreamers + 1 // the publishing leaf's index
	churnRate      = 500                // publishes per second
	churnEditEvery = 10 * time.Second   // the first edit is due half this in
	churnPrint     = 32
)

// churnHubPolicy renders the hub's policy for edit k: the topology's
// policy, with the hub's own rule at another priority on odd edits.
func churnHubPolicy(tt *workload.TrustTopology, k int) string {
	p := tt.Policy(0)
	if k%2 == 1 {
		p = strings.Replace(p, tt.DirectPolicy(0), fmt.Sprintf("priority 5 when origin = '%s'\n", tt.PeerID(0)), 1)
	}
	return p
}

type churnEnv struct {
	cs        *central.Store
	schema    *core.Schema
	tt        *workload.TrustTopology
	sys       *orchestra.System
	pub       store.Store // the publisher's store handle
	edit      store.Store // the hub editor's store handle
	seq       uint64
	seed      int64
	probe     *streamProbe
	stop      context.CancelFunc
	streams   sync.WaitGroup
	streamErr error
	caps      map[string]bool
	capErr    error
	closed    bool
}

func setupChurn(cfg runConfig, peers int) (*churnEnv, error) {
	ctx := context.Background()
	schema := workload.Schema()
	// The topology is the workload's fixed configuration (seeded like the
	// repository's trust-scale tests): its caps set what an edit costs, so
	// a per-run topology would move every latency with the seed.
	tt, err := workload.NewTrustTopology(workload.TopologyConfig{Kind: workload.Star, Peers: peers, Seed: 7})
	if err != nil {
		return nil, err
	}
	env := &churnEnv{tt: tt, schema: schema, seed: cfg.seed}
	if env.cs, err = central.Open(schema, ""); err != nil {
		return nil, err
	}
	var ids []string
	for i := 1; i <= churnStreamers; i++ {
		ids = append(ids, string(tt.PeerID(i)))
	}
	env.probe = newStreamProbe(ids)
	if env.sys, err = orchestra.NewSystem(schema, orchestra.WithPeerStores(env.probe.storeFor(env.cs, cfg.tr)), orchestra.WithStreamObserver(env.probe.observe)); err != nil {
		env.cs.Close()
		return nil, err
	}
	// Direct policies first (a store refuses delegations to peers it has
	// never seen), then the delegating ones in descending index order, so
	// every registration but the hub's affects only its own peer.
	register := func(i int, text string) error {
		pol, err := trust.Parse(text)
		if err != nil {
			return err
		}
		id := tt.PeerID(i)
		if i >= 1 && i <= churnStreamers {
			if p, ok := env.sys.Peer(id); ok {
				_, err = p.SetTrust(ctx, pol)
				return err
			}
			_, err = env.sys.AddPeer(id, pol)
			return err
		}
		return env.cs.RegisterPeer(ctx, id, pol)
	}
	for i := 0; i < peers; i++ {
		if err := register(i, tt.DirectPolicy(i)); err != nil {
			env.cs.Close()
			return nil, err
		}
	}
	for i := peers - 1; i >= 0; i-- {
		text := tt.Policy(i)
		if i == 0 {
			text = churnHubPolicy(tt, 0)
		}
		if err := register(i, text); err != nil {
			env.cs.Close()
			return nil, err
		}
	}
	env.pub, env.edit = env.cs, env.cs
	if cfg.tr != nil {
		env.pub = wrapStore(env.cs, cfg.tr, "central", string(tt.PeerID(churnPublisher)), func() string { return fmt.Sprintf("pub%d", env.seq) })
		timed(env.pub).onPublish = env.probe.published
		env.edit = wrapStore(env.cs, cfg.tr, "central", string(tt.PeerID(0)), func() string { return "edit" })
		env.caps, env.capErr = sameCapabilities(ctx, env.cs, env.sys.Peers()[0].Store())
	} else {
		env.caps = capabilities(ctx, env.cs)
	}
	sctx, stop := context.WithCancel(ctx)
	env.stop = stop
	env.streams.Add(1)
	go func() {
		defer env.streams.Done()
		env.streamErr = env.sys.RunStreaming(sctx)
	}()
	if err := env.probe.watchStore(sctx, env.cs, &env.streams); err != nil {
		env.close()
		return nil, err
	}
	var last int64
	for i := 0; i < 8; i++ {
		if last, err = env.publish(ctx); err != nil {
			env.close()
			return nil, fmt.Errorf("warm-up publish: %w", err)
		}
	}
	if !waitFrontier(env.probe.readers, last, 10*time.Second) {
		env.close()
		return nil, fmt.Errorf("warm-up: streaming leaves did not reach epoch %d", last)
	}
	return env, nil
}

// publish makes the publishing leaf's next conflict-free single insert.
func (env *churnEnv) publish(ctx context.Context) (int64, error) {
	env.seq++
	id := env.tt.PeerID(churnPublisher)
	x := core.NewTransaction(core.TxnID{Origin: id, Seq: env.seq},
		core.Insert("Function", core.Strs("org-"+string(id), fmt.Sprintf("P%07d", env.seq), workload.Functions[int(env.seed+int64(env.seq))%len(workload.Functions)]), id))
	if err := x.Validate(env.schema); err != nil {
		return 0, err
	}
	e, err := env.pub.Publish(ctx, id, []store.PublishedTxn{{Txn: x}})
	return int64(e), err
}

func (env *churnEnv) quiesce() {
	if env.stop != nil {
		env.stop()
		env.streams.Wait()
		env.stop = nil
	}
}

func (env *churnEnv) close() {
	if env.closed {
		return
	}
	env.closed = true
	env.quiesce()
	env.cs.Close()
}

func runTrustChurn(cfg runConfig) (*report, error) {
	ctx := context.Background()
	peers, rate := churnPeers, float64(churnRate)
	if cfg.smoke {
		peers = 50
	}
	env, setup, err := repeatSetup(func() (*churnEnv, error) { return setupChurn(cfg, peers) }, (*churnEnv).close)
	if err != nil {
		return nil, err
	}
	defer env.close()
	rep := newReport()
	n := int(rate * cfg.seconds)
	if n < churnPrint {
		n = churnPrint
	}
	firstSeq := env.seq
	length := float64(n) / rate

	// The hub is edited every churnEditEvery, the first half of that into
	// the publish schedule; no edit starts after the schedule's end. A
	// smoke run is shorter than the interval and edits once, midway.
	every := churnEditEvery
	if cfg.smoke {
		every = time.Duration(length * float64(time.Second))
	}
	var edits []float64
	editor := func(ctx context.Context, start time.Time) {
		for k := 1; ; k++ {
			due := start.Add(every/2 + time.Duration(k-1)*every)
			if due.Sub(start).Seconds() >= length || !sleepUntil(ctx, due) {
				return
			}
			pol, err := trust.Parse(churnHubPolicy(env.tt, k))
			if err != nil {
				panic(err) // the policies are generated: a parse error is a bug
			}
			t0 := time.Now()
			err = env.edit.RegisterPeer(ctx, env.tt.PeerID(0), pol)
			t1 := time.Now()
			rep.attempted++
			if err != nil {
				rep.failed++
				rep.check(false, "hub edit %d: %v", k, err)
				return
			}
			edits = append(edits, ms(t1.Sub(t0)))
		}
	}

	st0, db0 := env.cs.Metrics().Snapshot(), env.cs.DBMetrics().Snapshot()
	ph := startPhase()
	cfg.tr.reset()
	ectx, stopEditor := context.WithCancel(ctx)
	var ewg sync.WaitGroup
	ewg.Add(1)
	go func() {
		defer ewg.Done()
		editor(ectx, time.Now())
	}()
	reqs := openLoop(ctx, rate, n, 1, func(int) (int64, error) { return env.publish(ctx) })
	stopEditor()
	ewg.Wait()
	var maxEpoch int64
	for _, r := range reqs {
		if r.err == nil && r.epoch > maxEpoch {
			maxEpoch = r.epoch
		}
	}
	drained := waitFrontier(env.probe.readers, maxEpoch, 20*time.Second)
	phr := ph.end()
	st1, db1 := env.cs.Metrics().Snapshot(), env.cs.DBMetrics().Snapshot()
	env.quiesce()
	rep.check(drained, "streaming leaves did not decide every publish within 20s")
	rep.check(env.streamErr == nil, "leaf streams failed: %v", env.streamErr)
	if env.capErr != nil {
		rep.check(false, "%v", env.capErr)
	}
	rep.check(len(edits) > 0, "no hub edit fell inside the run")

	pub, dec, failed, span := openLoopLatencies(reqs, env.probe.readers)
	rep.attempted += int64(len(reqs))
	rep.failed += failed
	rep.txns = float64(len(dec))

	// Decisions: every streaming leaf accepts every published txn.
	var ids []core.TxnID
	for i := 0; i < churnPrint && i < len(reqs); i++ {
		ids = append(ids, core.TxnID{Origin: env.tt.PeerID(churnPublisher), Seq: firstSeq + uint64(i) + 1})
	}
	leaves := env.sys.Peers()
	rep.record["fingerprint"] = decisionPrint(leaves, ids)
	want := decisionPrintAll(leaves, ids, 'A')
	rep.check(rep.record["fingerprint"] == want, "leaf decisions %s differ from accept-everything %s", rep.record["fingerprint"], want)
	for _, p := range leaves[1:] {
		rep.check(p.Instance().Equal(leaves[0].Instance()), "leaf %s instance differs from leaf %s", p.ID(), leaves[0].ID())
	}

	// After the last edit, the store's effective policies equal a
	// standalone resolution of the same registrations and edits.
	resolve, affected := churnGraphCheck(ctx, rep, env, len(edits), cfg.tr)

	e := rep.e2e
	e.set("setup_s", setup, "s")
	e.set("txns_per_s", float64(len(dec))/span, "txn/s")
	e.setPct("decide_ms_p50", dec, 0.5, "ms")
	e.setPct("decide_ms_p75", dec, 0.75, "ms")
	e.setPct("decide_ms_p90", dec, 0.9, "ms")
	e.setPct("decide_ms_p99", dec, 0.99, "ms")
	e.setPct("publish_ms_p50", pub, 0.5, "ms")
	e.setPct("publish_ms_p99", pub, 0.99, "ms")
	e.setPct("trust_edit_ms_p50", edits, 0.5, "ms")
	e.set("heap_peak_mb", phr.heapPeakMB, "MB")
	e.set("cpu_ms_per_txn", ms(phr.cpu)/rep.txns, "ms/txn")
	e.set("failed_ratio", float64(rep.failed)/float64(rep.attempted), "ratio")
	rep.record["capabilities"] = env.caps
	rep.record["offered_rate_per_s"] = rate
	rep.record["edits"] = len(edits)
	rep.record["edit_every_s"] = every.Seconds()

	if cfg.tr != nil {
		l := rep.layers
		spanLayers(l, cfg.tr, "central.publish", "central.begin", "central.decide", "central.register")
		storeLayers(l, subStore(st1, st0), subDB(db1, db0), float64(len(reqs)))
		env.probe.layers(l, reqs)
		l.setPct("trust.resolve_ms", resolve, 0.5, "ms")
		l.set("trust.affected_peers", affected, "count")
		l.setPct("loadgen.lag_ms_p99", lagMs(reqs), 0.99, "ms")
		runtimeLayers(l, phr, float64(len(dec)))
	}
	return rep, nil
}

// churnGraphCheck resolves the run's registrations and hub edits on a
// standalone trust graph and compares sampled effective policies with the
// store's. Traced, it replays each edit separately and returns the edits'
// resolve times and the peers the last one affected.
func churnGraphCheck(ctx context.Context, rep *report, env *churnEnv, edits int, tr *tracer) ([]float64, float64) {
	tt := env.tt
	n := tt.Len()
	g := trust.NewGraph(env.schema)
	for i := 0; i < n; i++ {
		g.Set(tt.PeerID(i), trust.MustParse(tt.DirectPolicy(i)))
	}
	first := 0
	if tr == nil {
		first = edits // untraced: resolve straight to the final state
	}
	for i := n - 1; i >= 0; i-- {
		text := tt.Policy(i)
		if i == 0 {
			text = churnHubPolicy(tt, first)
		}
		g.Set(tt.PeerID(i), trust.MustParse(text))
	}
	var resolve []float64
	var affected float64
	for k := first + 1; k <= edits; k++ {
		pol := trust.MustParse(churnHubPolicy(tt, k))
		t0 := time.Now()
		a := g.Set(tt.PeerID(0), pol)
		t1 := time.Now()
		tr.add("trust.resolve", fmt.Sprintf("edit%d", k), t0, t1)
		resolve = append(resolve, ms(t1.Sub(t0)))
		affected = float64(len(a))
	}
	for i := 0; i < n; i += 97 {
		churnComparePeer(ctx, rep, env, g, tt.PeerID(i))
	}
	for i := 1; i <= churnStreamers; i++ {
		churnComparePeer(ctx, rep, env, g, tt.PeerID(i))
	}
	return resolve, affected
}

func churnComparePeer(ctx context.Context, rep *report, env *churnEnv, g *trust.Graph, id core.PeerID) {
	got, err := env.cs.EffectiveTrust(ctx, id)
	if err != nil {
		rep.check(false, "effective trust of %s: %v", id, err)
		return
	}
	a, ok1 := got.(*trust.Policy)
	b, ok2 := g.Effective(id).(*trust.Policy)
	rep.check(ok1 && ok2 && a.String() == b.String(), "effective policy of %s differs from a standalone resolution", id)
}

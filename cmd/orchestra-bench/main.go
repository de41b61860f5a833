// Command orchestra-bench regenerates the paper's evaluation figures
// (§6, Figures 8-12): it sweeps the experiment parameters, runs repeated
// trials of the SWISS-PROT-style workload over the chosen update stores,
// and prints each figure as a table of means with 95% confidence intervals.
// It also runs single cells: a custom experiment, a fault-injected round,
// a trust topology, and the closed-loop gateway driver. The repository
// benchmark is perfbench (see docs/BENCHMARKING.md).
//
// Usage:
//
//	orchestra-bench -fig all            # every figure, full trials
//	orchestra-bench -fig 10 -quick      # one figure, reduced trials
//	orchestra-bench -cell -peers 25 -store distributed -ri 20
//	orchestra-bench -chaos -loss 0.05 -dup 0.1   # fault-injected round cost
//	orchestra-bench -trust-topology star -peers 1000
//	orchestra-bench -gateway -clients 8 -rounds 10
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"testing"
	"time"

	"orchestra"
	"orchestra/internal/core"
	"orchestra/internal/exp"
	"orchestra/internal/metrics"
	"orchestra/internal/rpc"
	"orchestra/internal/simnet"
	"orchestra/internal/store"
	"orchestra/internal/store/central"
	"orchestra/internal/store/remote"
	"orchestra/internal/trust"
	"orchestra/internal/workload"
)

func main() {
	fig := flag.String("fig", "all", "figure to reproduce: 8|9|10|11|12|all")
	quick := flag.Bool("quick", false, "reduced trials/rounds for a fast pass")
	seed := flag.Int64("seed", 1, "base random seed")
	cell := flag.Bool("cell", false, "run a single custom experiment cell instead of a figure")
	peers := flag.Int("peers", 10, "[cell|trust-topology] number of participants")
	txnSize := flag.Int("txnsize", 1, "[cell] updates per transaction")
	ri := flag.Int("ri", 4, "[cell] transactions between reconciliations")
	rounds := flag.Int("rounds", 5, "[cell] publish/reconcile rounds per peer")
	trials := flag.Int("trials", 5, "[cell] trials")
	storeKind := flag.String("store", "central", "[cell] central|distributed")
	chaos := flag.Bool("chaos", false, "run a fault-injected reconciliation cell over the simulated fabric instead of a figure")
	loss := flag.Float64("loss", 0, "[chaos] per-message loss probability, 0..1")
	dup := flag.Float64("dup", 0, "[chaos] per-message duplication probability, 0..1")
	jitter := flag.Duration("jitter", 0, "[chaos] max extra per-message latency")
	trustTopo := flag.String("trust-topology", "", "run one trust-at-scale cell over this delegation topology (star|chain|clique|dag) with -peers participants")
	gw := flag.Bool("gateway", false, "run the closed-loop gateway driver: -clients keyed publishers against the HTTP surface, -rounds ops each")
	clients := flag.Int("clients", 16, "[gateway] concurrent closed-loop clients")
	flag.Parse()

	if *gw {
		if err := runGatewayDriver(*clients, *rounds); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	if *trustTopo != "" {
		kind, err := workload.ParseTopology(*trustTopo)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		e, err := runTrustEvalCell(kind, *peers)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("trust cell: topology=%s peers=%d edges=%d\n", e.Topology, e.Peers, e.Edges)
		fmt.Printf("  compiled ns/decision:    %.1f\n", e.CompiledNsPerDecision)
		fmt.Printf("  interpreted ns/decision: %.1f\n", e.InterpretedNsPerDecision)
		fmt.Printf("  speedup:                 %.1fx\n", e.Speedup)
		fmt.Printf("  recompile latency:       %.0f ns (%d participants re-resolved)\n",
			e.RecompileNs, e.RecompiledPeers)
		return
	}

	if *chaos {
		e, err := runChaosCell(simnet.Faults{Loss: *loss, Dup: *dup, Jitter: *jitter}, *peers, *rounds, *seed)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("chaos cell: peers=%d rounds=%d loss=%.2f dup=%.2f jitter=%s\n",
			*peers, *rounds, *loss, *dup, *jitter)
		fmt.Printf("  ns/round:          %.0f\n", e.NsPerRound)
		fmt.Printf("  attempts/call:     %.3f\n", e.AttemptsPerCall)
		fmt.Printf("  retries:           %d\n", e.Retries)
		fmt.Printf("  store dedup hits:  %d\n", e.DedupHits)
		return
	}

	if *cell {
		runCell(*peers, *txnSize, *ri, *rounds, *trials, *storeKind, *seed)
		return
	}

	ids := []string{*fig}
	if *fig == "all" {
		ids = exp.FigureIDs()
	}
	opts := exp.Options{Quick: *quick, Seed: *seed}
	for _, id := range ids {
		runner, ok := exp.Figures[id]
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown figure %q; available: %v\n", id, exp.FigureIDs())
			os.Exit(2)
		}
		start := time.Now()
		figure, err := runner(opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "figure %s: %v\n", id, err)
			os.Exit(1)
		}
		figure.Fprint(os.Stdout)
		fmt.Printf("(%s elapsed)\n\n", time.Since(start).Round(time.Millisecond))
	}
}

func runCell(peers, txnSize, ri, rounds, trials int, storeKind string, seed int64) {
	kind := exp.Central
	if storeKind == "distributed" || storeKind == "dht" {
		kind = exp.DHT
	}
	res, err := exp.Run(exp.Config{
		Peers:         peers,
		TxnSize:       txnSize,
		ReconInterval: ri,
		Rounds:        rounds,
		Trials:        trials,
		Store:         kind,
		Seed:          seed,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("cell: peers=%d txnsize=%d ri=%d rounds=%d store=%s trials=%d\n",
		peers, txnSize, ri, rounds, kind, trials)
	fmt.Printf("  state ratio:          %s\n", res.StateRatio)
	fmt.Printf("  store time (total s): %s\n", res.TotalStore)
	fmt.Printf("  local time (total s): %s\n", res.TotalLocal)
	fmt.Printf("  store time (/recon):  %s\n", res.PerReconStore)
	fmt.Printf("  local time (/recon):  %s\n", res.PerReconLocal)
	fmt.Printf("  messages:             %s\n", res.Messages)
	fmt.Printf("  deferred per peer:    %s\n", res.Deferred)
}

// chaosResult is what one fault-injected cell measured: wall time per
// round, the retry stack's attempts per call and retries, and the
// duplicate deliveries the store's idempotency layer absorbed.
type chaosResult struct {
	NsPerRound      float64
	AttemptsPerCall float64
	Retries         int64
	DedupHits       int64
}

// trustCell is what one trust-at-scale cell measured: a generated
// delegation topology resolved through the trust graph, with per-decision
// cost on sampled participants' effective policies — once through the
// compiled decision program, once through the AST interpreter over the
// same textual rendering — plus the latency of a mid-stream mapping change
// (graph re-resolution of every affected participant).
type trustCell struct {
	Topology                 string
	Peers                    int
	Edges                    int
	CompiledNsPerDecision    float64
	InterpretedNsPerDecision float64
	Speedup                  float64
	RecompileNs              float64
	RecompiledPeers          int
}

// runChaosCell runs one fault-injected reconciliation cell: a confederation
// of peers over the simulated fabric, each talking to an in-memory central
// store through a retrying remote client, with the given faults on every
// link. Rounds of conflict-free edits keep retry exhaustion impossible in
// expectation at modest loss rates, so the measured cost is the retry and
// dedup machinery, not failed rounds.
func runChaosCell(faults simnet.Faults, peers, rounds int, seed int64) (chaosResult, error) {
	ctx := context.Background()
	schema := core.MustSchema(core.NewRelation("F", 2, "organism", "protein", "function"))
	net := simnet.NewVirtual(time.Microsecond)
	net.Seed(seed)
	cs := central.MustOpenMemory(schema)
	defer cs.Close()
	net.Node("store", remote.NewServer(cs, schema).Handler())
	var rc metrics.RetryCounters
	sys, err := orchestra.NewSystem(schema, orchestra.WithPeerStores(func(id core.PeerID) (store.Store, error) {
		n := net.Node("peer-"+string(id), nil)
		return remote.NewClientOn(n, "store", remote.WithRetryPolicy(rpc.RetryPolicy{
			MaxAttempts: 10,
			BaseDelay:   100 * time.Microsecond,
			MaxDelay:    2 * time.Millisecond,
			Seed:        seed,
			Counters:    &rc,
		})), nil
	}), orchestra.WithReconcileFanOut(peers))
	if err != nil {
		return chaosResult{}, err
	}
	// Remote clients carry trust textually; parse the policy once.
	pol, err := trust.Parse("priority 1 when true")
	if err != nil {
		return chaosResult{}, err
	}
	ps := make([]*orchestra.Peer, peers)
	for i := range ps {
		ps[i], err = sys.AddPeer(core.PeerID(fmt.Sprintf("p%d", i)), pol)
		if err != nil {
			return chaosResult{}, err
		}
	}
	net.SetFaults(faults)
	start := time.Now()
	for r := 0; r < rounds; r++ {
		for i, p := range ps {
			if _, err := p.Edit(core.Insert("F",
				core.Strs(fmt.Sprintf("org%d", i), fmt.Sprintf("prot-%d", r), "fn"), p.ID())); err != nil {
				return chaosResult{}, err
			}
		}
		if _, err := sys.ReconcileAll(ctx); err != nil {
			return chaosResult{}, fmt.Errorf("round %d at loss=%.2f: %w", r, faults.Loss, err)
		}
	}
	elapsed := time.Since(start)
	snap := rc.Snapshot()
	var attemptsPerCall float64
	if snap.Calls > 0 {
		attemptsPerCall = float64(snap.Attempts) / float64(snap.Calls)
	}
	return chaosResult{
		NsPerRound:      float64(elapsed.Nanoseconds()) / float64(rounds),
		AttemptsPerCall: attemptsPerCall,
		Retries:         snap.Retries,
		DedupHits:       cs.Metrics().Snapshot().DedupHits,
	}, nil
}

// trustEvalTopology builds and resolves one generated delegation topology:
// direct policies first, then the full delegating policies in descending
// index order (delegation targets re-register after their delegators, so
// registration cost stays near-linear until the final hub flip).
func trustEvalTopology(kind workload.TopologyKind, peers int) (*workload.TrustTopology, *trust.Graph, error) {
	tt, err := workload.NewTrustTopology(workload.TopologyConfig{Kind: kind, Peers: peers, Seed: 7})
	if err != nil {
		return nil, nil, err
	}
	g := trust.NewGraph(nil)
	for i := 0; i < peers; i++ {
		g.Set(tt.PeerID(i), trust.MustParse(tt.DirectPolicy(i)))
	}
	for i := peers - 1; i >= 0; i-- {
		g.Set(tt.PeerID(i), trust.MustParse(tt.Policy(i)))
	}
	return tt, g, nil
}

// runTrustEvalCell measures one topology cell: compiled vs interpreted
// ns/decision over sampled participants' effective policies, and the
// re-resolution latency of a mid-stream mapping change.
func runTrustEvalCell(kind workload.TopologyKind, peers int) (*trustCell, error) {
	tt, g, err := trustEvalTopology(kind, peers)
	if err != nil {
		return nil, err
	}
	// Sample a spread of participants and origins; every sampled policy is
	// evaluated against every origin per benchmark op.
	var samples []int
	for s := 0; s < peers; s += peers/7 + 1 {
		samples = append(samples, s)
	}
	samples = append(samples, peers-1)
	var origins []core.PeerID
	for s := 1; s < peers; s += peers/11 + 1 {
		origins = append(origins, tt.PeerID(s))
	}
	origins = append(origins, "ghost")
	updates := make([]core.Update, len(origins))
	for i, o := range origins {
		updates[i] = core.Insert("F", core.Strs("org", "prot", "fn"), o)
	}
	compiled := make([]core.Trust, len(samples))
	interpreted := make([]core.Trust, len(samples))
	for i, s := range samples {
		eff, ok := g.Effective(tt.PeerID(s)).(*trust.Policy)
		if !ok {
			return nil, fmt.Errorf("trust_eval: %s effective policy is not textual", tt.PeerID(s))
		}
		compiled[i] = eff
		interpreted[i] = trust.MustParse(eff.String()).WithInterpreted()
	}
	measure := func(pols []core.Trust) float64 {
		r := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, p := range pols {
					for _, u := range updates {
						_ = p.Priority(u)
					}
				}
			}
		})
		return float64(r.T.Nanoseconds()) / float64(r.N*len(pols)*len(updates))
	}
	compiledNs := measure(compiled)
	interpretedNs := measure(interpreted)

	// Mid-stream mapping change: re-register a mid-graph peer and time the
	// affected-set re-resolution (the store's RegisterPeer critical path).
	changed := tt.PeerID(peers / 2)
	pol := trust.MustParse(tt.Policy(peers / 2))
	start := time.Now()
	affected := g.Set(changed, pol)
	recompileNs := float64(time.Since(start).Nanoseconds())

	e := &trustCell{
		Topology:                 string(kind),
		Peers:                    peers,
		Edges:                    tt.Edges(),
		CompiledNsPerDecision:    compiledNs,
		InterpretedNsPerDecision: interpretedNs,
		RecompileNs:              recompileNs,
		RecompiledPeers:          len(affected),
	}
	if compiledNs > 0 {
		e.Speedup = interpretedNs / compiledNs
	}
	return e, nil
}

package orchestra

// Benchmarks regenerating the paper's evaluation (one per figure; see
// DESIGN.md §4 for the experiment index), plus ablation benchmarks for the
// design choices the implementation makes: hash-based vs naive conflict
// detection, delta flattening vs raw footprints, and per-store publish and
// reconcile costs. cmd/orchestra-bench runs the full multi-trial sweeps
// with confidence intervals; these testing.B entry points exercise the same
// code paths per iteration and report the headline metric of each figure
// via b.ReportMetric.

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"orchestra/internal/core"
	"orchestra/internal/exp"
	"orchestra/internal/simnet"
	"orchestra/internal/store"
	"orchestra/internal/store/central"
	"orchestra/internal/store/dhtstore"
	"orchestra/internal/workload"
)

// runCell runs one experiment trial per benchmark iteration and reports
// the figure's metrics.
func runCell(b *testing.B, cfg exp.Config) {
	b.Helper()
	cfg.Trials = 1
	var ratio, storeS, localS float64
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i + 1)
		res, err := exp.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		ratio = res.StateRatio.Mean
		storeS = res.TotalStore.Mean
		localS = res.TotalLocal.Mean
	}
	b.ReportMetric(ratio, "state-ratio")
	b.ReportMetric(storeS, "store-s/peer")
	b.ReportMetric(localS, "local-s/peer")
}

// BenchmarkFig08TransactionSize: state ratio vs transaction size with the
// number of updates between reconciliations held constant (Figure 8).
func BenchmarkFig08TransactionSize(b *testing.B) {
	const updatesPerInterval = 20
	for _, size := range []int{1, 2, 5, 10} {
		b.Run(fmt.Sprintf("size=%d", size), func(b *testing.B) {
			runCell(b, exp.Config{
				Peers:         10,
				TxnSize:       size,
				ReconInterval: max(1, updatesPerInterval/size),
				Rounds:        3,
			})
		})
	}
}

// BenchmarkFig09ReconInterval: state ratio vs reconciliation interval
// (Figure 9).
func BenchmarkFig09ReconInterval(b *testing.B) {
	for _, ri := range []int{1, 4, 10, 20} {
		b.Run(fmt.Sprintf("ri=%d", ri), func(b *testing.B) {
			runCell(b, exp.Config{Peers: 10, TxnSize: 1, ReconInterval: ri, Rounds: 3})
		})
	}
}

// BenchmarkFig10ReconIntervalTime: total reconciliation time per
// participant for RI × store kind (Figure 10); the store-s/peer and
// local-s/peer metrics carry the stacked-bar breakdown.
func BenchmarkFig10ReconIntervalTime(b *testing.B) {
	for _, ri := range []int{4, 20, 50} {
		for _, kind := range []exp.StoreKind{exp.Central, exp.DHT} {
			b.Run(fmt.Sprintf("ri=%d/store=%s", ri, kind), func(b *testing.B) {
				rounds := max(1, 40/ri)
				runCell(b, exp.Config{
					Peers: 10, TxnSize: 1, ReconInterval: ri,
					Rounds: rounds, Store: kind,
				})
			})
		}
	}
}

// BenchmarkFig11Participants: state ratio vs confederation size
// (Figure 11).
func BenchmarkFig11Participants(b *testing.B) {
	for _, n := range []int{5, 10, 25, 50} {
		b.Run(fmt.Sprintf("peers=%d", n), func(b *testing.B) {
			runCell(b, exp.Config{Peers: n, TxnSize: 1, ReconInterval: 4, Rounds: 3})
		})
	}
}

// BenchmarkFig12ParticipantsTime: average time per reconciliation for
// confederation size × store kind (Figure 12).
func BenchmarkFig12ParticipantsTime(b *testing.B) {
	for _, n := range []int{10, 25, 50} {
		for _, kind := range []exp.StoreKind{exp.Central, exp.DHT} {
			b.Run(fmt.Sprintf("peers=%d/store=%s", n, kind), func(b *testing.B) {
				runCell(b, exp.Config{
					Peers: n, TxnSize: 1, ReconInterval: 4,
					Rounds: 2, Store: kind,
				})
			})
		}
	}
}

// benchUpdateSets builds two flattened update sets with controlled overlap
// for the conflict-detection ablation.
func benchUpdateSets(n int) (a, b []core.Update) {
	r := rand.New(rand.NewSource(7))
	for i := 0; i < n; i++ {
		org := workload.Organisms[r.Intn(len(workload.Organisms))]
		prot := fmt.Sprintf("P%05d", r.Intn(n*2))
		a = append(a, core.Insert("F", core.Strs(org, prot, "fa"), "a"))
		prot = fmt.Sprintf("P%05d", r.Intn(n*2))
		b = append(b, core.Insert("F", core.Strs(org, prot, "fb"), "b"))
	}
	return a, b
}

// BenchmarkAblationConflictDetection compares the hash-based conflict
// detector (§5.1's O(t²+tua) bound depends on it) against the naive
// quadratic reference.
func BenchmarkAblationConflictDetection(b *testing.B) {
	schema := core.MustSchema(core.NewRelation("F", 2, "organism", "protein", "function"))
	for _, n := range []int{10, 100, 1000} {
		ua, ub := benchUpdateSets(n)
		b.Run(fmt.Sprintf("hash/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				core.SetsConflict(schema, ua, ub)
			}
		})
		b.Run(fmt.Sprintf("naive/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				core.SetsConflictNaive(schema, ua, ub)
			}
		})
	}
}

// BenchmarkAblationFlatten measures delta composition ("least interaction")
// against applying the raw footprint, for chains of increasing length.
func BenchmarkAblationFlatten(b *testing.B) {
	schema := core.MustSchema(core.NewRelation("F", 2, "organism", "protein", "function"))
	for _, chainLen := range []int{2, 8, 32} {
		var seq []core.Update
		seq = append(seq, core.Insert("F", core.Strs("rat", "p1", "v0"), "x"))
		for i := 1; i < chainLen; i++ {
			seq = append(seq, core.Modify("F",
				core.Strs("rat", "p1", fmt.Sprintf("v%d", i-1)),
				core.Strs("rat", "p1", fmt.Sprintf("v%d", i)), "x"))
		}
		b.Run(fmt.Sprintf("flatten/chain=%d", chainLen), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.Flatten(schema, seq); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("raw-apply/chain=%d", chainLen), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				inst := core.NewInstance(schema)
				if err := inst.ApplyAll(seq); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// contendedCandidates wraps workload.ContendedCandidates — the shared
// contended reconciliation workload of the engine benchmarks.
func contendedCandidates(b *testing.B, schema *core.Schema, n int) []*core.Candidate {
	b.Helper()
	cands, err := workload.ContendedCandidates(schema, "F", n)
	if err != nil {
		b.Fatal(err)
	}
	return cands
}

// BenchmarkEngineReconcile measures the pure reconciliation algorithm:
// one peer importing n single-insert transactions, half of them mutually
// conflicting, at the default parallelism (GOMAXPROCS).
func BenchmarkEngineReconcile(b *testing.B) {
	schema := core.MustSchema(core.NewRelation("F", 2, "organism", "protein", "function"))
	for _, n := range []int{10, 100, 500} {
		b.Run(fmt.Sprintf("txns=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				eng := core.NewEngine("q", schema, core.TrustAll(1))
				cands := contendedCandidates(b, schema, n)
				b.StartTimer()
				if _, err := eng.Reconcile(cands); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationParallelism sweeps the engine's worker bound over the
// contended reconciliation workload: workers=1 is the serial escape hatch,
// higher counts exercise the bounded pool of internal/core/parallel.go.
// allocs/op tracks the allocation hygiene of the flatten/conflict path.
func BenchmarkAblationParallelism(b *testing.B) {
	schema := core.MustSchema(core.NewRelation("F", 2, "organism", "protein", "function"))
	for _, workers := range []int{1, 2, 4, 8} {
		for _, n := range []int{100, 500} {
			b.Run(fmt.Sprintf("workers=%d/txns=%d", workers, n), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					eng := core.NewEngine("q", schema, core.TrustAll(1), core.WithParallelism(workers))
					cands := contendedCandidates(b, schema, n)
					b.StartTimer()
					if _, err := eng.Reconcile(cands); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkCentralPublish measures the centralized store's publish path
// (epoch allocation, WAL-backed transaction insertion, decision recording).
func BenchmarkCentralPublish(b *testing.B) {
	schema := workload.Schema()
	ctx := context.Background()
	for _, batch := range []int{1, 10, 100} {
		b.Run(fmt.Sprintf("batch=%d", batch), func(b *testing.B) {
			cs := central.MustOpenMemory(schema)
			defer cs.Close()
			if err := cs.RegisterPeer(ctx, "p", core.TrustAll(1)); err != nil {
				b.Fatal(err)
			}
			seq := uint64(0)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				txns := make([]store.PublishedTxn, batch)
				for j := range txns {
					txns[j] = store.PublishedTxn{Txn: core.NewTransaction(
						core.TxnID{Origin: "p", Seq: seq},
						core.Insert("Function", core.Strs("org", fmt.Sprintf("P%d", seq), "fn"), "p"))}
					seq++
				}
				if _, err := cs.Publish(ctx, "p", txns); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationAppendOnlyVsGeneral compares the §4.1 append-only
// baseline against the general engine on an identical insert-only batch:
// the price of supporting deletions, replacements, and antecedent chains.
func BenchmarkAblationAppendOnlyVsGeneral(b *testing.B) {
	schema := core.MustSchema(core.NewRelation("F", 2, "organism", "protein", "function"))
	mkBatch := func(n int) []*core.Transaction {
		out := make([]*core.Transaction, n)
		for j := 0; j < n; j++ {
			key := j / 2 // every two transactions contend
			out[j] = core.NewTransaction(core.TxnID{Origin: core.PeerID(fmt.Sprintf("p%d", j)), Seq: 0},
				core.Insert("F", core.Strs("org", fmt.Sprintf("p%d", key), fmt.Sprintf("f%d", j)), "x"))
		}
		return out
	}
	for _, n := range []int{100, 500} {
		b.Run(fmt.Sprintf("append-only/txns=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				eng := core.NewAppendOnlyEngine("q", schema, core.TrustAll(1))
				batch := mkBatch(n)
				b.StartTimer()
				eng.ReconcileEpoch(batch)
			}
		})
		b.Run(fmt.Sprintf("general/txns=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				eng := core.NewEngine("q", schema, core.TrustAll(1))
				cands := contendedCandidates(b, schema, n)
				b.StartTimer()
				if _, err := eng.Reconcile(cands); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationNetworkCentric compares client-centric and
// network-centric reconciliation over the DHT store (the Figure 3
// trade-off): per-iteration message counts are reported as metrics.
func BenchmarkAblationNetworkCentric(b *testing.B) {
	schema := workload.Schema()
	ctx := context.Background()
	for _, mode := range []string{"client-centric", "network-centric"} {
		b.Run(mode, func(b *testing.B) {
			var msgs float64
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				net := simnet.NewVirtual(simnet.DefaultLatency)
				cluster := dhtstore.NewCluster(net)
				newClient := func(id core.PeerID) store.Store {
					var cl store.Store
					var err error
					if mode == "network-centric" {
						cl, err = cluster.AddNetworkCentricNode("node-" + string(id))
					} else {
						cl, err = cluster.AddNode("node-" + string(id))
					}
					if err != nil {
						b.Fatal(err)
					}
					return cl
				}
				pa, err := store.NewPeer(ctx, "pa", schema, core.TrustAll(1), newClient("pa"))
				if err != nil {
					b.Fatal(err)
				}
				pb, err := store.NewPeer(ctx, "pb", schema, core.TrustAll(1), newClient("pb"))
				if err != nil {
					b.Fatal(err)
				}
				gen := workload.New(workload.Config{Seed: int64(i), TxnSize: 2, KeySpace: 100})
				for r := 0; r < 3; r++ {
					for k := 0; k < 5; k++ {
						ups := gen.NextUpdates(pa.Instance(), "pa")
						if len(ups) == 0 {
							continue
						}
						if _, err := pa.Edit(ups...); err != nil {
							continue
						}
					}
					if _, err := pa.PublishAndReconcile(ctx); err != nil {
						b.Fatal(err)
					}
				}
				net.Stats().Reset()
				b.StartTimer()
				if _, err := pb.PublishAndReconcile(ctx); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				msgs = float64(net.Stats().Messages())
				b.StartTimer()
			}
			b.ReportMetric(msgs, "messages")
		})
	}
}

// BenchmarkStateRatio measures the metric computation itself across
// confederation sizes.
func BenchmarkStateRatio(b *testing.B) {
	schema := core.MustSchema(core.NewRelation("F", 2, "organism", "protein", "function"))
	for _, n := range []int{10, 50} {
		instances := make([]*core.Instance, n)
		r := rand.New(rand.NewSource(3))
		for i := range instances {
			instances[i] = core.NewInstance(schema)
			for k := 0; k < 200; k++ {
				if r.Intn(2) == 0 {
					_ = instances[i].Apply(core.Insert("F",
						core.Strs("org", fmt.Sprintf("P%d", k), fmt.Sprintf("f%d", r.Intn(3))), "x"))
				}
			}
		}
		b.Run(fmt.Sprintf("peers=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				StateRatio(instances, "F")
			}
		})
	}
}

// BenchmarkStreamLatency drives a sustained conflict-free publish load
// through the streaming reconcile loop and measures time until every peer's
// frontier covers the last publish. It keeps the streaming path under make
// bench-smoke; the perfbench ingest and trust_churn workloads measure
// publish-to-decision latency end to end.
func BenchmarkStreamLatency(b *testing.B) {
	schema := MustSchema(NewRelation("F", 2, "organism", "protein", "function"))
	const peers = 4
	const publishes = 32
	ctx := context.Background()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		var (
			mu       sync.Mutex
			frontier = map[PeerID]Epoch{}
		)
		sys, err := NewSystem(schema, WithStreamObserver(func(r StreamResult) {
			mu.Lock()
			if r.To > frontier[r.Peer] {
				frontier[r.Peer] = r.To
			}
			mu.Unlock()
		}))
		if err != nil {
			b.Fatal(err)
		}
		ps := make([]*Peer, peers)
		for p := range ps {
			if ps[p], err = sys.AddPeer(PeerID(fmt.Sprintf("p%d", p)), core.TrustAll(1)); err != nil {
				b.Fatal(err)
			}
		}
		sctx, cancel := context.WithCancel(ctx)
		done := make(chan error, 1)
		b.StartTimer()
		go func() { done <- sys.RunStreaming(sctx) }()
		var last Epoch
		for k := 0; k < publishes; k++ {
			p := ps[k%peers]
			if _, err := p.Edit(Insert("F",
				Strs("org-"+string(p.ID()), fmt.Sprintf("prot-%d", k), "fn"), p.ID())); err != nil {
				b.Fatal(err)
			}
			if last, err = p.Publish(ctx); err != nil {
				b.Fatal(err)
			}
		}
		for {
			mu.Lock()
			caught := len(frontier) == peers
			for _, f := range frontier {
				caught = caught && f >= last
			}
			mu.Unlock()
			if caught {
				break
			}
			time.Sleep(100 * time.Microsecond)
		}
		b.StopTimer()
		cancel()
		if err := <-done; err != nil {
			b.Fatal(err)
		}
		sys.Close()
		b.StartTimer()
	}
	b.ReportMetric(float64(publishes), "publishes/op")
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

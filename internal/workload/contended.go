package workload

import (
	"fmt"

	"orchestra/internal/core"
)

// ContendedCandidates builds the standard core-reconciliation benchmark
// batch: n single-insert transactions from n distinct peers where every two
// transactions share a key, so half the batch mutually conflicts. It is the
// single source of truth for the workload measured by
// BenchmarkEngineReconcile and BenchmarkAblationParallelism, keeping their
// numbers comparable. The schema must contain the relation named by rel
// with at least three string attributes and a two-attribute key (e.g.
// F(organism, protein, function)).
func ContendedCandidates(schema *core.Schema, rel string, n int) ([]*core.Candidate, error) {
	graph := core.NewAntecedentGraph(schema)
	cands := make([]*core.Candidate, 0, n)
	for j := 0; j < n; j++ {
		key := j / 2 // every two transactions share a key
		x := core.NewTransaction(core.TxnID{Origin: core.PeerID(fmt.Sprintf("p%d", j)), Seq: 0},
			core.Insert(rel, core.Strs("org", fmt.Sprintf("p%d", key), fmt.Sprintf("f%d", j)), "x"))
		if err := graph.Add(x); err != nil {
			return nil, err
		}
		ext, err := graph.Extension(x.ID, nil)
		if err != nil {
			return nil, err
		}
		cands = append(cands, &core.Candidate{Txn: x, Priority: 1, Ext: ext})
	}
	return cands, nil
}

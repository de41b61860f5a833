// Command perfbench is the repository's benchmark. It runs one named
// workload against the public API of the store, engine, gateway and fleet
// packages, checks the workload's outputs, and prints every metric by name
// with its unit. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end metrics of BENCHMARK.json.
// With -trace 1 the run measures twice, untraced and then traced, each for
// the whole time; the metrics are the per-layer ones, measured from the
// benchmark's own timing wrappers and the program's counters, plus the
// tracing overhead on each end-to-end metric. See README.md.
//
// Usage (run.sh builds the binary first):
//
//	perfbench -workload curation -seed 1 -seconds 10 -trace 0 -out .bench_build
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// runConfig is what one measured phase of a workload gets.
type runConfig struct {
	seed    int64
	seconds float64 // measurement budget
	tr      *tracer // nil: untraced
	work    string  // scratch directory for durable stores
	smoke   bool    // tiny sizes, for the package's own tests
}

// report is what one phase of a workload measured and checked.
type report struct {
	e2e       metricSet
	layers    metricSet
	attempted int64
	failed    int64
	failures  []string       // correctness checks that did not hold
	record    map[string]any // facts for the run record
	txns      float64        // txns decided in the timed phase
}

func newReport() *report {
	return &report{e2e: metricSet{}, layers: metricSet{}, record: map[string]any{}}
}

func (r *report) check(ok bool, format string, args ...any) {
	if !ok {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(runConfig) (*report, error){
	"curation":    runCuration,
	"ingest":      runIngest,
	"tenants":     runTenants,
	"trust_churn": runTrustChurn,
}

// endToEnd lists the end-to-end metrics every workload reports with
// -trace 0, in BENCHMARK.json order.
var endToEnd = []string{"setup_s", "decide_ms_p50", "cpu_ms_per_txn", "heap_peak_mb"}

// overheadOn lists the end-to-end metrics the traced run reports the
// tracing overhead on: the gated ones and throughput.
var overheadOn = []string{"setup_s", "txns_per_s", "decide_ms_p50", "cpu_ms_per_txn", "heap_peak_mb"}

// layerMetric is one per-layer metric every workload reports with
// -trace 1; it is 0 on a workload whose path does not reach the layer.
type layerMetric struct{ name, unit, better string }

var perLayer = []layerMetric{
	{"gateway.self_ms_p50", "ms", "lower"},
	{"gateway.self_ms_p99", "ms", "lower"},
	{"gateway.inflight_peak", "count", "lower"},
	{"gateway.shed", "count", "lower"},
	{"gateway.rate_limited", "count", "lower"},
	{"rpc.self_ms_p50", "ms", "lower"},
	{"rpc.self_ms_p99", "ms", "lower"},
	{"central.publish_ms_p50", "ms", "lower"},
	{"central.publish_ms_p99", "ms", "lower"},
	{"central.begin_ms_p50", "ms", "lower"},
	{"central.decide_ms_p50", "ms", "lower"},
	{"central.watch_wake_ms_p50", "ms", "lower"},
	{"central.register_ms_p50", "ms", "lower"},
	{"central.epoch_contention", "count", "lower"},
	{"central.peer_contention", "count", "lower"},
	{"central.shard_contention", "count", "lower"},
	{"central.dedup_hits", "count", "lower"},
	{"central.snapshot_fetch_ms_p50", "ms", "lower"},
	{"central.tail_replay_ms_p50", "ms", "lower"},
	{"core.restore_ms_p50", "ms", "lower"},
	{"reldb.commits_per_txn", "commit/txn", "lower"},
	{"reldb.commits_per_flush", "commit/flush", "higher"},
	{"reldb.group_peak", "count", "higher"},
	{"reldb.table_waits_per_1k_commits", "count", "lower"},
	{"wal.flushes_per_txn", "flush/txn", "lower"},
	{"core.check_ms_p50", "ms", "lower"},
	{"core.conflict_ms_p50", "ms", "lower"},
	{"core.group_ms_p50", "ms", "lower"},
	{"core.apply_ms_p50", "ms", "lower"},
	{"core.softstate_ms_p50", "ms", "lower"},
	{"core.candidates", "count", "lower"},
	{"core.conflict_pairs", "count", "lower"},
	{"core.deferred_carried", "count", "lower"},
	{"core.decided_ratio", "ratio", "higher"},
	{"trust.price_ns", "ns", "lower"},
	{"trust.resolve_ms", "ms", "lower"},
	{"trust.affected_peers", "count", "lower"},
	{"stream.stable_to_decided_ms_p50", "ms", "lower"},
	{"stream.steps_per_epoch", "step/epoch", "lower"},
	{"fleet.node_commit_skew", "ratio", "lower"},
	{"runtime.alloc_mb_per_txn", "MB/txn", "lower"},
	{"runtime.gc_cpu_fraction", "ratio", "lower"},
	{"loadgen.lag_ms_p99", "ms", "lower"},
	{"self.system_ms_per_txn", "ms/txn", "lower"},
	{"self.fleet_ms_per_txn", "ms/txn", "lower"},
	{"self.gateway_ms_per_txn", "ms/txn", "lower"},
	{"self.rpc_ms_per_txn", "ms/txn", "lower"},
	{"self.central_ms_per_txn", "ms/txn", "lower"},
	{"self.core_ms_per_txn", "ms/txn", "lower"},
	{"self.trust_ms_per_txn", "ms/txn", "lower"},
	{"overhead.setup_s", "%", "lower"},
	{"overhead.txns_per_s", "%", "lower"},
	{"overhead.decide_ms_p50", "%", "lower"},
	{"overhead.cpu_ms_per_txn", "%", "lower"},
	{"overhead.heap_peak_mb", "%", "lower"},
}

// selfLayers are the span layers whose self time the traced run reports.
var selfLayers = []string{"system", "fleet", "gateway", "rpc", "central", "core", "trust"}

func main() {
	name := flag.String("workload", "", "workload: curation, ingest, tenants or trust_churn")
	seed := flag.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 10, "how long the run measures")
	trace := flag.Int("trace", 0, "1: also run traced and report per-layer metrics")
	out := flag.String("out", ".bench_build", "directory for run records, traces and scratch stores")
	flag.Parse()

	res, err := run(*name, *seed, *seconds, *trace == 1, *out, false)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// result is the final JSON line.
type result struct {
	Correct   bool      `json:"correct"`
	Attempted int64     `json:"attempted"`
	Failed    int64     `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

// run measures one workload and writes its run record (and, traced, its
// spans) under out.
func run(name string, seed int64, seconds float64, traced bool, out string, smoke bool) (*result, error) {
	wl, ok := workloads[name]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames(), ", "))
	}
	if seconds <= 0 {
		return nil, fmt.Errorf("-seconds must be positive")
	}
	for _, d := range []string{"work", "traces", "records"} {
		if err := os.MkdirAll(filepath.Join(out, d), 0o755); err != nil {
			return nil, err
		}
	}
	work, err := os.MkdirTemp(filepath.Join(out, "work"), name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)
	cfg := runConfig{seed: seed, seconds: seconds, work: work, smoke: smoke}

	res := &result{Metrics: metricSet{}}
	rec := map[string]any{
		"workload":   name,
		"seed":       seed,
		"seconds":    seconds,
		"trace":      traced,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(),
		"flush_policy": "central store default options: reldb group commit with a zero window, " +
			"one WAL write per group flush, no fsync (SyncOnCommit off)",
	}
	var reps []*report
	if !traced {
		r, err := wl(cfg)
		if err != nil {
			return nil, err
		}
		reps = []*report{r}
		for _, m := range endToEnd {
			v, ok := r.e2e[m]
			if !ok {
				return nil, fmt.Errorf("workload %s did not report %s", name, m)
			}
			res.Metrics[m] = metric{Value: v.Value, Unit: v.Unit}
		}
		rec["end_to_end"] = r.e2e
		printMetrics("end-to-end", r.e2e)
	} else {
		plain, err := wl(cfg)
		if err != nil {
			return nil, err
		}
		traced := cfg
		traced.tr = newTracer()
		tr, err := wl(traced)
		if err != nil {
			return nil, err
		}
		reps = []*report{plain, tr}
		compareTraced(plain, tr)
		layers := tracedLayers(traced.tr, plain, tr)
		for _, m := range perLayer {
			v := layers[m.name]
			res.Metrics[m.name] = metric{Value: v.Value, Unit: m.unit}
		}
		rec["end_to_end_untraced"] = plain.e2e
		rec["end_to_end_traced"] = tr.e2e
		rec["per_layer"] = layers
		rec["spans"] = traced.tr.len()
		printMetrics("end-to-end, untraced", plain.e2e)
		printMetrics("end-to-end, traced", tr.e2e)
		printMetrics("per-layer", layers)
		path := filepath.Join(out, "traces", fmt.Sprintf("%s-seed%d.jsonl", name, seed))
		if err := traced.tr.export(path); err != nil {
			return nil, err
		}
		rec["trace_file"] = path
	}

	var failures []string
	for i, r := range reps {
		res.Attempted += r.attempted
		res.Failed += r.failed
		failures = append(failures, r.failures...)
		for k, v := range r.record {
			if len(reps) > 1 {
				k = []string{"untraced.", "traced."}[i] + k
			}
			rec[k] = v
		}
	}
	res.Correct = len(failures) == 0 && res.Attempted > 0
	for _, f := range failures {
		fmt.Println("CHECK FAILED:", f)
	}
	rec["correct"] = res.Correct
	rec["check_failures"] = failures
	rec["attempted"], rec["failed"] = res.Attempted, res.Failed
	if err := writeJSON(filepath.Join(out, "records", fmt.Sprintf("%s-seed%d-trace%d.json", name, seed, btoi(traced))), rec); err != nil {
		return nil, err
	}
	return res, nil
}

// compareTraced fails the traced phase unless it reached the same decisions
// and capability answers as the untraced one.
func compareTraced(plain, tr *report) {
	for _, k := range []string{"fingerprint", "capabilities", "state_ratio"} {
		a, b := fmt.Sprint(plain.record[k]), fmt.Sprint(tr.record[k])
		tr.check(a == b, "traced %s %s differs from untraced %s", k, b, a)
	}
}

// tracedLayers completes the traced phase's per-layer metrics: every
// layer's self time per txn from the spans, and the tracing overhead on
// each end-to-end metric.
func tracedLayers(t *tracer, plain, tr *report) metricSet {
	out := metricSet{}
	for k, v := range tr.layers {
		out[k] = v
	}
	t.link()
	self := t.selfTimes()
	for _, l := range selfLayers {
		v := 0.0
		if tr.txns > 0 {
			v = ms(self[l]) / tr.txns
		}
		out.set("self."+l+"_ms_per_txn", v, "ms/txn")
	}
	for _, m := range overheadOn {
		a, b := plain.e2e[m].Value, tr.e2e[m].Value
		v := 0.0
		if a != 0 {
			v = 100 * (b - a) / a
		}
		out.set("overhead."+m, v, "%")
	}
	return out
}

func printMetrics(title string, m metricSet) {
	fmt.Printf("# %s\n", title)
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		v := m[k]
		if v.Samples > 0 {
			fmt.Printf("%-36s %14.4f %-10s n=%d\n", k, v.Value, v.Unit, v.Samples)
		} else {
			fmt.Printf("%-36s %14.4f %s\n", k, v.Value, v.Unit)
		}
	}
}

func workloadNames() []string {
	var out []string
	for k := range workloads {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// repeatSetup runs setup at least 3 times, and more (up to 15) until the
// set-ups took a second in all, and returns the median duration in
// seconds. Every set-up but the last is torn down; the last is returned
// for measuring.
func repeatSetup[T any](setup func() (T, error), teardown func(T)) (T, float64, error) {
	var secs []float64
	var total float64
	for {
		start := time.Now()
		v, err := setup()
		if err != nil {
			return v, 0, err
		}
		d := time.Since(start).Seconds()
		secs = append(secs, d)
		total += d
		if len(secs) >= 15 || len(secs) >= 3 && total >= 1 {
			return v, median(secs), nil
		}
		teardown(v)
		runtime.GC()
	}
}

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"net"
	"net/http"
	"os"
	"sync"
	"time"

	"orchestra"
	"orchestra/internal/core"
	"orchestra/internal/gateway"
	"orchestra/internal/metrics"
	"orchestra/internal/rpc"
	"orchestra/internal/store"
	"orchestra/internal/store/central"
	"orchestra/internal/store/remote"
	"orchestra/internal/workload"
)

// The ingest workload is the production serving path. Writers send
// conflict-free single-insert keyed publishes over HTTP: gateway (default
// gate, no auth, no rate limit) → a pool of 2 remote clients → loopback
// TCP → remote server → a durable central store with default options.
// 8 reader peers stream from that store (RunStreaming, TrustAll). The load
// is open loop at a fixed rate, well below the path's capacity, from 2
// sender goroutines; each request is timed from when it was due.
const (
	ingestRate    = 300 // publishes per second
	ingestReaders = 8
	ingestSenders = 2
	ingestPrint   = 32 // publishes the decision fingerprint covers
)

// ingestEnv is one set-up instance of the ingest path.
type ingestEnv struct {
	dir       string
	cs        *central.Store
	srv       *remote.Server
	rpcs      []*rpc.Client
	http      *http.Server
	url       string
	hc        *http.Client
	counters  *metrics.GatewayCounters
	sys       *orchestra.System
	probe     *streamProbe
	stop      context.CancelFunc
	streams   sync.WaitGroup
	streamErr error
	seq       [ingestSenders]uint64
	tr        *tracer
	caps      map[string]bool
	capErr    error
	closed    bool
}

func setupIngest(cfg runConfig) (*ingestEnv, error) {
	ctx := context.Background()
	schema := workload.Schema()
	var ids []string
	for i := 0; i < ingestReaders; i++ {
		ids = append(ids, fmt.Sprintf("r%d", i))
	}
	dir, err := os.MkdirTemp(cfg.work, "ingest-")
	if err != nil {
		return nil, err
	}
	env := &ingestEnv{
		dir:      dir,
		tr:       cfg.tr,
		counters: &metrics.GatewayCounters{},
		probe:    newStreamProbe(ids),
	}
	if env.cs, err = central.Open(schema, env.dir); err != nil {
		return nil, err
	}
	var backend store.Store = env.cs
	if cfg.tr != nil {
		backend = wrapStore(env.cs, cfg.tr, "central", "server", nil)
		timed(backend).onPublish = env.probe.published
	}
	env.srv = remote.NewServer(backend, schema)
	addr, err := env.srv.Listen("127.0.0.1:0")
	if err != nil {
		env.close()
		return nil, err
	}
	var lanes []store.Store
	for i := 0; i < 2; i++ {
		c := rpc.NewClient(fmt.Sprintf("gateway-%d", i))
		env.rpcs = append(env.rpcs, c)
		lanes = append(lanes, remote.NewClientOn(c, addr))
	}
	var gwBackend store.Store = gateway.NewPool(lanes...)
	if cfg.tr != nil {
		gwBackend = wrapStore(gwBackend, cfg.tr, "rpc", "gateway", nil)
	}
	gw := gateway.New(gwBackend, schema, gateway.Options{Counters: env.counters})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		env.close()
		return nil, err
	}
	env.http = &http.Server{Handler: gw}
	go env.http.Serve(ln)
	env.url = "http://" + ln.Addr().String()
	env.hc = &http.Client{Transport: &http.Transport{MaxConnsPerHost: ingestSenders, MaxIdleConnsPerHost: ingestSenders}}
	for g := 0; g < ingestSenders; g++ {
		code, body, err := env.post("/v1/peers", "", map[string]string{"peer": writerID(g), "policy": "priority 1 when true"})
		if err != nil || code != http.StatusOK {
			env.close()
			return nil, fmt.Errorf("register %s: %d %s %v", writerID(g), code, body, err)
		}
	}

	if env.sys, err = orchestra.NewSystem(schema, orchestra.WithPeerStores(env.probe.storeFor(env.cs, cfg.tr)), orchestra.WithStreamObserver(env.probe.observe)); err != nil {
		env.close()
		return nil, err
	}
	for _, id := range ids {
		if _, err := env.sys.AddPeer(core.PeerID(id), orchestra.TrustAll(1)); err != nil {
			env.close()
			return nil, err
		}
	}
	if cfg.tr != nil {
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

	// Warm up: a few publishes from each writer, decided by every reader.
	var last int64
	for i := 0; i < 8; i++ {
		e, err := env.publish(i % ingestSenders)
		if err != nil {
			env.close()
			return nil, fmt.Errorf("warm-up publish: %w", err)
		}
		last = e
	}
	if !waitFrontier(env.probe.readers, last, 10*time.Second) {
		env.close()
		return nil, fmt.Errorf("warm-up: readers did not reach epoch %d", last)
	}
	return env, nil
}

func writerID(g int) string { return fmt.Sprintf("w%d", g) }

// publish sends writer g's next keyed single-insert publish.
func (env *ingestEnv) publish(g int) (int64, error) {
	env.seq[g]++
	seq := env.seq[g]
	w := writerID(g)
	key := fmt.Sprintf("%s/%d", w, seq)
	body := map[string]any{
		"peer": w,
		"txns": []map[string]any{{
			"seq": seq,
			"updates": []map[string]any{{
				"op": "insert", "rel": "Function",
				"tuple": []string{"org-" + w, fmt.Sprintf("P%07d", seq), workload.Functions[ingestFunction(w, seq)]},
			}},
		}},
	}
	start := time.Now()
	code, raw, err := env.post("/v1/publish", key, body)
	env.tr.add("gateway.http", key, start, time.Now())
	if err != nil {
		return 0, err
	}
	if code != http.StatusOK {
		return 0, fmt.Errorf("publish %s: status %d: %s", key, code, raw)
	}
	var resp struct {
		Epoch int64 `json:"epoch"`
	}
	if err := json.Unmarshal(raw, &resp); err != nil {
		return 0, fmt.Errorf("publish %s: %w", key, err)
	}
	return resp.Epoch, nil
}

// ingestFunction picks a txn's function value from its key.
func ingestFunction(w string, seq uint64) int {
	h := fnv.New32a()
	fmt.Fprintf(h, "%s/%d", w, seq)
	return int(h.Sum32() % uint32(len(workload.Functions)))
}

func (env *ingestEnv) post(path, key string, body any) (int, []byte, error) {
	b, err := json.Marshal(body)
	if err != nil {
		return 0, nil, err
	}
	req, err := http.NewRequest("POST", env.url+path, bytes.NewReader(b))
	if err != nil {
		return 0, nil, err
	}
	if key != "" {
		req.Header.Set(gateway.IdempotencyKeyHeader, key)
	}
	resp, err := env.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	return resp.StatusCode, raw, err
}

// quiesce stops the readers' streams and the benchmark's watch.
func (env *ingestEnv) quiesce() {
	if env.stop != nil {
		env.stop()
		env.streams.Wait()
		env.stop = nil
	}
}

// close tears the environment down; the store directory stays for
// measuring until the run's scratch directory is removed.
func (env *ingestEnv) close() {
	if env.closed {
		return
	}
	env.closed = true
	env.quiesce()
	if env.http != nil {
		env.http.Close()
	}
	if env.hc != nil {
		env.hc.CloseIdleConnections()
	}
	for _, c := range env.rpcs {
		c.Close()
	}
	if env.srv != nil {
		env.srv.Close()
	}
	if env.cs != nil {
		env.cs.Close()
	}
}

func runIngest(cfg runConfig) (*report, error) {
	ctx := context.Background()
	rate, secs := float64(ingestRate), cfg.seconds
	if cfg.smoke {
		rate = 200
	}
	env, setup, err := repeatSetup(func() (*ingestEnv, error) { return setupIngest(cfg) }, func(env *ingestEnv) {
		env.close()
		os.RemoveAll(env.dir)
	})
	if err != nil {
		return nil, err
	}
	defer env.close()
	rep := newReport()
	n := int(rate * secs)
	if n < ingestPrint {
		n = ingestPrint
	}
	st0, db0 := env.cs.Metrics().Snapshot(), env.cs.DBMetrics().Snapshot()
	gw0 := env.counters.Snapshot()
	firstSeq := env.seq

	ph := startPhase()
	cfg.tr.reset()
	reqs := openLoop(ctx, rate, n, ingestSenders, func(i int) (int64, error) { return env.publish(i % ingestSenders) })
	var maxEpoch int64
	for _, r := range reqs {
		if r.err == nil && r.epoch > maxEpoch {
			maxEpoch = r.epoch
		}
	}
	drained := waitFrontier(env.probe.readers, maxEpoch, 20*time.Second)
	phr := ph.end()
	st1, db1 := env.cs.Metrics().Snapshot(), env.cs.DBMetrics().Snapshot()
	gw1 := env.counters.Snapshot()
	env.quiesce()
	rep.check(drained, "readers did not decide every acknowledged publish within 20s")
	rep.check(env.streamErr == nil, "reader streams failed: %v", env.streamErr)
	if env.capErr != nil {
		rep.check(false, "%v", env.capErr)
	}

	pub, dec, failed, span := openLoopLatencies(reqs, env.probe.readers)
	rep.attempted, rep.failed = int64(len(reqs)), failed
	rep.txns = float64(len(dec))
	ingestChecks(ctx, rep, env, reqs, firstSeq)

	env.close()
	bytes, err := dirBytes(env.dir)
	if err != nil {
		return nil, err
	}
	published := float64(env.seq[0] + env.seq[1])

	e := rep.e2e
	e.set("setup_s", setup, "s")
	e.set("txns_per_s", float64(len(dec))/span, "txn/s")
	e.setPct("decide_ms_p50", dec, 0.5, "ms")
	e.setPct("decide_ms_p75", dec, 0.75, "ms")
	e.setPct("decide_ms_p90", dec, 0.9, "ms")
	e.setPct("decide_ms_p99", dec, 0.99, "ms")
	e.setPct("publish_ms_p50", pub, 0.5, "ms")
	e.setPct("publish_ms_p99", pub, 0.99, "ms")
	e.set("heap_peak_mb", phr.heapPeakMB, "MB")
	e.set("cpu_ms_per_txn", ms(phr.cpu)/rep.txns, "ms/txn")
	e.set("stored_bytes_per_txn", float64(bytes)/published, "B/txn")
	e.set("failed_ratio", float64(rep.failed)/float64(rep.attempted), "ratio")
	rep.record["offered_rate_per_s"] = rate
	rep.record["capabilities"] = env.caps

	if cfg.tr != nil {
		l := rep.layers
		cfg.tr.link()
		l.setPct("gateway.self_ms_p50", cfg.tr.selfOf("gateway.http"), 0.5, "ms")
		l.setPct("gateway.self_ms_p99", cfg.tr.selfOf("gateway.http"), 0.99, "ms")
		l.set("gateway.inflight_peak", float64(gw1.InFlightPeak), "count")
		l.set("gateway.shed", float64(gw1.Shed-gw0.Shed), "count")
		l.set("gateway.rate_limited", float64(gw1.RateLimited-gw0.RateLimited), "count")
		l.setPct("rpc.self_ms_p50", cfg.tr.selfOf("rpc.publish"), 0.5, "ms")
		l.setPct("rpc.self_ms_p99", cfg.tr.selfOf("rpc.publish"), 0.99, "ms")
		spanLayers(l, cfg.tr, "central.publish", "central.begin", "central.decide")
		storeLayers(l, subStore(st1, st0), subDB(db1, db0), float64(len(reqs)))
		env.probe.layers(l, reqs)
		runtimeLayers(l, phr, float64(len(dec)))
		l.setPct("loadgen.lag_ms_p99", lagMs(reqs), 0.99, "ms")
	}
	return rep, nil
}

// ingestChecks audits every keyed publish for exactly-once delivery and
// the readers for identical instances and decisions.
func ingestChecks(ctx context.Context, rep *report, env *ingestEnv, reqs []request, firstSeq [ingestSenders]uint64) {
	log, _, err := env.cs.ReplayFor(ctx, "r0")
	if err != nil {
		rep.check(false, "replay for the audit: %v", err)
		return
	}
	seen := map[core.TxnID]int{}
	for _, pt := range log {
		seen[pt.Txn.ID]++
	}
	// Request i of the schedule is writer i%senders's publish number
	// firstSeq+i/senders+1; the warm-up publishes before it all succeeded.
	reqID := func(i int) core.TxnID {
		g := i % ingestSenders
		return core.TxnID{Origin: core.PeerID(writerID(g)), Seq: firstSeq[g] + uint64(i/ingestSenders) + 1}
	}
	failed := map[core.TxnID]bool{}
	for i, r := range reqs {
		if r.err != nil {
			failed[reqID(i)] = true
		}
	}
	sent := 0
	for g := 0; g < ingestSenders; g++ {
		for s := uint64(1); s <= env.seq[g]; s++ {
			id := core.TxnID{Origin: core.PeerID(writerID(g)), Seq: s}
			sent++
			if failed[id] {
				rep.check(seen[id] <= 1, "failed keyed publish %s stored %d times, want at most once", id, seen[id])
			} else {
				rep.check(seen[id] == 1, "acknowledged keyed publish %s stored %d times, want exactly once", id, seen[id])
			}
		}
	}
	rep.check(len(seen) <= sent, "store holds %d txns, the writers sent %d", len(seen), sent)
	peers := env.sys.Peers()
	for _, p := range peers[1:] {
		rep.check(p.Instance().Equal(peers[0].Instance()), "reader %s instance differs from reader %s", p.ID(), peers[0].ID())
	}
	held := peers[0].Instance().Len("Function")
	rep.check(held == len(seen), "reader instance holds %d tuples, the store %d txns", held, len(seen))

	// The fingerprint covers the first publishes of the schedule, which
	// every run of the same seed makes whatever its length.
	var ids []core.TxnID
	for i := 0; i < ingestPrint && i < len(reqs); i++ {
		ids = append(ids, reqID(i))
	}
	rep.record["fingerprint"] = decisionPrint(peers, ids)
	want := decisionPrintAll(peers, ids, 'A')
	rep.check(rep.record["fingerprint"] == want, "reader decisions %s differ from accept-everything %s", rep.record["fingerprint"], want)
}

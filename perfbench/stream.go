package main

import (
	"context"
	"sync"
	"time"

	"orchestra/internal/core"
	"orchestra/internal/store"
)

// streamProbe watches a streaming workload from outside: the readers'
// frontiers (through the stream observer), a benchmark-owned watch on the
// store, when each publish returned from the store, and, traced, the
// engine's stats of every streaming step.
type streamProbe struct {
	readers  *frontierLog
	watch    *frontierLog
	wrappers map[core.PeerID]*timedStore // set while peers are added, read-only after

	mu       sync.Mutex
	returns  map[int64]time.Time // store publish return time, by epoch
	stats    []core.ReconcileStats
	deferred int
}

func newStreamProbe(readers []string) *streamProbe {
	return &streamProbe{
		readers:  newFrontierLog(readers),
		watch:    newFrontierLog([]string{"watch"}),
		wrappers: map[core.PeerID]*timedStore{},
		returns:  map[int64]time.Time{},
	}
}

// storeFor is the System's peer-store factory: the store itself untraced,
// a timing wrapper around it traced.
func (p *streamProbe) storeFor(st store.Store, tr *tracer) func(core.PeerID) (store.Store, error) {
	return func(id core.PeerID) (store.Store, error) {
		if tr == nil {
			return st, nil
		}
		w := wrapStore(st, tr, "central", string(id), nil)
		p.wrappers[id] = timed(w)
		return w, nil
	}
}

// observe is the System's stream observer.
func (p *streamProbe) observe(r store.StreamResult) {
	p.readers.observe(string(r.Peer), int64(r.To), time.Now())
	if w := p.wrappers[r.Peer]; w != nil && r.Result != nil {
		w.engineSpan(r.Result.Stats)
		p.mu.Lock()
		p.stats = append(p.stats, r.Result.Stats)
		p.deferred += len(r.Result.Deferred)
		p.mu.Unlock()
	}
}

// published records when the store returned a publish's epoch.
func (p *streamProbe) published(e core.Epoch, at time.Time) {
	p.mu.Lock()
	p.returns[int64(e)] = at
	p.mu.Unlock()
}

// watchStore subscribes to the store's stable epochs from the start and
// records each event until ctx ends; wg is done when the watch stops.
func (p *streamProbe) watchStore(ctx context.Context, w store.Watcher, wg *sync.WaitGroup) error {
	ch, err := w.WatchFrom(ctx, 0)
	if err != nil {
		return err
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for ev := range ch {
			p.watch.observe("watch", int64(ev.To), time.Now())
		}
	}()
	return nil
}

// layers reports the watch wake-up, the stream's step metrics and the
// engine's stage times for the acknowledged requests.
func (p *streamProbe) layers(l metricSet, reqs []request) {
	var wake, s2d []float64
	p.mu.Lock()
	for _, r := range reqs {
		if r.err != nil {
			continue
		}
		woke, ok := p.watch.passed(r.epoch)
		if !ok {
			continue
		}
		if ret, ok := p.returns[r.epoch]; ok {
			wake = append(wake, ms(woke.Sub(ret)))
		}
		if at, ok := p.readers.passed(r.epoch); ok {
			s2d = append(s2d, ms(at.Sub(woke)))
		}
	}
	coreLayers(l, p.stats, p.deferred)
	p.mu.Unlock()
	l.setPct("central.watch_wake_ms_p50", wake, 0.5, "ms")
	l.setPct("stream.stable_to_decided_ms_p50", s2d, 0.5, "ms")
	epochs, steps := p.readers.min()
	if epochs > 0 {
		l.set("stream.steps_per_epoch", float64(steps)/float64(epochs), "step/epoch")
	}
}

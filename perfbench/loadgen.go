package main

import (
	"context"
	"sync"
	"time"
)

// request is one open-loop request: when it was due, when its sender was
// ready for it, when it was acknowledged, and the epoch it was given.
type request struct {
	due   time.Time
	ready time.Time // when the sender woke for it; zero if it was busy past due
	acked time.Time
	epoch int64
	err   error
}

// openLoop sends n requests on a fixed schedule, request i due at
// start + i/rate, over the given number of sender goroutines (sender g
// sends requests g, g+senders, ...). A sender that is still busy when its
// next request falls due sends it as soon as it is free, so a stall shows
// up in the latencies of the requests behind it. The returned slice is in
// schedule order.
func openLoop(ctx context.Context, rate float64, n, senders int, send func(i int) (int64, error)) []request {
	reqs := make([]request, n)
	start := time.Now().Add(5 * time.Millisecond)
	for i := range reqs {
		reqs[i].due = start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
	}
	var wg sync.WaitGroup
	for g := 0; g < senders; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < n; i += senders {
				r := &reqs[i]
				if wait := time.Until(r.due); wait > 0 {
					if !sleepUntil(ctx, r.due) {
						return
					}
					r.ready = time.Now()
				}
				r.epoch, r.err = send(i)
				r.acked = time.Now()
			}
		}(g)
	}
	wg.Wait()
	return reqs
}

func sleepUntil(ctx context.Context, t time.Time) bool {
	timer := time.NewTimer(time.Until(t))
	defer timer.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-timer.C:
		return true
	}
}

// lagMs returns how late each sender woke for the requests it was idle
// before: the generator's own scheduling error, in ms.
func lagMs(reqs []request) []float64 {
	var out []float64
	for _, r := range reqs {
		if !r.ready.IsZero() {
			out = append(out, ms(r.ready.Sub(r.due)))
		}
	}
	return out
}

// openLoopLatencies returns, for the acknowledged requests, the publish
// latency (due → acknowledged) and the decide latency (due → every reader
// past the request's epoch), and the seconds from the first request's due
// time to the last decision. A request that failed, or that the readers
// never decided, is counted in failed; it misses every latency bound.
func openLoopLatencies(reqs []request, decided *frontierLog) (pub, dec []float64, failed int64, span float64) {
	var last time.Time
	for _, r := range reqs {
		if r.err != nil || r.acked.IsZero() {
			failed++
			continue
		}
		at, ok := decided.passed(r.epoch)
		if !ok {
			failed++
			continue
		}
		pub = append(pub, ms(r.acked.Sub(r.due)))
		dec = append(dec, ms(at.Sub(r.due)))
		if at.After(last) {
			last = at
		}
	}
	if len(reqs) > 0 && !last.IsZero() {
		span = last.Sub(reqs[0].due).Seconds()
	}
	return pub, dec, failed, span
}

// waitFrontier waits until every reader's frontier reaches epoch e, or
// the timeout passes.
func waitFrontier(f *frontierLog, e int64, timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for {
		if got, _ := f.min(); got >= e {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(2 * time.Millisecond)
	}
}

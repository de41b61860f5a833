package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"
)

// metric is one reported number with its unit and, for a percentile, the
// number of samples behind it.
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
}

// metricSet collects a run's metrics by name.
type metricSet map[string]metric

// set records a value; one that is not finite (a ratio over nothing) reads
// 0, like a layer the workload does not reach.
func (m metricSet) set(name string, v float64, unit string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	m[name] = metric{Value: v, Unit: unit}
}

// setPct records the q-quantile of samples (in the unit they were taken in)
// together with the sample count behind it.
func (m metricSet) setPct(name string, samples []float64, q float64, unit string) {
	m[name] = metric{Value: quantile(samples, q), Unit: unit, Samples: len(samples)}
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks; 0 for no samples. xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// heapSampler records the peak HeapInuse while it runs.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	peak uint64
}

func startHeapSampler(every time.Duration) *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		t := time.NewTicker(every)
		defer t.Stop()
		var ms runtime.MemStats
		for {
			runtime.ReadMemStats(&ms)
			if ms.HeapInuse > h.peak {
				h.peak = ms.HeapInuse
			}
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// Stop ends sampling and returns the peak in MB.
func (h *heapSampler) Stop() float64 {
	close(h.stop)
	<-h.done
	return float64(h.peak) / (1 << 20)
}

// runtimeCounters snapshots the cumulative runtime/metrics the benchmark
// reports as deltas over a timed phase.
type runtimeCounters struct {
	allocBytes float64
	gcCPU      float64
	totalCPU   float64
}

var runtimeSamples = []string{
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() runtimeCounters {
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		s[i].Name = name
	}
	metrics.Read(s)
	val := func(v metrics.Value) float64 {
		switch v.Kind() {
		case metrics.KindUint64:
			return float64(v.Uint64())
		case metrics.KindFloat64:
			return v.Float64()
		}
		return 0
	}
	return runtimeCounters{allocBytes: val(s[0].Value), gcCPU: val(s[1].Value), totalCPU: val(s[2].Value)}
}

// cpuTime returns the CPU time the process has used, user and system.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// phase brackets a timed phase: wall time, CPU time, heap peak, and
// runtime deltas.
type phase struct {
	start time.Time
	cpu0  time.Duration
	rt0   runtimeCounters
	heap  *heapSampler
}

// startPhase collects the garbage of earlier set-ups first, so the phase's
// heap peak does not depend on when the collector last ran.
func startPhase() *phase {
	runtime.GC()
	return &phase{start: time.Now(), cpu0: cpuTime(), rt0: readRuntime(), heap: startHeapSampler(20 * time.Millisecond)}
}

// phaseResult is what a finished phase measured.
type phaseResult struct {
	wall       time.Duration
	cpu        time.Duration // process CPU time, user and system
	heapPeakMB float64
	allocMB    float64
	gcCPUFrac  float64
	cpuAvail   float64 // CPU time available to Go code: GOMAXPROCS × wall
}

func (p *phase) end() phaseResult {
	wall := time.Since(p.start)
	cpu := cpuTime() - p.cpu0
	peak := p.heap.Stop()
	rt := readRuntime()
	r := phaseResult{wall: wall, cpu: cpu, heapPeakMB: peak, allocMB: (rt.allocBytes - p.rt0.allocBytes) / (1 << 20)}
	r.cpuAvail = rt.totalCPU - p.rt0.totalCPU
	if r.cpuAvail > 0 {
		r.gcCPUFrac = (rt.gcCPU - p.rt0.gcCPU) / r.cpuAvail
	}
	return r
}

// mergePhases combines the phases of several episodes: wall times and
// allocations add up, the heap peak is the largest, and the GC share is
// weighted by CPU time.
func mergePhases(ps []phaseResult) phaseResult {
	var out phaseResult
	var gc float64
	for _, p := range ps {
		out.wall += p.wall
		out.cpu += p.cpu
		out.allocMB += p.allocMB
		out.cpuAvail += p.cpuAvail
		gc += p.gcCPUFrac * p.cpuAvail
		if p.heapPeakMB > out.heapPeakMB {
			out.heapPeakMB = p.heapPeakMB
		}
	}
	if out.cpuAvail > 0 {
		out.gcCPUFrac = gc / out.cpuAvail
	}
	return out
}

// frontierLog records when the minimum frontier over a set of stream
// observers advanced, so a latency can be looked up for an epoch whose
// acknowledgement arrives after the readers already decided it.
type frontierLog struct {
	mu       sync.Mutex
	frontier map[string]int64
	steps    int64
	log      []frontierStep
}

type frontierStep struct {
	epoch int64
	at    time.Time
}

func newFrontierLog(readers []string) *frontierLog {
	f := &frontierLog{frontier: make(map[string]int64, len(readers))}
	for _, r := range readers {
		f.frontier[r] = 0
	}
	return f
}

// observe records one reader's new frontier.
func (f *frontierLog) observe(reader string, to int64, at time.Time) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.steps++
	if to > f.frontier[reader] {
		f.frontier[reader] = to
	}
	min := int64(math.MaxInt64)
	for _, e := range f.frontier {
		if e < min {
			min = e
		}
	}
	if n := len(f.log); n == 0 || min > f.log[n-1].epoch {
		f.log = append(f.log, frontierStep{epoch: min, at: at})
	}
}

// passed returns when every reader's frontier first reached epoch e.
func (f *frontierLog) passed(e int64) (time.Time, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	i := sort.Search(len(f.log), func(i int) bool { return f.log[i].epoch >= e })
	if i == len(f.log) {
		return time.Time{}, false
	}
	return f.log[i].at, true
}

// min returns the current minimum frontier and the number of observer
// callbacks so far.
func (f *frontierLog) min() (int64, int64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(f.log) == 0 {
		return 0, f.steps
	}
	return f.log[len(f.log)-1].epoch, f.steps
}

package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call across a layer boundary, recorded from the
// benchmark's own code. Request ties the spans of one request together:
// the Idempotency-Key of a keyed publish, "rN" for round N and "rN/peer"
// for one peer's calls within it, "peer/N" for a peer's Nth streaming
// step, "rb/group/peer" for a rebuild.
type span struct {
	Name    string `json:"name"`
	Start   int64  `json:"start_ns"` // since the tracer started
	End     int64  `json:"end_ns"`
	Parent  int    `json:"parent"` // index of the enclosing span, -1 for a root
	Request string `json:"request"`
}

// layer returns the span's layer: the part of its name before the dot.
func (s span) layer() string {
	if i := strings.IndexByte(s.Name, '.'); i >= 0 {
		return s.Name[:i]
	}
	return s.Name
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced code paths carry no tracing cost beyond a nil check.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// add records a finished span.
func (t *tracer) add(name, request string, start, end time.Time) {
	if t == nil {
		return
	}
	s := span{Name: name, Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0)), Parent: -1, Request: request}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// durations returns the durations of every span with the given name, in ms.
func (t *tracer) durations(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, ms(s.dur()))
		}
	}
	return out
}

// link assigns parents: a span's parent is the shortest other span whose
// request id equals the child's or is a "/"-prefix of it, and whose
// interval contains the child's.
func (t *tracer) link() {
	t.mu.Lock()
	defer t.mu.Unlock()
	byReq := map[string][]int{}
	for i, s := range t.spans {
		byReq[s.Request] = append(byReq[s.Request], i)
	}
	for i := range t.spans {
		c := &t.spans[i]
		best := -1
		for req := c.Request; ; {
			for _, j := range byReq[req] {
				p := t.spans[j]
				if j == i || p.Start > c.Start || p.End < c.End {
					continue
				}
				if p.Start == c.Start && p.End == c.End && j > i {
					continue // identical intervals: the earlier span is the parent
				}
				if best < 0 || p.dur() < t.spans[best].dur() {
					best = j
				}
			}
			k := strings.LastIndexByte(req, '/')
			if k < 0 {
				break
			}
			req = req[:k]
		}
		c.Parent = best
	}
}

// selfTimes returns each layer's self time: the sum over its spans of the
// span's duration minus the part of it the span's children cover. Call
// after link.
func (t *tracer) selfTimes() map[string]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := map[string]time.Duration{}
	for i, self := range t.selfNsLocked() {
		out[t.spans[i].layer()] += time.Duration(self)
	}
	return out
}

// selfOf returns the self time, in ms, of every span with the given name.
// Call after link.
func (t *tracer) selfOf(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for i, self := range t.selfNsLocked() {
		if t.spans[i].Name == name {
			out = append(out, ms(time.Duration(self)))
		}
	}
	return out
}

// selfNsLocked returns every span's self time in ns: its duration minus
// the part of it its children cover.
func (t *tracer) selfNsLocked() []int64 {
	children := make([][]int, len(t.spans))
	for i, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(t.spans))
	for i, s := range t.spans {
		self[i] = s.End - s.Start - coveredNs(s, children[i], t.spans)
	}
	return self
}

// coveredNs is the length of the union of the children's intervals,
// clipped to the parent's.
func coveredNs(p span, kids []int, spans []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		s, e := spans[k].Start, spans[k].End
		if s < p.Start {
			s = p.Start
		}
		if e > p.End {
			e = p.End
		}
		if e > s {
			iv = append(iv, [2]int64{s, e})
		}
	}
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total, curS, curE int64
	for i, v := range iv {
		if i == 0 || v[0] > curE {
			total += curE - curS
			curS, curE = v[0], v[1]
			continue
		}
		if v[1] > curE {
			curE = v[1]
		}
	}
	return total + curE - curS
}

// export writes the spans as JSON lines.
func (t *tracer) export(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("export trace: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("export trace: %w", err)
	}
	return f.Close()
}

func (t *tracer) len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// reset drops the spans recorded so far, such as those of set-up calls.
func (t *tracer) reset() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = nil
	t.mu.Unlock()
}

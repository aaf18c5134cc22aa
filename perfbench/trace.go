package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed interval of a traced run. Spans of one job share
// Job; Parent indexes the enclosing span, -1 at a root. Times are
// nanoseconds since the tracer started.
type span struct {
	Name   string `json:"name"`
	Job    int    `json:"job"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// layer is the repo module a span's time belongs to: the part of its
// name before the first dot.
func (s span) layer() string {
	l, _, _ := strings.Cut(s.Name, ".")
	return l
}

// tracer keeps spans in memory until the run writes them out. A nil
// tracer records nothing, so untraced runs pay only a nil check.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	// cost is the time spent inside begin, end and add: what tracing
	// adds to the work it traces.
	cost time.Duration
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its index.
func (t *tracer) begin(name string, job, parent int) int {
	if t == nil {
		return -1
	}
	in := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Job: job, Parent: parent, Start: in.Sub(t.t0).Nanoseconds(), End: -1})
	t.cost += time.Since(in)
	return len(t.spans) - 1
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	in := time.Now()
	t.mu.Lock()
	t.spans[id].End = in.Sub(t.t0).Nanoseconds()
	t.cost += time.Since(in)
	t.mu.Unlock()
}

// add records a span whose bounds were measured elsewhere.
func (t *tracer) add(name string, job, parent int, start time.Time, d time.Duration) int {
	if t == nil {
		return -1
	}
	in := time.Now()
	s := start.Sub(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Job: job, Parent: parent, Start: s, End: s + d.Nanoseconds()})
	t.cost += time.Since(in)
	return len(t.spans) - 1
}

// overhead is the tracer's cost so far as a share of the time spent in
// the closed root spans named root. Called before anything else is
// traced, it is the share of those jobs' latency that tracing added.
func (t *tracer) overhead(root string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var total int64
	for _, s := range t.spans {
		if s.Parent < 0 && s.End >= 0 && s.Name == root {
			total += s.End - s.Start
		}
	}
	if total == 0 {
		return 0
	}
	return float64(t.cost.Nanoseconds()) / float64(total)
}

// selfTimes returns each layer's self time over the spans whose root is
// named root: a span's duration minus the part of it its children
// cover.
func (t *tracer) selfTimes(root string) map[string]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][]int)
	for i, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	rootOf := func(i int) int {
		for t.spans[i].Parent >= 0 {
			i = t.spans[i].Parent
		}
		return i
	}
	out := make(map[string]time.Duration)
	for i, s := range t.spans {
		if s.End < 0 || t.spans[rootOf(i)].Name != root {
			continue
		}
		out[s.layer()] += time.Duration(s.End-s.Start-covered(t.spans, children[i], s)) * time.Nanosecond
	}
	return out
}

// covered is the length of the union of the child intervals, clipped
// to the parent.
func covered(spans []span, kids []int, parent span) int64 {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, k := range kids {
		c := spans[k]
		if c.End < 0 {
			continue
		}
		ivs = append(ivs, iv{max(c.Start, parent.Start), min(c.End, parent.End)})
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, hi int64
	hi = parent.Start
	for _, v := range ivs {
		if v.a > hi {
			hi = v.a
		}
		if v.b > hi {
			total += v.b - hi
			hi = v.b
		}
	}
	return total
}

// write saves every span as JSON.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// printShares prints each layer's share of the self time under root.
func (t *tracer) printShares(title, root string) {
	self := t.selfTimes(root)
	var total time.Duration
	layers := make([]string, 0, len(self))
	for l, d := range self {
		total += d
		layers = append(layers, l)
	}
	sort.Slice(layers, func(i, j int) bool { return self[layers[i]] > self[layers[j]] })
	fmt.Printf("%s: self time by layer (total %.1f ms)\n", title, ms(total))
	for _, l := range layers {
		fmt.Printf("  %-11s %10.1f ms  %5.1f%%\n", l, ms(self[l]), 100*float64(self[l])/float64(max(total, 1)))
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

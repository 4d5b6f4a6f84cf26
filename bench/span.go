package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call from the benchmark into a layer of the system
// (or, for roots, one whole request or flush point). Spans of one request
// or round share Unit; Parent is the ID of the span that caused this one,
// -1 for a root.
type span struct {
	Name   string `json:"name"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Unit   int64  `json:"unit"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so cold-path callers need no branch of their own; the request
// hot loop instead has a separate traced variant and never calls into a
// tracer when tracing is off.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its ID (-1 from a nil tracer).
func (t *tracer) begin(name string, parent int, unit int64) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent, Unit: unit})
	// Stamped after the append so a slice growth lands in the parent's
	// self time, not in this span.
	t.spans[id].Start = int64(time.Since(t.t0))
	t.mu.Unlock()
	return id
}

// beginAt opens a span whose start was stamped earlier, by the goroutine
// that caused it (a flush point's t0 is taken by the generator, its span
// is recorded by the reporter).
func (t *tracer) beginAt(name string, parent int, unit int64, start time.Time) int {
	id := t.begin(name, parent, unit)
	if id >= 0 {
		t.mu.Lock()
		t.spans[id].Start = int64(start.Sub(t.t0))
		t.mu.Unlock()
	}
	return id
}

// timed is a span measured by its caller and handed to addTree whole.
type timed struct {
	name       string
	start, end time.Time
}

// addTree records one root and its children from timestamps the caller
// took itself. The request hot path uses it so that, while a request is
// being timed, the tracer costs only clock reads: the locking and
// appending happen after the request has ended.
func (t *tracer) addTree(root timed, unit int64, kids []timed) {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	ns := func(at time.Time) int64 { return int64(at.Sub(t.t0)) }
	t.spans = append(t.spans, span{Name: root.name, ID: id, Parent: -1, Unit: unit, Start: ns(root.start), End: ns(root.end)})
	for i, k := range kids {
		t.spans = append(t.spans, span{Name: k.name, ID: id + 1 + i, Parent: id, Unit: unit, Start: ns(k.start), End: ns(k.end)})
	}
}

// end closes the span.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// snapshot returns a copy of the recorded spans.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write dumps the spans as JSON to dir/trace-<workload>.json.
func (t *tracer) write(dir, workload string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("trace dir: %w", err)
	}
	data, err := json.Marshal(t.snapshot())
	if err != nil {
		return fmt.Errorf("encode trace: %w", err)
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+workload+".json"), data, 0o644)
}

// selfTimes returns, per span (indexed like spans), its duration minus
// the part of that interval its direct children cover. Overlapping
// children (parallel generators under one round) are unioned, so covered
// time is never counted twice and self time is never negative.
func selfTimes(spans []span) []int64 {
	children := make(map[int][]int)
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := spans[k].Start, spans[k].End
			if lo < edge {
				lo = edge
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[i] = (s.End - s.Start) - covered
	}
	return self
}

// attribution sums self time by span name over the spans under one kind
// of root: where the time on that blocking path went. The roots' own self
// time is what no layer span explains (hand-offs between goroutines,
// scheduling, the tracer's clock reads).
type attribution struct {
	root      string
	selfNS    map[string]int64 // descendant spans, by name
	rootNS    int64            // summed root durations
	rootSelf  int64
	rootCount int
}

// attribute builds the table for the closed spans whose top ancestor is
// named root.
func attribute(spans []span, root string) attribution {
	a := attribution{root: root, selfNS: map[string]int64{}}
	self := selfTimes(spans)
	under := make([]bool, len(spans)) // parents precede children, so one pass settles it
	for i, s := range spans {
		if s.Parent < 0 {
			under[i] = s.Name == root
		} else {
			under[i] = under[s.Parent]
		}
		if !under[i] || s.End == 0 { // End == 0: the run ended mid-span
			continue
		}
		if s.Parent < 0 {
			a.rootNS += s.End - s.Start
			a.rootSelf += self[i]
			a.rootCount++
		} else {
			a.selfNS[s.Name] += self[i]
		}
	}
	return a
}

// unexplainedShare is root self time over root duration: the share of the
// blocking path no layer span accounts for.
func (a attribution) unexplainedShare() float64 {
	if a.rootNS == 0 {
		return 0
	}
	return float64(a.rootSelf) / float64(a.rootNS)
}

// layerShare is the share of all layer self time spent in spans whose
// name satisfies match.
func (a attribution) layerShare(match func(name string) bool) float64 {
	var total, hit int64
	for name, ns := range a.selfNS {
		total += ns
		if match(name) {
			hit += ns
		}
	}
	if total == 0 {
		return 0
	}
	return float64(hit) / float64(total)
}

// print renders the table: the root's count, mean duration and
// unexplained share, then every layer span's summed self time and share.
func (a attribution) print(w io.Writer) {
	if a.rootCount == 0 {
		return
	}
	fmt.Fprintf(w, "  root %-22s n=%-6d mean=%10.1f us  unexplained=%5.1f%%\n",
		a.root, a.rootCount, float64(a.rootNS)/float64(a.rootCount)/1e3, 100*a.unexplainedShare())
	names := make([]string, 0, len(a.selfNS))
	var total int64
	for name, ns := range a.selfNS {
		names = append(names, name)
		total += ns
	}
	sort.Slice(names, func(i, j int) bool { return a.selfNS[names[i]] > a.selfNS[names[j]] })
	for _, name := range names {
		fmt.Fprintf(w, "    %-25s self=%10.3f ms  %5.1f%%\n",
			name, float64(a.selfNS[name])/1e6, 100*float64(a.selfNS[name])/float64(total))
	}
}

package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"repro/pivot"
)

// wide-groups: what the reporting path pays. Same flat deployment, one
// single-tracepoint query grouped by a key with wideKeys distinct values
// (half of advice.DefaultMaxGroups, so nothing overflows), a request being
// one crossing, with no baggage hop. Round-synchronous: a round touches every
// key once per worker, flushes, and the next round starts when the round
// is visible in Rows() — so Agent.Flush, wire encode/decode, the TCP bus,
// the frontend merge and Rows() do most of the work.
const wideQuery = `From e In Svc.Handle
GroupBy e.key
Select e.key, COUNT, SUM(e.v)`

const (
	wideWorkers   = 2
	wideKeys      = 8192
	wideSegRounds = 4 // rounds per segment
)

// wideWorker is one worker and its round of pre-boxed inputs: every key
// once, in a seed-drawn order, each with a seed-drawn value.
type wideWorker struct {
	pt   *pivot.PT
	tp   *pivot.Tracepoint
	key  []any
	val  []any
	sums map[string]int64 // per key, this worker's value: one round's SUM contribution
}

func wideKey(i int) string { return fmt.Sprintf("key-%05d", i) }

func newWideWorker(pt *pivot.PT, seed int64, keys int) *wideWorker {
	w := &wideWorker{pt: pt, tp: pt.Define("Svc.Handle", "key", "v"), sums: make(map[string]int64, keys)}
	rng := rand.New(rand.NewSource(seed))
	w.key = make([]any, keys)
	w.val = make([]any, keys)
	for i, k := range rng.Perm(keys) {
		v := int64(rng.Intn(1 << 20))
		w.key[i] = wideKey(k)
		w.val[i] = v
		w.sums[wideKey(k)] = v
	}
	return w
}

// cross issues the worker's round: one crossing per key, all under one
// request context, so the crossings themselves stay a small share of the
// round and the reporting path the large one.
func (w *wideWorker) cross() {
	ctx := w.pt.NewRequest(context.Background())
	for i := range w.key {
		w.tp.Here(ctx, w.key[i], w.val[i])
	}
}

type wideWorkload struct {
	realPath
	q       *pivot.Query
	workers []*wideWorker
	bare    *wideWorker
	rounds  int64
	all     []int // every worker index, for flushAndAwait
}

func newWide(cfg config) workload { return &wideWorkload{realPath: realPath{cfg: cfg}} }

func (w *wideWorkload) blockingRoot() string { return "round" }

func (w *wideWorkload) setup() error {
	names := make([]string, wideWorkers)
	for i := range names {
		names[i] = fmt.Sprintf("worker-%d", i)
		w.all = append(w.all, i)
	}
	d, err := deploy(names, nil, func(pt *pivot.PT) { pt.Define("Svc.Handle", "key", "v") }, w.cfg.traced)
	if err != nil {
		return err
	}
	w.d = d
	if w.q, err = d.install("wide", wideQuery); err != nil {
		return err
	}
	if err := d.awaitInstalled("wide", true); err != nil {
		return err
	}
	keys := w.cfg.scaled(wideKeys, 8)
	for i, pt := range d.workers {
		ww := newWideWorker(pt, w.cfg.seed*1000+int64(i), keys)
		if !ww.tp.Enabled() {
			return fmt.Errorf("worker %d: advice not woven", i)
		}
		w.workers = append(w.workers, ww)
	}
	w.bare = newWideWorker(pivot.New("bare-worker"), w.cfg.seed*1000, keys)

	// Warm the whole path with one round before timing.
	w.round(nil, false)
	w.o.visibleMS = w.o.visibleMS[:0]
	if w.o.firstErr != nil {
		return w.o.firstErr
	}
	if w.cfg.traced {
		w.measureOverhead()
	}
	return nil
}

// round issues one round on every worker, flushes, and waits until the
// round is visible. solo makes the calling goroutine cross the workers one
// after another and returns the time worker 0's crossings took (the
// overhead measurement's single generator); otherwise the generators
// cross in parallel.
func (w *wideWorkload) round(tr *tracer, solo bool) (worker0 time.Duration) {
	unit := w.rounds
	root := tr.begin("round", -1, unit)
	defer tr.end(root)

	if solo {
		start := time.Now()
		w.workers[0].cross()
		worker0 = time.Since(start)
		for _, other := range w.workers[1:] {
			other.cross()
		}
	} else {
		fanOut(len(w.workers), func(wi int) {
			s := tr.begin("tracepoint.here-batch", root, unit)
			w.workers[wi].cross()
			tr.end(s)
		})
	}
	t0 := time.Now()
	w.rounds++

	if err := w.d.flushAndAwait(tr, root, unit, w.all); err != nil {
		w.o.fail(err)
		return worker0
	}
	s := tr.begin("core.rows", root, unit)
	rows := w.q.Rows()
	tr.end(s)
	var got int64
	for _, r := range rows {
		got += r[1].Int()
	}
	keys := len(w.workers[0].key)
	if want := w.rounds * int64(keys*len(w.workers)); len(rows) != keys || got != want {
		w.o.fail(fmt.Errorf("round %d: %d rows with COUNT %d visible, want %d rows with %d", unit, len(rows), got, keys, want))
		return worker0
	}
	w.o.visibleMS = append(w.o.visibleMS, float64(time.Since(t0))/1e6)
	return worker0
}

func (w *wideWorkload) segment(tr *tracer) (int64, time.Duration) {
	start := time.Now()
	for i := 0; i < wideSegRounds; i++ {
		w.round(tr, false)
	}
	return wideSegRounds * int64(len(w.workers)*len(w.workers[0].key)), time.Since(start)
}

// measureOverhead times one worker's round of crossings with the query
// installed and the same crossings on a runtime with no query installed,
// interleaved ABAB on one goroutine.
func (w *wideWorkload) measureOverhead() {
	n := float64(len(w.bare.key))
	for i := 0; i < 6; i++ {
		w.o.overheadA = append(w.o.overheadA, float64(w.round(nil, true))/n)
		start := time.Now()
		w.bare.cross()
		w.o.overheadB = append(w.o.overheadB, float64(time.Since(start))/n)
	}
	w.o.visibleMS = w.o.visibleMS[:0]
}

func (w *wideWorkload) finish() (attempted, failed int64) {
	keys := len(w.workers[0].key)
	attempted = w.rounds * int64(keys*len(w.workers))
	rows := w.q.Rows()
	if len(rows) != keys {
		failed++
		w.o.note(fmt.Errorf("wide-groups: %d result rows, want %d", len(rows), keys))
	}
	for _, r := range rows {
		key := r[0].Str()
		var sum int64
		for _, ww := range w.workers {
			sum += ww.sums[key]
		}
		if _, ok := w.workers[0].sums[key]; !ok || r[1].Int() != w.rounds*int64(len(w.workers)) || r[2].Int() != w.rounds*sum {
			failed++
			w.o.note(fmt.Errorf("wide-groups: row %v, want COUNT %d SUM %d", r, w.rounds*int64(len(w.workers)), w.rounds*sum))
		}
	}
	return attempted, failed + w.dropFailures("wide-groups")
}

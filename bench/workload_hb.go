package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/baggage"
	"repro/pivot"
)

// hb-crossings: what the instrumented application pays. Two gateway/store
// worker pairs; every request crosses Gateway.Receive (which packs the
// tenant into baggage), carries the baggage to the store as bytes, splits
// and rejoins it, and crosses Store.Write three times (unpack, join,
// emit). Reports are 8 rows, so tracepoint, advice, baggage and the
// agent's emit path do nearly all the work; the generators never wait
// for a report.
const hbQuery = `From w In Store.Write
Join g In First(Gateway.Receive) On g -> w
GroupBy g.tenant
Select g.tenant, SUM(w.bytes), COUNT`

const (
	hbPairs     = 2
	hbTenants   = 8
	hbChunk     = 4000 // requests of one pair between flush points
	hbSegChunks = 5    // chunks per pair per segment
)

// hbPair is one gateway/store pair and one chunk of pre-drawn, pre-boxed
// inputs (boxing here keeps the generator's own allocations out of
// allocs_per_request). The chunk repeats, so the reference is the chunk's
// totals times the chunks run.
type hbPair struct {
	gw, st      *pivot.PT
	recv, write *pivot.Tracepoint
	stCtx       context.Context
	tenant      []any
	bytes       [3][]any
	chunks      int64 // chunks issued so far
	unit        int64 // request counter, for span unit ids
	bagBytes    int64 // bytes returned by Inject, over all requests
	bagTuples   int64 // baggage tuples at Inject, over traced requests
	bagProbed   int64 // traced requests

	refCount, refSum [hbTenants]int64 // one chunk's expected COUNT and SUM per tenant
}

func hbTenant(i int) string { return fmt.Sprintf("tenant-%d", i) }

func newHBPair(gw, st *pivot.PT, seed int64, chunk int) *hbPair {
	p := &hbPair{
		gw: gw, st: st,
		recv:  gw.Define("Gateway.Receive", "tenant"),
		write: st.Define("Store.Write", "bytes"),
		stCtx: st.Context(context.Background()),
	}
	rng := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(rng, 1.3, 1, hbTenants-1)
	tenants := make([]any, hbTenants)
	for i := range tenants {
		tenants[i] = hbTenant(i)
	}
	sizes := make([]any, 8)
	for i := range sizes {
		sizes[i] = int64(512 * (i + 1))
	}
	p.tenant = make([]any, chunk)
	for k := range p.bytes {
		p.bytes[k] = make([]any, chunk)
	}
	for i := 0; i < chunk; i++ {
		t := int(zipf.Uint64())
		p.tenant[i] = tenants[t]
		for k := range p.bytes {
			s := rng.Intn(len(sizes))
			p.bytes[k][i] = sizes[s]
			p.refSum[t] += sizes[s].(int64)
		}
		p.refCount[t] += 3
	}
	return p
}

// request issues request i of the chunk and returns the baggage bytes
// that crossed the process boundary.
func (p *hbPair) request(i int) int {
	ctx := p.gw.NewRequest(context.Background())
	p.recv.Here(ctx, p.tenant[i])
	wire := pivot.Inject(ctx)
	sctx := pivot.Extract(p.stCtx, wire)
	a, b := pivot.Split(sctx)
	p.write.Here(a, p.bytes[0][i])
	p.write.Here(b, p.bytes[1][i])
	joined := pivot.Join(sctx, a, b)
	p.write.Here(joined, p.bytes[2][i])
	return len(wire)
}

// requestTraced is request with a span around every call into a layer.
// It only reads the clock while the request runs — twice per boundary, so
// the reads themselves land in the root's self time, not in a layer's.
func (p *hbPair) requestTraced(i int, tr *tracer) int {
	var kids [9]timed
	layer := func(k int, name string, call func()) {
		kids[k].name, kids[k].start = name, time.Now()
		call()
		kids[k].end = time.Now()
	}
	var (
		ctx, sctx, a, b, joined context.Context
		wire                    []byte
	)
	start := time.Now()
	layer(0, "baggage.new_request", func() { ctx = p.gw.NewRequest(context.Background()) })
	layer(1, "tracepoint.here", func() { p.recv.Here(ctx, p.tenant[i]) })
	layer(2, "baggage.inject", func() { wire = pivot.Inject(ctx) })
	layer(3, "baggage.extract", func() { sctx = pivot.Extract(p.stCtx, wire) })
	layer(4, "baggage.split", func() { a, b = pivot.Split(sctx) })
	layer(5, "tracepoint.here", func() { p.write.Here(a, p.bytes[0][i]) })
	layer(6, "tracepoint.here", func() { p.write.Here(b, p.bytes[1][i]) })
	layer(7, "baggage.join", func() { joined = pivot.Join(sctx, a, b) })
	layer(8, "tracepoint.here", func() { p.write.Here(joined, p.bytes[2][i]) })
	end := time.Now()
	tr.addTree(timed{"request", start, end}, p.unit+int64(i), kids[:])
	p.bagTuples += int64(baggage.FromContext(ctx).TupleCount())
	p.bagProbed++
	return len(wire)
}

// traceEvery is the request sampling rate of the traced pass.
const traceEvery = 64

// runChunk issues one chunk of requests; with a tracer, every
// traceEvery-th request is traced.
func (p *hbPair) runChunk(tr *tracer) {
	n := len(p.tenant)
	var bytes int
	if tr == nil {
		for i := 0; i < n; i++ {
			bytes += p.request(i)
		}
	} else {
		for i := 0; i < n; i++ {
			if i%traceEvery == 0 {
				bytes += p.requestTraced(i, tr)
			} else {
				bytes += p.request(i)
			}
		}
	}
	p.bagBytes += int64(bytes)
	p.chunks++
	p.unit += int64(n)
}

// flushPoint is what a generator hands the reporter: flush this pair, and
// report how long after t0 (the last crossing before the flush point) the
// pair's requests so far are visible in Rows().
type flushPoint struct {
	pair   int
	t0     time.Time
	chunks int64   // the pair's chunks issued, this one included
	tr     *tracer // non-nil in a traced segment
}

type hbWorkload struct {
	realPath
	q     *pivot.Query
	pairs []*hbPair
	bare  *hbPair // same runtimes' shape with no query installed: the overhead baseline

	flushCh      chan flushPoint
	reporterDone chan struct{}
	confirmed    [hbPairs]int64 // reporter's view: chunks flushed and confirmed per pair
}

func newHB(cfg config) *hbWorkload { return &hbWorkload{realPath: realPath{cfg: cfg}} }

func (w *hbWorkload) blockingRoot() string { return "request" }

func (w *hbWorkload) setup() error {
	names := make([]string, 0, 2*hbPairs)
	for i := 0; i < hbPairs; i++ {
		names = append(names, fmt.Sprintf("gateway-%d", i), fmt.Sprintf("store-%d", i))
	}
	define := func(pt *pivot.PT) {
		pt.Define("Gateway.Receive", "tenant")
		pt.Define("Store.Write", "bytes")
	}
	d, err := deploy(names, nil, define, w.cfg.traced)
	if err != nil {
		return err
	}
	w.d = d
	if w.q, err = d.install("hb", hbQuery); err != nil {
		return err
	}
	if err := d.awaitInstalled("hb", true); err != nil {
		return err
	}
	chunk := w.cfg.scaled(hbChunk, 8)
	for i := 0; i < hbPairs; i++ {
		p := newHBPair(d.workers[2*i], d.workers[2*i+1], w.cfg.seed*1000+int64(i), chunk)
		if !p.recv.Enabled() || !p.write.Enabled() {
			return fmt.Errorf("pair %d: advice not woven", i)
		}
		w.pairs = append(w.pairs, p)
	}
	w.bare = newHBPair(pivot.New("bare-gateway"), pivot.New("bare-store"), w.cfg.seed*1000, chunk)

	// Warm every pair through the whole path once before timing.
	for i, p := range w.pairs {
		p.runChunk(nil)
		w.report(flushPoint{pair: i, t0: time.Now(), chunks: p.chunks})
	}
	w.o.visibleMS = w.o.visibleMS[:0]
	if w.o.firstErr != nil {
		return w.o.firstErr
	}
	// Sized so the generators never block on the reporter; how far it
	// fell behind is reported as bench.reporter_backlog_max.
	w.flushCh = make(chan flushPoint, 4096)
	w.reporterDone = make(chan struct{})
	go func() {
		defer close(w.reporterDone)
		for fp := range w.flushCh {
			if n := len(w.flushCh); n > w.o.backlogMax {
				w.o.backlogMax = n
			}
			w.report(fp)
		}
	}()
	if w.cfg.traced {
		w.measureOverhead()
	}
	return nil
}

// report handles one flush point on the reporter's goroutine.
func (w *hbWorkload) report(fp flushPoint) {
	unit := int64(w.d.flushes)
	root := fp.tr.beginAt("visible", -1, unit, fp.t0)
	defer fp.tr.end(root)
	if err := w.d.flushAndAwait(fp.tr, root, unit, []int{2 * fp.pair, 2*fp.pair + 1}); err != nil {
		w.o.fail(err)
		return
	}
	w.confirmed[fp.pair] = fp.chunks
	var want int64
	for i, p := range w.pairs {
		want += w.confirmed[i] * 3 * int64(len(p.tenant))
	}
	s := fp.tr.begin("core.rows", root, unit)
	rows := w.q.Rows()
	fp.tr.end(s)
	var got int64
	for _, r := range rows {
		got += r[2].Int()
	}
	if got < want {
		w.o.fail(fmt.Errorf("flush point %d: COUNT %d visible, want at least %d", unit, got, want))
		return
	}
	w.o.visibleMS = append(w.o.visibleMS, float64(time.Since(fp.t0))/1e6)
}

func (w *hbWorkload) segment(tr *tracer) (int64, time.Duration) {
	start := time.Now()
	fanOut(len(w.pairs), func(pi int) {
		p := w.pairs[pi]
		for c := 0; c < hbSegChunks; c++ {
			p.runChunk(tr)
			w.flushCh <- flushPoint{pair: pi, t0: time.Now(), chunks: p.chunks, tr: tr}
		}
	})
	wall := time.Since(start)
	var reqs int64
	for _, p := range w.pairs {
		reqs += hbSegChunks * int64(len(p.tenant))
	}
	return reqs, wall
}

// measureOverhead times the same single-generator chunk with the query
// installed (pair 0, whose requests count like any others) and with no
// query installed (the bare pair), interleaved ABAB.
func (w *hbWorkload) measureOverhead() {
	p := w.pairs[0]
	n := float64(len(p.tenant))
	for i := 0; i < 6; i++ {
		start := time.Now()
		p.runChunk(nil)
		w.o.overheadA = append(w.o.overheadA, float64(time.Since(start))/n)
		w.flushCh <- flushPoint{pair: 0, t0: time.Now(), chunks: p.chunks}
		start = time.Now()
		w.bare.runChunk(nil)
		w.o.overheadB = append(w.o.overheadB, float64(time.Since(start))/n)
	}
}

func (w *hbWorkload) finish() (attempted, failed int64) {
	close(w.flushCh)
	<-w.reporterDone

	want := map[string][2]int64{}
	for _, p := range w.pairs {
		attempted += p.chunks * int64(len(p.tenant))
		w.o.bagBytes += p.bagBytes
		w.o.bagTuples += p.bagTuples
		w.o.bagProbed += p.bagProbed
		for t := 0; t < hbTenants; t++ {
			if p.refCount[t] == 0 {
				continue
			}
			v := want[hbTenant(t)]
			v[0] += p.chunks * p.refSum[t]
			v[1] += p.chunks * p.refCount[t]
			want[hbTenant(t)] = v
		}
	}
	rows := w.q.Rows()
	if len(rows) != len(want) {
		failed++
		w.o.note(fmt.Errorf("hb-crossings: %d result rows, want %d", len(rows), len(want)))
	}
	for _, r := range rows {
		v, ok := want[r[0].Str()]
		if !ok || r[1].Int() != v[0] || r[2].Int() != v[1] {
			failed++
			w.o.note(fmt.Errorf("hb-crossings: row %v, want SUM %d COUNT %d", r, v[0], v[1]))
		}
	}
	return attempted, failed + w.dropFailures("hb-crossings")
}

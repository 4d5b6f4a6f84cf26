package main

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"repro/internal/combiner"
	"repro/pivot"
)

// tree-fanin: the reporting layers used the other way. Four workers report
// on partition topics to two mid combiners bridged over TCP, which merge
// and forward to the frontend. Eight standing queries (four group-bys at
// treeKeys keys, two happened-before joins, two aggregate-free Selects
// shipping raw rows) put eight advice on every Back.Exec crossing and many
// small reports into every ReportBatch frame; and every round a ninth,
// probe query is installed, observed and uninstalled while crossings
// continue, so control-path writes run beside the emit path.
var treeQueries = []struct{ name, text string }{
	{"g-count", `From b In Back.Exec GroupBy b.key Select b.key, COUNT`},
	{"g-sum", `From b In Back.Exec GroupBy b.key Select b.key, SUM(b.bytes)`},
	{"g-max", `From b In Back.Exec GroupBy b.key Select b.key, MAX(b.bytes)`},
	{"g-min", `From b In Back.Exec GroupBy b.key Select b.key, MIN(b.bytes)`},
	{"hb-first", `From b In Back.Exec Join f In First(Front.Recv) On f -> b GroupBy f.tenant Select f.tenant, SUM(b.bytes), COUNT`},
	{"hb-all", `From b In Back.Exec Join f In Front.Recv On f -> b GroupBy f.tenant Select f.tenant, COUNT`},
	{"raw-big", `From b In Back.Exec Where b.bytes >= 1000000 Select b.key, b.bytes`},
	{"raw-neg", `From b In Back.Exec Where b.bytes < 0 Select b.key, b.bytes`},
}

const treeProbe = `From b In Back.Exec Select COUNT`

const (
	treeWorkers   = 4
	treeKeys      = 1024
	treeTenants   = 8
	treeSegRounds = 4
	// treeRawPerRound is how many requests per worker and round match each
	// raw query: few, so a 60 s run stays far below advice.DefaultMaxRaws
	// at the frontend.
	treeRawPerRound = 2
)

// treeWorker is one worker and its round of pre-boxed inputs: every key
// once, each request crossing Front.Recv then Back.Exec in that process.
type treeWorker struct {
	pt          *pivot.PT
	front, back *pivot.Tracepoint
	tenant      []any
	key         []any
	bytes       []any
}

func newTreeWorker(pt *pivot.PT, seed int64, keys int) *treeWorker {
	w := &treeWorker{
		pt:    pt,
		front: pt.Define("Front.Recv", "tenant", "key"),
		back:  pt.Define("Back.Exec", "key", "bytes"),
	}
	rng := rand.New(rand.NewSource(seed))
	tenants := make([]any, treeTenants)
	for i := range tenants {
		tenants[i] = fmt.Sprintf("tenant-%d", i)
	}
	w.tenant = make([]any, keys)
	w.key = make([]any, keys)
	w.bytes = make([]any, keys)
	for i, k := range rng.Perm(keys) {
		w.tenant[i] = tenants[rng.Intn(treeTenants)]
		w.key[i] = wideKey(k)
		w.bytes[i] = int64(1 + rng.Intn(8192))
	}
	// Mark the raw queries' matches at seed-drawn positions.
	marks := rng.Perm(keys)
	for m := 0; m < treeRawPerRound && 2*m+1 < keys; m++ {
		w.bytes[marks[2*m]] = int64(1000000 + rng.Intn(1000))
		w.bytes[marks[2*m+1]] = -int64(1 + rng.Intn(1000))
	}
	return w
}

// cross issues requests [lo, hi) of the worker's round.
func (w *treeWorker) cross(lo, hi int) {
	for i := lo; i < hi; i++ {
		ctx := w.pt.NewRequest(context.Background())
		w.front.Here(ctx, w.tenant[i], w.key[i])
		w.back.Here(ctx, w.key[i], w.bytes[i])
	}
}

type treeWorkload struct {
	realPath
	queries map[string]*pivot.Query
	workers []*treeWorker
	bare    *treeWorker
	rounds  int64
	all     []int
	probe   *pivot.Query // last round's probe, uninstalled at the start of the next
}

func newTree(cfg config) workload {
	return &treeWorkload{realPath: realPath{cfg: cfg}, queries: map[string]*pivot.Query{}}
}

func (w *treeWorkload) blockingRoot() string { return "round" }

func treeDefine(pt *pivot.PT) {
	pt.Define("Front.Recv", "tenant", "key")
	pt.Define("Back.Exec", "key", "bytes")
}

func (w *treeWorkload) setup() error {
	names := make([]string, treeWorkers)
	for i := range names {
		names[i] = fmt.Sprintf("worker-%d", i)
		w.all = append(w.all, i)
	}
	part := func(i int) string { return combiner.PartitionTopic(i, treeWorkers) }
	d, err := deploy(names, [][]string{{part(0), part(1)}, {part(2), part(3)}}, treeDefine, w.cfg.traced)
	if err != nil {
		return err
	}
	w.d = d
	for _, q := range treeQueries {
		if w.queries[q.name], err = d.install(q.name, q.text); err != nil {
			return err
		}
	}
	for _, q := range treeQueries {
		if err := d.awaitInstalled(q.name, true); err != nil {
			return err
		}
	}
	keys := w.cfg.scaled(treeKeys, 8)
	for i, pt := range d.workers {
		w.workers = append(w.workers, newTreeWorker(pt, w.cfg.seed*1000+int64(i), keys))
	}
	bare := pivot.New("bare-worker")
	w.bare = newTreeWorker(bare, w.cfg.seed*1000, keys)

	w.round(nil, false) // warm the whole path before timing
	w.o.visibleMS, w.o.installMS = w.o.visibleMS[:0], w.o.installMS[:0]
	if w.o.firstErr != nil {
		return w.o.firstErr
	}
	if w.cfg.traced {
		n := float64(keys)
		for i := 0; i < 6; i++ {
			w.o.overheadA = append(w.o.overheadA, float64(w.round(nil, true))/n)
			start := time.Now()
			w.bare.cross(0, keys)
			w.o.overheadB = append(w.o.overheadB, float64(time.Since(start))/n)
		}
		w.o.visibleMS, w.o.installMS = w.o.visibleMS[:0], w.o.installMS[:0]
	}
	return nil
}

// round is one round: swap the probe query (uninstall the previous, install
// a fresh one) while the generators cross the first half of every worker's
// keys; once every worker has shed the old probe and woven the new one,
// cross the second half; flush workers then combiners; wait until the
// round is visible. The mid-round rendezvous is what makes report and row
// counts repeat exactly — it normally finds the swap long done.
func (w *treeWorkload) round(tr *tracer, solo bool) (worker0 time.Duration) {
	unit := w.rounds
	root := tr.begin("round", -1, unit)
	defer tr.end(root)

	keys := len(w.workers[0].key)
	half := keys / 2
	name := fmt.Sprintf("probe-%06d", unit)
	old := w.probe
	var (
		installed time.Time
		swapErr   error
		swapped   = make(chan struct{})
	)
	go func() {
		defer close(swapped)
		if old != nil {
			s := tr.begin("core.uninstall", root, unit)
			old.Uninstall()
			tr.end(s)
		}
		installed = time.Now()
		s := tr.begin("core.install", root, unit)
		w.probe, swapErr = w.d.install(name, treeProbe)
		tr.end(s)
	}()

	cross := func(lo, hi int) {
		if solo {
			start := time.Now()
			w.workers[0].cross(lo, hi)
			worker0 += time.Since(start)
			for _, other := range w.workers[1:] {
				other.cross(lo, hi)
			}
			return
		}
		fanOut(len(w.workers), func(wi int) {
			s := tr.begin("tracepoint.here-batch", root, unit)
			w.workers[wi].cross(lo, hi)
			tr.end(s)
		})
	}

	cross(0, half)
	<-swapped
	if swapErr == nil {
		swapErr = w.d.awaitInstalled(name, true)
	}
	if swapErr == nil && old != nil {
		swapErr = w.d.awaitInstalled(old.Name, false)
	}
	if swapErr != nil {
		w.o.fail(swapErr)
		return worker0
	}
	cross(half, keys)
	t0 := time.Now()
	w.rounds++

	if err := w.d.flushAndAwait(tr, root, unit, w.all); err != nil {
		w.o.fail(err)
		return worker0
	}
	s := tr.begin("core.rows", root, unit)
	rows := w.queries["g-count"].Rows()
	tr.end(s)
	var got int64
	for _, r := range rows {
		got += r[1].Int()
	}
	if want := w.rounds * int64(keys*len(w.workers)); len(rows) != keys || got != want {
		w.o.fail(fmt.Errorf("round %d: %d rows with COUNT %d visible, want %d rows with %d", unit, len(rows), got, keys, want))
		return worker0
	}
	w.o.visibleMS = append(w.o.visibleMS, float64(time.Since(t0))/1e6)

	if probeRows := w.probe.Rows(); len(probeRows) == 0 || probeRows[0][0].Int() < int64((keys-half)*len(w.workers)) {
		w.o.fail(fmt.Errorf("round %d: probe rows %v, want a COUNT of at least the round's second half", unit, probeRows))
		return worker0
	}
	w.o.installMS = append(w.o.installMS, float64(time.Since(installed))/1e6)
	return worker0
}

func (w *treeWorkload) segment(tr *tracer) (int64, time.Duration) {
	start := time.Now()
	for i := 0; i < treeSegRounds; i++ {
		w.round(tr, false)
	}
	return treeSegRounds * int64(len(w.workers)*len(w.workers[0].key)), time.Since(start)
}

// treeReference computes every standing query's expected rows, rendered
// as sorted strings, from the workers' inputs and the rounds run.
func (w *treeWorkload) reference() map[string][]string {
	type agg struct{ count, sum, max, min int64 }
	byKey := map[string]*agg{}
	byTenant := map[string]*agg{}
	var rawBig, rawNeg []string
	fold := func(m map[string]*agg, k string, v int64) {
		a := m[k]
		if a == nil {
			a = &agg{max: v, min: v}
			m[k] = a
		}
		a.count++
		a.sum += v
		if v > a.max {
			a.max = v
		}
		if v < a.min {
			a.min = v
		}
	}
	for _, ww := range w.workers {
		for i := range ww.key {
			key, tenant, v := ww.key[i].(string), ww.tenant[i].(string), ww.bytes[i].(int64)
			fold(byKey, key, v)
			fold(byTenant, tenant, v)
			row := fmt.Sprintf("%s %d", key, v)
			for r := int64(0); r < w.rounds; r++ {
				if v >= 1000000 {
					rawBig = append(rawBig, row)
				}
				if v < 0 {
					rawNeg = append(rawNeg, row)
				}
			}
		}
	}
	n := w.rounds
	ref := map[string][]string{"raw-big": rawBig, "raw-neg": rawNeg}
	for k, a := range byKey {
		ref["g-count"] = append(ref["g-count"], fmt.Sprintf("%s %d", k, n*a.count))
		ref["g-sum"] = append(ref["g-sum"], fmt.Sprintf("%s %d", k, n*a.sum))
		ref["g-max"] = append(ref["g-max"], fmt.Sprintf("%s %d", k, a.max))
		ref["g-min"] = append(ref["g-min"], fmt.Sprintf("%s %d", k, a.min))
	}
	for t, a := range byTenant {
		ref["hb-first"] = append(ref["hb-first"], fmt.Sprintf("%s %d %d", t, n*a.sum, n*a.count))
		ref["hb-all"] = append(ref["hb-all"], fmt.Sprintf("%s %d", t, n*a.count))
	}
	for _, rows := range ref {
		sort.Strings(rows)
	}
	return ref
}

func (w *treeWorkload) finish() (attempted, failed int64) {
	attempted = w.rounds * int64(len(w.workers)*len(w.workers[0].key))
	ref := w.reference()
	for _, q := range treeQueries {
		var got []string
		for _, r := range w.queries[q.name].Rows() {
			line := r[0].String()
			for _, v := range r[1:] {
				line += fmt.Sprintf(" %d", v.Int())
			}
			got = append(got, line)
		}
		sort.Strings(got)
		want := ref[q.name]
		mismatch := int64(0)
		if len(got) != len(want) {
			mismatch++
		}
		for i := 0; i < len(got) && i < len(want); i++ {
			if got[i] != want[i] {
				mismatch++
				w.o.note(fmt.Errorf("tree-fanin: query %s: row %q, want %q", q.name, got[i], want[i]))
			}
		}
		if mismatch > 0 {
			w.o.note(fmt.Errorf("tree-fanin: query %s: %d rows, want %d", q.name, len(got), len(want)))
		}
		failed += mismatch
	}
	return attempted, failed + w.dropFailures("tree-fanin")
}

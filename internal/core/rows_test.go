package core

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/advice"
	"repro/internal/agent"
	"repro/internal/agg"
	"repro/internal/bus"
	"repro/internal/plan"
	"repro/internal/randtest"
	"repro/internal/tracepoint"
	"repro/internal/tuple"
)

// rowsQueries are grouped queries whose result order Rows keeps across
// calls: key-led, aggregate-led (its order moves as counts change), a
// bare COUNT (rows tie whole), and aggregate-led with a group cap small
// enough that the overflow group appears.
var rowsQueries = []struct {
	text   string
	limits advice.Limits
}{
	{`From e In Tp GroupBy e.key Select e.key, COUNT, SUM(e.v)`, advice.Limits{}},
	{`From e In Tp GroupBy e.key Select COUNT, e.key`, advice.Limits{}},
	{`From e In Tp GroupBy e.key Select COUNT`, advice.Limits{}},
	{`From e In Tp GroupBy e.key Select COUNT, e.key`, advice.Limits{MaxGroups: 12}},
}

// installRowsQueries installs rowsQueries on a frontend with no agent:
// the tests merge hand-built reports into it.
func installRowsQueries(t *testing.T) (*PivotTracing, []*Installed) {
	t.Helper()
	reg := tracepoint.NewRegistry()
	reg.Define("Tp", "key", "v")
	pt := New(bus.New(), reg)
	var hs []*Installed
	for i, q := range rowsQueries {
		h, err := pt.InstallNamed(fmt.Sprintf("Q%d", i), q.text, plan.Options{Optimize: true, Limits: q.limits})
		if err != nil {
			t.Fatal(err)
		}
		hs = append(hs, h)
	}
	return pt, hs
}

// reportRound builds one report for h: each of keys folds its count of
// unit values (value = the key's index), as an agent's flush would.
func reportRound(h *Installed, keys []int, counts []int) agent.Report {
	op := h.Plan.Emit.Emit
	width := 0
	for _, col := range op.Cols {
		width = max(width, col.Pos+1)
	}
	r := agent.Report{QueryID: h.Name, Host: "h", ProcName: "p"}
	for i, k := range keys {
		key := fmt.Sprintf("k-%03d", k)
		g := &advice.Group{Key: key, Rep: make(tuple.Tuple, width)}
		for _, col := range op.Cols {
			if !col.IsAgg {
				g.Rep[col.Pos] = tuple.String(key)
				continue
			}
			st := agg.Make(col.Fn)
			for range counts[i] {
				st.Add(tuple.Int(int64(k)))
			}
			g.States = append(g.States, st)
		}
		r.Groups = append(r.Groups, g)
	}
	return r
}

// freshRows is the reference: the merger's rows, sorted from scratch.
func freshRows(h *Installed) []tuple.Tuple {
	h.mu.Lock()
	defer h.mu.Unlock()
	rows := h.global.Rows()
	slices.SortFunc(rows, compareRows)
	return rows
}

// checkKeptRows checks one Rows() call against the reference. The
// queries' rows never tie on distinguishable values (a tie on COUNT is
// broken by the key, or the rows are equal whole), so the kept order must
// equal the fresh sort row for row, which also makes them the same rows.
func checkKeptRows(h *Installed) error {
	got, want := h.Rows(), freshRows(h)
	if !slices.IsSortedFunc(got, compareRows) {
		return fmt.Errorf("%s: Rows() is not sorted: %v", h.Name, got)
	}
	if !slices.EqualFunc(got, want, tuple.Tuple.Equal) {
		return fmt.Errorf("%s: Rows() = %v, fresh sort = %v", h.Name, got, want)
	}
	return nil
}

// TestRowsKeptOrderMatchesFreshSort merges seed-drawn rounds of reports —
// new keys arriving mid-stream, counts that reorder an aggregate-led
// result, equal counts, an overflow group — and reads Rows() between them
// (sometimes twice, sometimes not at all). Every read must be sorted and
// equal the merger's rows sorted from scratch.
func TestRowsKeptOrderMatchesFreshSort(t *testing.T) {
	randtest.Check(t, 30, 1, func(seed int64) error {
		rng := rand.New(rand.NewSource(seed))
		pt, hs := installRowsQueries(t)
		universe := 4
		for round := 0; round < 40; round++ {
			if rng.Intn(3) == 0 {
				universe += 1 + rng.Intn(6) // new groups mid-stream
			}
			keys := rng.Perm(universe)[:1+rng.Intn(universe)]
			counts := make([]int, len(keys))
			for i := range counts {
				counts[i] = 1 + rng.Intn(3) // small counts: ties are common
			}
			for _, h := range hs {
				pt.mergeReport(reportRound(h, keys, counts))
			}
			for reads := rng.Intn(3); reads > 0; reads-- {
				for _, h := range hs {
					if err := checkKeptRows(h); err != nil {
						return fmt.Errorf("round %d: %w", round, err)
					}
				}
			}
		}
		for _, h := range hs {
			if err := checkKeptRows(h); err != nil {
				return err
			}
		}
		if !slices.ContainsFunc(hs[3].global.Groups(), func(g *advice.Group) bool { return g.Key == advice.OverflowKey }) {
			return fmt.Errorf("the capped query never overflowed")
		}
		return nil
	})
}

// TestRowsKeptOrderConcurrentReaders reads Rows() from two goroutines
// while a third merges rounds that add groups and reorder an
// aggregate-led result (run it under -race): every read is sorted and
// holds one row per group merged so far.
func TestRowsKeptOrderConcurrentReaders(t *testing.T) {
	pt, hs := installRowsQueries(t)
	h := hs[1]
	done := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan error, 2)
	for range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			last := 0
			for {
				select {
				case <-done:
					return
				default:
				}
				rows := h.Rows()
				if !slices.IsSortedFunc(rows, compareRows) || len(rows) < last {
					errs <- fmt.Errorf("read %d rows after %d, sorted %v", len(rows), last, slices.IsSortedFunc(rows, compareRows))
					return
				}
				last = len(rows)
			}
		}()
	}
	rng := rand.New(rand.NewSource(1))
	for round := 0; round < 200; round++ {
		keys := rng.Perm(10 + round)[:5]
		pt.mergeReport(reportRound(h, keys, []int{1, 2, 3, 1, 2}))
	}
	close(done)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if err := checkKeptRows(h); err != nil {
		t.Error(err)
	}
}

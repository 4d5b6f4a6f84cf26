package querygen

import (
	"crypto/sha256"
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/plan"
	"repro/internal/query"
	"repro/internal/randtest"
	"repro/internal/tracepoint"
)

func TestGenerateIsDeterministic(t *testing.T) {
	randtest.Check(t, 50, 7000, func(seed int64) error {
		a, b := Generate(seed), Generate(seed)
		if !reflect.DeepEqual(a, b) {
			return fmt.Errorf("two generations from the same seed differ")
		}
		return nil
	})
}

// TestGeneratedCasesArePinned: the differential sweeps name their cases
// by seed, so a generator change that moves one rng call silently re-deals
// every seed — old failures stop replaying and the sweeps cover different
// ground. The digest is over %#v of every generator's case for seeds
// 1–3000; a change that means to re-deal them records the new digest here.
func TestGeneratedCasesArePinned(t *testing.T) {
	const want = "74293c07b013f702c5f0128ae1d4d09cfa2667d71e4259aedc4742c2ace59834"
	h := sha256.New()
	for seed := int64(1); seed <= 3000; seed++ {
		fmt.Fprintf(h, "%#v", Generate(seed))
		fmt.Fprintf(h, "%#v", GenerateBudgeted(seed))
		fmt.Fprintf(h, "%#v", GenerateSampled(seed))
	}
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != want {
		t.Fatalf("generated cases changed: digest %s, want %s", got, want)
	}
}

func TestGeneratedQueriesParseAnalyzeAndCompile(t *testing.T) {
	randtest.Check(t, 300, 8000, func(seed int64) error {
		c := Generate(seed)
		reg := tracepoint.NewRegistry()
		c.Define(reg)
		q, err := query.Parse(c.QueryText)
		if err != nil {
			return fmt.Errorf("parse %q: %w", c.QueryText, err)
		}
		if _, err := plan.Compile(q, reg, nil, plan.Optimized); err != nil {
			return fmt.Errorf("compile optimized %q: %w", c.QueryText, err)
		}
		q2, err := query.Parse(c.QueryText)
		if err != nil {
			return fmt.Errorf("reparse %q: %w", c.QueryText, err)
		}
		if _, err := plan.Compile(q2, reg, nil, plan.Options{}); err != nil {
			return fmt.Errorf("compile unoptimized %q: %w", c.QueryText, err)
		}
		return nil
	})
}

func TestGenerateSampledCasesAreWellFormed(t *testing.T) {
	rates := map[float64]bool{}
	for _, r := range sampledRates {
		rates[r] = true
	}
	randtest.Check(t, 100, 11000, func(seed int64) error {
		c := GenerateSampled(seed)
		if !rates[c.SampleRate] {
			return fmt.Errorf("SampleRate %v not drawn from the sampled pool", c.SampleRate)
		}
		reg := tracepoint.NewRegistry()
		c.Define(reg)
		q, err := query.Parse(c.QueryText)
		if err != nil {
			return fmt.Errorf("parse %q: %w", c.QueryText, err)
		}
		if q.Sample != c.SampleRate {
			return fmt.Errorf("query text declares Sample %v, case says %v", q.Sample, c.SampleRate)
		}
		if _, err := plan.Compile(q, reg, nil, plan.Optimized); err != nil {
			return fmt.Errorf("compile %q: %w", c.QueryText, err)
		}
		if c2 := GenerateSampled(seed); !reflect.DeepEqual(c, c2) {
			return fmt.Errorf("two sampled generations from seed %d differ", seed)
		}
		// The script must replay: every event fired, on the right branch.
		x := &recExec{proc: map[int]int{0: 0}}
		c.Execute(x)
		if x.err != nil {
			return x.err
		}
		if x.fires != len(c.Events) {
			return fmt.Errorf("executed %d fires for %d events", x.fires, len(c.Events))
		}
		return nil
	})
}

// recExec records what Execute feeds it and cross-checks the generator's
// per-event process assignment against its own transfer bookkeeping.
type recExec struct {
	proc  map[int]int // branch → current process
	fires int
	err   error
}

func (x *recExec) Fire(branch int, ev *Event) {
	x.fires++
	if x.proc[branch] != ev.Proc && x.err == nil {
		x.err = fmt.Errorf("event %d generated for proc %d but branch %d is in proc %d",
			ev.ID, ev.Proc, branch, x.proc[branch])
	}
}
func (x *recExec) Split(branch, child int) { x.proc[child] = x.proc[branch] }
func (x *recExec) Join(dst, src int)       { delete(x.proc, src) }
func (x *recExec) Transfer(branch, p int)  { x.proc[branch] = p }
func (x *recExec) Delay(d time.Duration)   {}

func TestExecuteMirrorsGeneratorBookkeeping(t *testing.T) {
	randtest.Check(t, 200, 9000, func(seed int64) error {
		c := Generate(seed)
		x := &recExec{proc: map[int]int{0: 0}}
		c.Execute(x)
		if x.err != nil {
			return x.err
		}
		if x.fires != len(c.Events) {
			return fmt.Errorf("executed %d fires for %d events", x.fires, len(c.Events))
		}
		return nil
	})
}

func TestHappenedBeforeOnLinearTraces(t *testing.T) {
	// On a linear trace every earlier event causally precedes every
	// later one — the happened-before sets must be exactly the prefixes.
	randtest.Check(t, 100, 10000, func(seed int64) error {
		c := Generate(seed)
		if !c.Linear {
			return nil
		}
		hb := c.HappenedBefore()
		for i, set := range hb {
			if len(set) != i {
				return fmt.Errorf("linear trace: event %d has %d predecessors, want %d", i, len(set), i)
			}
			for j := 0; j < i; j++ {
				if !set[j] {
					return fmt.Errorf("linear trace: event %d missing predecessor %d", i, j)
				}
			}
		}
		return nil
	})
}

func TestHappenedBeforeExcludesConcurrentBranches(t *testing.T) {
	// Hand-built script: split, fire on both branches, join, fire after.
	c := &Case{
		TPs:       []TP{{Name: "Gen.Tp0", Fields: signatures[1]}},
		NumProcs:  1,
		Hosts:     []string{"h0"},
		ProcNames: []string{"p0"},
		Events: []Event{
			{ID: 0, TP: 0}, {ID: 1, TP: 0}, {ID: 2, TP: 0}, {ID: 3, TP: 0},
		},
		Ops: []Op{
			{Kind: OpFire, Branch: 0, Event: 0},
			{Kind: OpSplit, Branch: 0},
			{Kind: OpFire, Branch: 0, Event: 1}, // left branch
			{Kind: OpFire, Branch: 1, Event: 2}, // right branch, concurrent with 1
			{Kind: OpJoin, Branch: 0, Other: 1},
			{Kind: OpFire, Branch: 0, Event: 3}, // after the join: sees all
		},
	}
	hb := c.HappenedBefore()
	if !hb[1][0] || !hb[2][0] {
		t.Fatalf("both branches must inherit the pre-split event: %v", hb)
	}
	if hb[1][2] || hb[2][1] {
		t.Fatalf("concurrent branch events must not order: %v", hb)
	}
	for j := 0; j < 3; j++ {
		if !hb[3][j] {
			t.Fatalf("post-join event must see event %d: %v", j, hb)
		}
	}
}

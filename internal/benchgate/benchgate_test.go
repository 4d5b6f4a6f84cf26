package benchgate

import (
	"path/filepath"
	"strings"
	"testing"
)

const sampleOutput = `goos: linux
goarch: amd64
pkg: repro
cpu: Intel(R) Xeon(R) Processor @ 2.70GHz
BenchmarkHereParallel/sharded         	 1511832	       229.5 ns/op	       0 B/op	       0 allocs/op
BenchmarkHereParallel/sharded-8       	 1492728	       252.5 ns/op	       0 B/op	       0 allocs/op
BenchmarkHereParallel/sharded         	 1500000	       224.1 ns/op	       0 B/op	       0 allocs/op
BenchmarkHereParallel/sharded-8       	 1400000	       242.5 ns/op	       0 B/op	       0 allocs/op
BenchmarkReportBatch/batched-8        	    1082	    363129 ns/op	         1.000 frames/flush	  107548 B/op	     984 allocs/op
BenchmarkReportBatch/batched-8        	    1100	    360100 ns/op	         1.000 frames/flush	  107000 B/op	     980 allocs/op
PASS
ok  	repro	4.349s
`

func TestParseSummarizesBestOf(t *testing.T) {
	b, err := Parse(strings.NewReader(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	if len(b) != 3 {
		t.Fatalf("parsed %d benchmarks, want 3: %v", len(b), b)
	}
	if got := b["BenchmarkHereParallel/sharded-8"]; got.AllocsPerOp != 0 {
		t.Errorf("sharded-8 = %+v, want 0 allocs/op", got)
	}
	if batch := b["BenchmarkReportBatch/batched-8"]; batch.AllocsPerOp != 980 {
		t.Errorf("batched-8 = %+v, want 980 allocs/op (min of repeats; "+
			"the extra frames/flush metric must not break parsing)", batch)
	}
}

func TestParseIgnoresNonResultLines(t *testing.T) {
	b, err := Parse(strings.NewReader("goos: linux\nBenchmarkBroken\nok repro 1s\nFAIL\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(b) != 0 {
		t.Fatalf("parsed %d benchmarks from junk, want 0: %v", len(b), b)
	}
}

func TestCompareGatesAnyAllocRegression(t *testing.T) {
	base := Baseline{"BenchmarkX": {AllocsPerOp: 0}}
	cur := Baseline{"BenchmarkX": {AllocsPerOp: 1}}
	regs, _, _ := Compare(base, cur)
	if len(regs) != 1 {
		t.Fatalf("0 -> 1 allocs/op not flagged: %v", regs)
	}
	if !strings.Contains(regs[0].String(), "allocs/op regressed 0 -> 1") {
		t.Errorf("regression message %q does not name the alloc counts", regs[0])
	}
	// Improvements never flag.
	better := Baseline{"BenchmarkX": {AllocsPerOp: 0}}
	if regs, _, _ := Compare(Baseline{"BenchmarkX": {AllocsPerOp: 3}}, better); len(regs) != 0 {
		t.Errorf("improvement flagged as regression: %v", regs)
	}
}

// Above allocSlackFloor the gate tolerates 1% jitter (GC emptying a
// sync.Pool mid-run on amortized pipeline benchmarks) but still catches
// real growth; at or below the floor any increase fails.
func TestCompareAllocSlackAboveFloor(t *testing.T) {
	base := Baseline{"BenchmarkFlush": {AllocsPerOp: 1000}}
	jitter := Baseline{"BenchmarkFlush": {AllocsPerOp: 1005}}
	if regs, _, _ := Compare(base, jitter); len(regs) != 0 {
		t.Errorf("1000 -> 1005 allocs/op (GC pool jitter) flagged: %v", regs)
	}
	growth := Baseline{"BenchmarkFlush": {AllocsPerOp: 1011}}
	if regs, _, _ := Compare(base, growth); len(regs) != 1 {
		t.Errorf("1000 -> 1011 allocs/op (>1%%) not flagged: %v", regs)
	}
	atFloor := Baseline{"BenchmarkHot": {AllocsPerOp: allocSlackFloor}}
	bump := Baseline{"BenchmarkHot": {AllocsPerOp: allocSlackFloor + 1}}
	if regs, _, _ := Compare(atFloor, bump); len(regs) != 1 {
		t.Errorf("+1 alloc at the exactness floor not flagged: %v", regs)
	}
}

func TestCompareReportsMissingAndExtra(t *testing.T) {
	base := Baseline{"BenchmarkGone": {AllocsPerOp: 1}}
	cur := Baseline{"BenchmarkNew": {AllocsPerOp: 1}}
	_, missing, extra := Compare(base, cur)
	if len(missing) != 1 || missing[0] != "BenchmarkGone" {
		t.Errorf("missing = %v, want [BenchmarkGone]: a deleted benchmark must not silently pass", missing)
	}
	if len(extra) != 1 || extra[0] != "BenchmarkNew" {
		t.Errorf("extra = %v, want [BenchmarkNew]", extra)
	}
}

func TestBaselineRoundtrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_5.json")
	want := Baseline{
		"BenchmarkHereParallel/sharded-8": {AllocsPerOp: 0},
		"BenchmarkReportBatch/batched":    {AllocsPerOp: 978},
	}
	if err := Write(path, want); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("roundtrip lost entries: %v", got)
	}
	for k, w := range want {
		if got[k] != w {
			t.Errorf("roundtrip %s = %+v, want %+v", k, got[k], w)
		}
	}
}

func TestLoadMissingBaselineIsNil(t *testing.T) {
	b, err := Load(filepath.Join(t.TempDir(), "absent.json"))
	if err != nil || b != nil {
		t.Fatalf("Load(absent) = %v, %v; want nil, nil (seed mode)", b, err)
	}
}

// Command benchgate runs the repo's key hot-path benchmarks and gates
// their allocation counts against a committed baseline (BENCH_5.json,
// named for the paper's Table 5 overhead study).
//
// The gate runs each benchmark at a pinned -cpu list and compares
// allocs/op against the baseline: it may not regress at all, because
// steady-state allocation counts are deterministic and every new one is a
// hot-path bug. Timings are not gated — they swing with the machine — and
// live in the bench/ ledger.
//
// Usage:
//
//	benchgate                     gate against BENCH_5.json (seeds it if absent)
//	benchgate -write              re-record the baseline after an intentional change
//	benchgate -parallel <regex>   RunParallel benchmarks, swept across -cpu
//	benchgate -serial <regex>     sequential benchmarks, pinned to -cpu 1
//	benchgate -cpu 1,4,8          GOMAXPROCS points for the -parallel set
//
// Keys (benchmark name plus -cpu suffix) and allocation counts are
// machine-independent, so the baseline survives hardware moves.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"strings"

	"repro/internal/benchgate"
)

func main() {
	var (
		baseline = flag.String("baseline", "BENCH_5.json", "baseline file to gate against")
		write    = flag.Bool("write", false, "re-record the baseline instead of gating")
		parallel = flag.String("parallel", "HereParallel",
			"RunParallel benchmarks, swept across the -cpu list")
		serial = flag.String("serial", "ReportBatch|AgentFlush|CombinerFlush|WideReport|RowsWide|DecodeWideReport|ServerRelay|Tracepoint$|TracepointTelemetry|HereWithSpans|HereSampled|HBRequest|Fig10Pack|Fig10Serialize|Fig10Unpack|Fig10Deserialize|BaggageLazyForwarding|PartialAggregation|NetsimEventQueue|SimRPC|SimHandoff|SimTimers",
			"sequential benchmarks, run at -cpu 1 only; none whose allocs/op amortizes set-up over b.N")
		cpu       = flag.String("cpu", "1,4,8", "go test -cpu list for the -parallel set")
		count     = flag.Int("count", 2, "runs per benchmark; the gate keeps the lowest allocs/op")
		benchtime = flag.String("benchtime", "0.5s", "go test -benchtime per run")
		pkg       = flag.String("pkg", ".", "package holding the benchmarks")
	)
	flag.Parse()

	current := benchgate.Baseline{}
	for _, set := range []struct{ bench, cpu string }{
		{*parallel, *cpu},
		{*serial, "1"},
	} {
		if set.bench == "" {
			continue
		}
		args := []string{"test", "-run", "^$", "-bench", set.bench, "-benchmem",
			"-cpu", set.cpu, "-count", fmt.Sprint(*count), "-benchtime", *benchtime, *pkg}
		fmt.Fprintf(os.Stderr, "benchgate: go %s\n", strings.Join(args, " "))
		cmd := exec.Command("go", args...)
		var out bytes.Buffer
		cmd.Stdout = &out
		cmd.Stderr = os.Stderr
		if err := cmd.Run(); err != nil {
			os.Stdout.Write(out.Bytes())
			fatalf("benchmark run failed: %v", err)
		}
		parsed, err := benchgate.Parse(&out)
		if err != nil {
			fatalf("parse benchmark output: %v", err)
		}
		if len(parsed) == 0 {
			fatalf("no benchmark results matched -bench %q", set.bench)
		}
		for k, v := range parsed {
			current[k] = v
		}
	}

	base, err := benchgate.Load(*baseline)
	if err != nil {
		fatalf("%v", err)
	}
	if *write || base == nil {
		if err := benchgate.Write(*baseline, current); err != nil {
			fatalf("write baseline: %v", err)
		}
		verb := "re-recorded"
		if base == nil {
			verb = "seeded"
		}
		fmt.Printf("benchgate: %s %s with %d benchmarks (commit it to arm the gate)\n",
			verb, *baseline, len(current))
		return
	}

	regs, missing, extra := benchgate.Compare(base, current)
	for _, name := range extra {
		fmt.Printf("benchgate: note: %s not in baseline (run with -write to record it)\n", name)
	}
	failed := false
	for _, name := range missing {
		fmt.Printf("benchgate: FAIL %s: in baseline but produced no result (deleted or renamed?)\n", name)
		failed = true
	}
	for _, r := range regs {
		fmt.Printf("benchgate: FAIL %s\n", r)
		failed = true
	}
	if failed {
		os.Exit(1)
	}
	fmt.Printf("benchgate: ok — %d benchmarks, no allocs/op regressions against %s\n",
		len(base), *baseline)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchgate: "+format+"\n", args...)
	os.Exit(1)
}

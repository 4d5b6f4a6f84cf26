// Command ptbench runs the scenario mega-harness: pre-built failure
// scenarios (limplock disks, hot regions, straggler reducers, cascading
// failovers, ...) on thousand-host simulated topologies, with every
// checkpoint asserted through real Pivot Tracing queries. With -paper it
// instead regenerates the paper's simulated evaluation — Fig 1, 3, 6, 8
// and 9, the §6.2 replications and Table 5 — on the paper's eight-host
// testbed.
//
// Usage:
//
//	go run ./cmd/ptbench -all                # full library, 1024-host topologies
//	go run ./cmd/ptbench -run limplock -v    # one scenario, verbose
//	go run ./cmd/ptbench -all -short -seed 7 # reduced CI sizing
//	go run ./cmd/ptbench -all -json out.json # deterministic JSON report
//	go run ./cmd/ptbench -all -profile prof  # prof/cpu.pprof, prof/allocs.pprof
//	go run ./cmd/ptbench -paper              # every figure and table
//	go run ./cmd/ptbench -paper -short -run fig8-buggy,fig8-fixed
//
// The JSON report is byte-identical across runs with the same seed,
// scenario set, and host count, profiled or not; exit status is nonzero if
// any checkpoint fails. The paper's figures print to stdout, the same
// bytes on every run at either sizing; each step's wall time goes to
// stderr.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/scenario"
)

func main() {
	var (
		all      = flag.Bool("all", false, "run the full scenario library")
		paper    = flag.Bool("paper", false, "print the paper's figures and tables instead (-run picks steps)")
		run      = flag.String("run", "", "comma-separated scenario (or, with -paper, step) IDs to run")
		list     = flag.Bool("list", false, "list scenarios and paper steps and exit")
		seed     = flag.Int64("seed", 1, "seed for all scenario randomness")
		hosts    = flag.Int("hosts", 0, "override topology host count (0 = per-scenario default)")
		short    = flag.Bool("short", false, "reduced sizing (CI / -race subsets)")
		jsonPath = flag.String("json", "", "write the deterministic JSON report to this file (- for stdout)")
		verbose  = flag.Bool("v", false, "per-checkpoint progress on stderr")
		profile  = flag.String("profile", "", "write cpu.pprof and allocs.pprof for the run into this directory")
	)
	flag.Parse()

	if *list {
		for _, s := range scenario.All() {
			fmt.Printf("%-12s %5d hosts  %s\n", s.ID, scenario.DefaultHosts, s.Description)
		}
		for _, s := range experiments.Paper() {
			fmt.Printf("%-12s %-11s  %s\n", s.ID, "paper step", s.Name)
		}
		return
	}
	if *paper {
		if err := runPaper(*run, *short); err != nil {
			fmt.Fprintf(os.Stderr, "ptbench: %v\n", err)
			os.Exit(1)
		}
		return
	}

	var set []*scenario.Scenario
	switch {
	case *all:
		set = scenario.All()
	case *run != "":
		for _, id := range strings.Split(*run, ",") {
			id = strings.TrimSpace(id)
			s := scenario.ByID(id)
			if s == nil {
				fmt.Fprintf(os.Stderr, "ptbench: unknown scenario %q (try -list)\n", id)
				os.Exit(2)
			}
			set = append(set, s)
		}
	default:
		fmt.Fprintln(os.Stderr, "ptbench: pass -all, -run <ids>, -paper, or -list")
		os.Exit(2)
	}

	h := &scenario.Harness{Seed: *seed, Hosts: *hosts, Short: *short}
	if *verbose {
		h.Log = os.Stderr
	}
	stopProfile, err := startProfile(*profile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ptbench: %v\n", err)
		os.Exit(1)
	}
	results := h.RunAll(set)
	if err := stopProfile(); err != nil {
		fmt.Fprintf(os.Stderr, "ptbench: %v\n", err)
		os.Exit(1)
	}
	rep := scenario.NewReport(*seed, *short, results)
	rep.Console(os.Stdout)

	if *jsonPath != "" {
		out, err := rep.JSON()
		if err != nil {
			fmt.Fprintf(os.Stderr, "ptbench: %v\n", err)
			os.Exit(1)
		}
		if *jsonPath == "-" {
			os.Stdout.Write(out)
		} else if err := os.WriteFile(*jsonPath, out, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "ptbench: %v\n", err)
			os.Exit(1)
		}
	}

	if !rep.Passed {
		ids := make([]string, 0, len(results))
		for _, res := range results {
			if !res.Passed {
				ids = append(ids, res.ID)
			}
		}
		fmt.Fprintf(os.Stderr, "ptbench: FAILED %s\nreplay: go run ./cmd/ptbench -run %s -seed %d%s\n",
			strings.Join(ids, ","), strings.Join(ids, ","), *seed, shortFlag(*short))
		os.Exit(1)
	}
}

// runPaper prints the paper's figures and tables, or just the steps whose
// IDs are listed in ids, to stdout in report order.
func runPaper(ids string, short bool) error {
	steps := experiments.Paper()
	if ids != "" {
		var picked []experiments.Step
		for _, id := range strings.Split(ids, ",") {
			id = strings.TrimSpace(id)
			i := slices.IndexFunc(steps, func(s experiments.Step) bool { return s.ID == id })
			if i < 0 {
				return fmt.Errorf("unknown paper step %q (try -list)", id)
			}
			picked = append(picked, steps[i])
		}
		steps = picked
	}
	for _, s := range steps {
		start := time.Now()
		fig, err := s.Run(short)
		if err != nil {
			return fmt.Errorf("%s: %w", s.Name, err)
		}
		fmt.Println(fig.Render())
		fmt.Fprintf(os.Stderr, "[%s completed in %v]\n", s.Name, time.Since(start).Round(time.Millisecond))
	}
	return nil
}

// startProfile starts a CPU profile into dir/cpu.pprof; the function it
// returns stops it and writes the allocation profile of everything since
// process start to dir/allocs.pprof. An empty dir profiles nothing.
func startProfile(dir string) (stop func() error, err error) {
	if dir == "" {
		return func() error { return nil }, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	cpu, err := os.Create(filepath.Join(dir, "cpu.pprof"))
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(cpu); err != nil {
		cpu.Close()
		return nil, err
	}
	return func() error {
		pprof.StopCPUProfile()
		if err := cpu.Close(); err != nil {
			return err
		}
		allocs, err := os.Create(filepath.Join(dir, "allocs.pprof"))
		if err != nil {
			return err
		}
		runtime.GC() // the profile is as of the last completed collection
		if err := pprof.Lookup("allocs").WriteTo(allocs, 0); err != nil {
			allocs.Close()
			return err
		}
		return allocs.Close()
	}, nil
}

func shortFlag(short bool) string {
	if short {
		return " -short"
	}
	return ""
}

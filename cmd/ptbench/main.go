// Command ptbench runs the scenario mega-harness: pre-built failure
// scenarios (limplock disks, hot regions, straggler reducers, cascading
// failovers, ...) on thousand-host simulated topologies, with every
// checkpoint asserted through real Pivot Tracing queries.
//
// Usage:
//
//	go run ./cmd/ptbench -all                # full library, 1024-host topologies
//	go run ./cmd/ptbench -run limplock -v    # one scenario, verbose
//	go run ./cmd/ptbench -all -short -seed 7 # reduced CI sizing
//	go run ./cmd/ptbench -all -json out.json # deterministic JSON report
//	go run ./cmd/ptbench -all -profile prof  # prof/cpu.pprof, prof/allocs.pprof
//
// The JSON report is byte-identical across runs with the same seed,
// scenario set, and host count, profiled or not; exit status is nonzero if
// any checkpoint fails.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"

	"repro/internal/scenario"
)

func main() {
	var (
		all      = flag.Bool("all", false, "run the full scenario library")
		run      = flag.String("run", "", "comma-separated scenario IDs to run")
		list     = flag.Bool("list", false, "list scenarios and exit")
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
		fmt.Fprintln(os.Stderr, "ptbench: pass -all, -run <ids>, or -list")
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

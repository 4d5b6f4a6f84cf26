// Command experiments regenerates the paper's evaluation — every figure
// and table DESIGN.md indexes — and prints the results, optionally writing
// them to a file for EXPERIMENTS.md.
//
//	experiments                        everything, at the paper's sizing
//	experiments -quick                 everything, scaled down
//	experiments -only "Fig 1"          one step: the §2.1 motivating experiment
//	experiments -only "Fig 8 (fixed)"  HDFS-6268 after both fixes
//	experiments -only "§6.2 rogue GC"  (an unknown name lists the steps)
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
	"time"

	"repro/internal/experiments"
)

func main() {
	out := flag.String("out", "", "also write the report to this file")
	quick := flag.Bool("quick", false, "scaled-down configurations (faster)")
	only := flag.String("only", "", "run just the step with this name, e.g. \"Fig 8 (fixed)\"")
	flag.Parse()

	var w io.Writer = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		defer f.Close()
		w = io.MultiWriter(os.Stdout, f)
	}

	type step struct {
		name string
		run  func() (interface{ Render() string }, error)
	}
	steps := []step{
		{"Fig 3", func() (interface{ Render() string }, error) { return experiments.RunFig3() }},
		{"Fig 1", func() (interface{ Render() string }, error) {
			cfg := experiments.DefaultFig1Config()
			if *quick {
				cfg.Hosts, cfg.Duration = 4, 20*time.Second
				cfg.Sort10g, cfg.Sort100g = 1e9, 2e9
			}
			return experiments.RunFig1(cfg)
		}},
		{"Fig 6 / tuple traffic", func() (interface{ Render() string }, error) {
			cfg := experiments.DefaultTrafficConfig()
			if *quick {
				cfg.Hosts, cfg.OpsPerReader = 4, 150
			}
			return experiments.RunTraffic(cfg)
		}},
		{"Fig 8 (buggy)", func() (interface{ Render() string }, error) {
			cfg := experiments.DefaultFig8Config()
			if *quick {
				cfg.Hosts, cfg.Duration, cfg.Files = 4, 10*time.Second, 100
			}
			return experiments.RunFig8(cfg)
		}},
		{"Fig 8 (fixed)", func() (interface{ Render() string }, error) {
			cfg := experiments.DefaultFig8Config()
			cfg.Fixed = true
			if *quick {
				cfg.Hosts, cfg.Duration, cfg.Files = 4, 10*time.Second, 100
			}
			return experiments.RunFig8(cfg)
		}},
		{"Fig 9", func() (interface{ Render() string }, error) {
			cfg := experiments.DefaultFig9Config()
			if *quick {
				cfg.Hosts, cfg.Duration, cfg.FaultAt = 4, 30*time.Second, 10*time.Second
			}
			return experiments.RunFig9(cfg)
		}},
		{"§6.2 rogue GC", func() (interface{ Render() string }, error) {
			cfg := experiments.DefaultGCConfig()
			if *quick {
				cfg.Hosts, cfg.Duration = 4, 15*time.Second
			}
			return experiments.RunGC(cfg)
		}},
		{"§6.2 NameNode locking", func() (interface{ Render() string }, error) {
			cfg := experiments.DefaultNNLockConfig()
			if *quick {
				cfg.Duration = 5 * time.Second
			}
			return experiments.RunNNLock(cfg)
		}},
		{"Table 5", func() (interface{ Render() string }, error) {
			cfg := experiments.DefaultTable5Config()
			if *quick {
				cfg.Hosts, cfg.Duration = 4, 8*time.Second
			}
			return experiments.RunTable5(cfg)
		}},
	}

	if *only != "" {
		i := slices.IndexFunc(steps, func(s step) bool { return s.name == *only })
		if i < 0 {
			names := make([]string, len(steps))
			for j, s := range steps {
				names[j] = s.name
			}
			fmt.Fprintf(os.Stderr, "experiments: no step %q; steps: %s\n", *only, strings.Join(names, ", "))
			os.Exit(2)
		}
		steps = steps[i : i+1]
	}
	for _, s := range steps {
		start := time.Now()
		res, err := s.run()
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %s: %v\n", s.name, err)
			os.Exit(1)
		}
		fmt.Fprintln(w, res.Render())
		// Wall time goes to stderr, so the report itself is the same bytes
		// on every run.
		fmt.Fprintf(os.Stderr, "[%s completed in %v]\n", s.name, time.Since(start).Round(time.Millisecond))
	}
}

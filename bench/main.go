// Command bench is the repo's benchmark: four seed-generated workloads —
// three through a real bus.Serve + ConnectFrontend + ConnectBusWith
// deployment on loopback TCP, one through the simulator's scenario
// harness — measured end to end (untraced) and layer by layer (traced),
// with every result checked against a reference the generator computes.
// See README.md for the metric and workload definitions.
//
// The driver's form (one run, result as the last line of stdout):
//
//	bash bench/run.sh --workload hb-crossings --seed 1 --seconds 10 --trace 0
//
// By hand:
//
//	go run -C bench . -all -seed 1           # every workload, both passes
//	go run -C bench . -all -repeat 3         # run-to-run spread against the bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name     = fs.String("workload", "", "run one workload: "+fmt.Sprint(workloadNames))
		all      = fs.Bool("all", false, "run every workload, untraced then traced")
		seed     = fs.Int64("seed", 1, "seed for every generated input")
		seconds  = fs.Float64("seconds", 10, "how long each pass measures")
		traced   = fs.Int("trace", 0, "with -workload: 0 = end-to-end metrics, 1 = traced pass and per-layer metrics")
		scale    = fs.Float64("scale", 1, "scale every workload's segment size (tests use 1/200)")
		repeat   = fs.Int("repeat", 0, "with -all: run the set this many times and check each end-to-end metric's spread against its bound")
		jsonPath = fs.String("json", "", "also write the results as JSON to this file")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg := config{seed: *seed, seconds: *seconds, scale: *scale, setups: 15, outDir: "out"}

	switch {
	case *name != "" && !*all:
		cfg.traced = *traced != 0
		res, err := measure(*name, cfg, stdout)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		printMetrics(stdout, res)
		if err := writeJSON(*jsonPath, res); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		line, _ := json.Marshal(res) // a result holds only numbers, strings and bools
		fmt.Fprintln(stdout, string(line))
		if !res.Correct {
			fmt.Fprintf(stderr, "bench: %s seed %d: %d of %d failed\n", *name, *seed, res.Failed, res.Attempted)
			return 1
		}
		return 0
	case *all && *repeat > 0:
		return runRepeat(cfg, *repeat, *jsonPath, stdout, stderr)
	case *all:
		set, ok := runAll(cfg, stdout, stderr)
		if err := writeJSON(*jsonPath, set); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		if !ok {
			return 1
		}
		return 0
	}
	fmt.Fprintln(stderr, "bench: pass -workload <name> or -all")
	fs.Usage()
	return 2
}

// passes is one workload's two results.
type passes struct {
	EndToEnd *result `json:"end_to_end"`
	PerLayer *result `json:"per_layer"`
}

// runAll runs every workload untraced, then traced, printing every metric
// by name. ok is false if any run failed or was incorrect.
func runAll(cfg config, stdout, stderr io.Writer) (map[string]passes, bool) {
	set := map[string]passes{}
	ok := true
	for _, name := range workloadNames {
		var p passes
		for _, traced := range []bool{false, true} {
			c := cfg
			c.traced = traced
			res, err := measure(name, c, stdout)
			if err != nil {
				fmt.Fprintln(stderr, "bench:", err)
				return set, false
			}
			printMetrics(stdout, res)
			if !res.Correct {
				fmt.Fprintf(stderr, "bench: %s seed %d: %d of %d failed\n", name, cfg.seed, res.Failed, res.Attempted)
				ok = false
			}
			if traced {
				p.PerLayer = res
			} else {
				p.EndToEnd = res
			}
		}
		set[name] = p
	}
	return set, ok
}

// runRepeat runs the full set k times and, per workload and end-to-end
// metric, prints the spread (max-min)/median of the k values against the
// metric's bound in BENCHMARK.json. It fails if any spread exceeds its
// bound.
func runRepeat(cfg config, k int, jsonPath string, stdout, stderr io.Writer) int {
	bounds, err := readBounds("../BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	values := map[string]map[string][]float64{} // workload -> metric -> one value per repeat
	var sets []map[string]passes
	for i := 0; i < k; i++ {
		set, ok := runAll(cfg, stdout, stderr)
		if !ok {
			return 1
		}
		sets = append(sets, set)
		for name, p := range set {
			if values[name] == nil {
				values[name] = map[string][]float64{}
			}
			for metric, m := range p.EndToEnd.Metrics {
				values[name][metric] = append(values[name][metric], m.Value)
			}
		}
	}
	if err := writeJSON(jsonPath, sets); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	status := 0
	fmt.Fprintf(stdout, "\nspread over %d repeats, (max-min)/median, against each bound:\n", k)
	for _, name := range workloadNames {
		metrics := make([]string, 0, len(values[name]))
		for metric := range values[name] {
			metrics = append(metrics, metric)
		}
		sort.Strings(metrics)
		for _, metric := range metrics {
			s, verdict := spread(values[name][metric]), "ok"
			if s > bounds[metric] {
				verdict, status = "EXCEEDS", 1
			}
			fmt.Fprintf(stdout, "  %-14s %-26s median=%14.4f spread=%6.3f bound=%5.2f %s\n",
				name, metric, median(values[name][metric]), s, bounds[metric], verdict)
		}
	}
	return status
}

// readBounds returns each end-to-end metric's regression bound.
func readBounds(path string) (map[string]float64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read bounds: %w", err)
	}
	var spec struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	bounds := map[string]float64{}
	for _, m := range spec.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	return bounds, nil
}

// writeJSON writes v to path; an empty path writes nothing.
func writeJSON(path string, v any) error {
	if path == "" {
		return nil
	}
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return fmt.Errorf("encode results: %w", err)
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

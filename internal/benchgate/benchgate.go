// Package benchgate locks in the hot-path overhaul with an allocation
// regression gate. It parses `go test -bench -benchmem` output, keeps each
// benchmark's allocs/op, and compares a fresh run against a committed
// baseline (BENCH_5.json, named for the paper's Table 5 overhead study).
// Any allocation-count regression fails, because allocs/op is
// deterministic and every new steady-state allocation is a hot-path bug,
// not noise. Timings are not gated here: they swing with the machine, and
// live in the bench/ ledger with its bounds and spreads.
package benchgate

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

// Result is one benchmark's gated cost.
type Result struct {
	AllocsPerOp int64 `json:"allocs_per_op"`
}

// Baseline maps a full benchmark name (including the -cpu suffix, e.g.
// "BenchmarkHereParallel-8") to its recorded cost. The -cpu
// suffix is part of the key on purpose: the gate pins the cpu list, so
// keys are stable across machines even though the numbers are not.
type Baseline map[string]Result

// Parse reads `go test -bench -benchmem` output and summarizes repeated
// runs of the same benchmark by their minimum allocs/op (warm-up
// iterations can only inflate it).
func Parse(r io.Reader) (Baseline, error) {
	out := Baseline{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		name, res, ok := parseLine(sc.Text())
		if !ok {
			continue
		}
		if prev, seen := out[name]; seen && prev.AllocsPerOp < res.AllocsPerOp {
			continue
		}
		out[name] = res
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// parseLine decodes one result line of the form
//
//	BenchmarkName-8  	 1234567	   229.5 ns/op	   0 B/op	   0 allocs/op
//
// every metric but allocs/op is ignored. Lines that are not benchmark
// results with an allocation count report ok=false.
func parseLine(line string) (string, Result, bool) {
	if !strings.HasPrefix(line, "Benchmark") {
		return "", Result{}, false
	}
	fields := strings.Fields(line)
	if len(fields) < 4 {
		return "", Result{}, false
	}
	for i := 2; i+1 < len(fields); i++ {
		if fields[i+1] != "allocs/op" {
			continue
		}
		n, err := strconv.ParseInt(fields[i], 10, 64)
		if err != nil {
			return "", Result{}, false
		}
		return fields[0], Result{AllocsPerOp: n}, true
	}
	return "", Result{}, false
}

// Regression is one gate violation: a benchmark whose allocs/op rose.
type Regression struct {
	Name      string
	Base, Got int64
}

func (r Regression) String() string {
	return fmt.Sprintf("%s: allocs/op regressed %d -> %d (any increase fails: "+
		"a new steady-state allocation is a hot-path bug, not noise)",
		r.Name, r.Base, r.Got)
}

// allocSlackFloor separates the two allocation regimes. At or below it,
// allocs/op is fully deterministic (the paths the overhaul drove to zero)
// and any increase fails. Above it — amortized whole-pipeline benchmarks
// like a 64-query flush — a GC pass that empties a sync.Pool mid-run
// perturbs the count by a handful, so those get 1% slack instead of an
// exact match. 0 stays 0 either way.
const allocSlackFloor = 32

func allocCap(base int64) int64 {
	if base <= allocSlackFloor {
		return base
	}
	return base + base/100
}

// Compare gates current against base: allocs/op may not grow at all (see
// allocSlackFloor for the one carve-out on amortized pipelines).
// Benchmarks present in only one of the two sets are reported via
// missing/extra so a silently-deleted benchmark cannot pass the gate.
func Compare(base, current Baseline) (regs []Regression, missing, extra []string) {
	for name, b := range base {
		c, ok := current[name]
		if !ok {
			missing = append(missing, name)
			continue
		}
		if c.AllocsPerOp > allocCap(b.AllocsPerOp) {
			regs = append(regs, Regression{Name: name, Base: b.AllocsPerOp, Got: c.AllocsPerOp})
		}
	}
	for name := range current {
		if _, ok := base[name]; !ok {
			extra = append(extra, name)
		}
	}
	sort.Slice(regs, func(i, j int) bool { return regs[i].Name < regs[j].Name })
	sort.Strings(missing)
	sort.Strings(extra)
	return regs, missing, extra
}

// Load reads a baseline file. A missing file returns (nil, nil): the
// caller decides whether that seeds a new baseline or fails the gate.
func Load(path string) (Baseline, error) {
	buf, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var b Baseline
	if err := json.Unmarshal(buf, &b); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	return b, nil
}

// Write stores a baseline with stable key order so diffs stay reviewable.
func Write(path string, b Baseline) error {
	buf, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

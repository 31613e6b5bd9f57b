// Command bench is the repository's benchmark: five replayable workloads over
// the quantile-join engine and its server, five end-to-end metrics, and a
// traced pass that attributes them to layers. See README.md.
//
//	bench --workload NAME --seed N --seconds S --trace 0|1   one run (what BENCHMARK.json's command does)
//	bench all [-seed N] [-seconds S] [-trace] [-out FILE]     every workload, each in a process of its own
//	bench compare [-pairs] A.json B.json                     apply the bounds to two result files
//	bench spec                                               print BENCHMARK.json from the program's tables
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
)

func main() {
	args := os.Args[1:]
	var err error
	switch {
	case len(args) > 0 && args[0] == "all":
		err = allMain(args[1:])
	case len(args) > 0 && args[0] == "compare":
		err = compareMain(args[1:])
	case len(args) > 0 && args[0] == "spec":
		err = specMain()
	default:
		err = runMain(args)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// buildDir is where everything a run writes goes, under the directory the
// benchmark is started from.
const buildDir = ".bench_build"

// runMain is one run of one workload. The last line it prints is the run's
// result as one JSON object.
func runMain(args []string) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	cfg := config{scratch: filepath.Join(buildDir, "data")}
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "workload to run: exact_dense, exact_sharded, cold_compile, serve_light or serve_writes")
	fs.Int64Var(&cfg.seed, "seed", 1, "seed the inputs are generated from")
	fs.Float64Var(&cfg.seconds, "seconds", runSeconds, "length of the measured window")
	fs.IntVar(&trace, "trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from the traced pass")
	fs.BoolVar(&cfg.quick, "quick", false, "shrink every instance; for checking the harness, not for numbers")
	fs.StringVar(&cfg.traceOut, "trace-out", "", "where -trace 1 writes its spans (default .bench_build/bench-trace-WORKLOAD.json)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if cfg.seconds <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}
	cfg.trace = trace != 0
	if cfg.traceOut == "" {
		cfg.traceOut = filepath.Join(buildDir, "bench-trace-"+cfg.workload+".json")
	}
	res, err := run(cfg)
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// runSeconds is the measured window the driver asks for.
const runSeconds = 10

// specMain prints BENCHMARK.json from the program's own tables, so the file
// at the repository root is written once, here, and never by hand.
func specMain() error {
	type named struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound,omitempty"`
	}
	spec := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []named  `json:"workloads"`
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}{Command: []string{"bash", "bench/run.sh"}, Paths: []string{"bench"}, RunSeconds: runSeconds}
	for _, w := range workloads {
		spec.Workloads = append(spec.Workloads, named{w.name, w.why})
	}
	for _, m := range endToEnd {
		spec.EndToEnd = append(spec.EndToEnd, metric{m.name, m.unit, m.better, &m.bound})
	}
	for _, m := range perLayer {
		spec.PerLayer = append(spec.PerLayer, metric{Name: m.name, Unit: m.unit, Better: m.better})
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(spec)
}

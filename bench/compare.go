package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"text/tabwriter"
	"time"
)

// resultFile is what `bench all` writes: where the numbers came from, and
// every run of every workload.
type resultFile struct {
	Env       environment             `json:"env"`
	Workloads map[string]*workloadRun `json:"workloads"`
}

type environment struct {
	Seed       int64   `json:"seed"`
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS string  `json:"gomaxprocs"`
	CPUModel   string  `json:"cpu_model"`
	Seconds    float64 `json:"seconds"` // the measured window: the scale every run shares
}

// workloadRun holds the runs of one workload, in the order they were made.
type workloadRun struct {
	Runs   []runRecord      `json:"runs"`
	Layers map[string]value `json:"layers,omitempty"` // the traced pass, when asked for
}

type runRecord struct {
	Ops     int              `json:"ops"`
	Failed  int              `json:"failed"`
	WallS   float64          `json:"wall_s"` // the whole process: oracle, set-ups, window, checks
	Metrics map[string]value `json:"metrics"`
}

func currentEnv(seed int64, seconds float64) environment {
	env := environment{
		Seed: seed, Commit: "unknown", GoVersion: runtime.Version(),
		NumCPU: runtime.NumCPU(), Seconds: seconds,
	}
	env.GOMAXPROCS = "one per client:"
	for _, def := range workloads {
		env.GOMAXPROCS += fmt.Sprintf(" %s %d", def.name, min(def.clients, env.NumCPU))
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		env.Commit = strings.TrimSpace(string(out))
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if name, ok := strings.CutPrefix(line, "model name"); ok {
				env.CPUModel = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
	}
	return env
}

// child runs one workload in a process of its own, so heap, GC state and
// plan caches never leak from one workload into the next.
func child(self string, args ...string) (*result, float64, error) {
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	t0 := time.Now()
	out, err := cmd.Output()
	if err != nil {
		return nil, 0, fmt.Errorf("%s: %w", strings.Join(args, " "), err)
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return nil, 0, fmt.Errorf("%s: bad result line: %w", strings.Join(args, " "), err)
	}
	return &res, time.Since(t0).Seconds(), nil
}

// allMain runs every workload, checks every answer and prints every metric
// by name with its unit.
func allMain(args []string) error {
	fs := flag.NewFlagSet("bench all", flag.ContinueOnError)
	seed := fs.Int64("seed", 1, "seed the inputs are generated from")
	seconds := fs.Float64("seconds", 10, "length of each measured window")
	runs := fs.Int("runs", 1, "runs per workload (compare needs at least 5 to judge spread)")
	trace := fs.Bool("trace", false, "add the traced pass: per-layer metrics")
	quick := fs.Bool("quick", false, "shrink every instance; for checking the harness, not for numbers")
	out := fs.String("out", "", "write the result file here")
	appendTo := fs.Bool("append", false, "add the runs to the -out file if it exists (alternating pairs)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	file := &resultFile{Env: currentEnv(*seed, *seconds), Workloads: make(map[string]*workloadRun)}
	if *appendTo && *out != "" {
		if data, err := os.ReadFile(*out); err == nil {
			if err := json.Unmarshal(data, file); err != nil {
				return fmt.Errorf("%s: %w", *out, err)
			}
		}
	}
	common := []string{"--seed", fmt.Sprint(*seed), "--seconds", fmt.Sprint(*seconds)}
	if *quick {
		common = append(common, "--quick")
	}
	incorrect := 0
	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
	for _, def := range workloads {
		wr := file.Workloads[def.name]
		if wr == nil {
			wr = &workloadRun{}
			file.Workloads[def.name] = wr
		}
		for r := 0; r < *runs; r++ {
			res, wall, err := child(self, append([]string{"--workload", def.name, "--trace", "0"}, common...)...)
			if err != nil {
				return err
			}
			if !res.Correct {
				incorrect++
			}
			wr.Runs = append(wr.Runs, runRecord{Ops: res.Attempted, Failed: res.Failed, WallS: wall, Metrics: res.Metrics})
		}
		last := wr.Runs[len(wr.Runs)-1]
		fmt.Fprintf(tw, "%s\tfailed_frac\t%g\tratio\t(%d of %d ops)\n", def.name, float64(last.Failed)/float64(last.Ops), last.Failed, last.Ops)
		for _, m := range endToEnd {
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%s\t(median of %d)\n", def.name, m.name, median(wr.values(m.name)), m.unit, len(wr.Runs))
		}
		if *trace {
			res, _, err := child(self, append([]string{"--workload", def.name, "--trace", "1"}, common...)...)
			if err != nil {
				return err
			}
			if !res.Correct {
				incorrect++
			}
			wr.Layers = res.Metrics
			for _, m := range perLayer {
				fmt.Fprintf(tw, "%s\t%s\t%.6g\t%s\n", def.name, m.name, res.Metrics[m.name].Value, m.unit)
			}
		}
		tw.Flush()
	}
	if *out != "" {
		data, err := json.MarshalIndent(file, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*out, data, 0o644); err != nil {
			return err
		}
	}
	if incorrect > 0 {
		return fmt.Errorf("%d runs had failed ops", incorrect)
	}
	return nil
}

func (wr *workloadRun) values(metric string) []float64 {
	var out []float64
	for _, r := range wr.Runs {
		out = append(out, r.Metrics[metric].Value)
	}
	return out
}

// failedFrac is the share of attempted ops, over all runs, that failed.
func (wr *workloadRun) failedFrac() float64 {
	ops, failed := 0, 0
	for _, r := range wr.Runs {
		ops, failed = ops+r.Ops, failed+r.Failed
	}
	return float64(failed) / float64(max(ops, 1))
}

// worsening is how far b is worse than a, as a share of a: positive when the
// metric moved against its direction.
func worsening(m metricDef, a, b float64) float64 {
	if m.better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// verdict applies a metric's bound to the runs of two sides. Where either
// side's run-to-run spread is wider than the bound the pairing is
// unresolved, not unchanged (spread needs two runs; one run has none).
func verdict(m metricDef, a, b []float64) string {
	for _, side := range [][]float64{a, b} {
		if len(side) >= 2 && spread(side) > m.bound {
			return "unresolved"
		}
	}
	switch d := worsening(m, median(a), median(b)); {
	case d > m.bound:
		return "worse"
	case d < -m.bound:
		return "better"
	}
	return "same"
}

// minPairs is how many parent/change pairs a gain needs (guide, section 8).
const minPairs = 10

// pairsVerdict is the rule for claiming a gain from alternating pairs: the
// change wins at least nine tenths of the pairs, ties counting for neither,
// and the medians differ by more than the parent's own inter-quartile
// distance. Anything short of that is no gain; a loss by the same rule is
// worse.
func pairsVerdict(m metricDef, a, b []float64) string {
	n := min(len(a), len(b))
	wins, losses := 0, 0
	for i := 0; i < n; i++ {
		switch d := worsening(m, a[i], b[i]); {
		case d < 0:
			wins++
		case d > 0:
			losses++
		}
	}
	q1, q3 := quartiles(a[:n])
	apart := median(b[:n]) - median(a[:n])
	if apart < 0 {
		apart = -apart
	}
	switch {
	case apart <= q3-q1:
		return "same"
	case 10*wins >= 9*n:
		return "better"
	case 10*losses >= 9*n:
		return "worse"
	}
	return "same"
}

var errWorse = errors.New("at least one metric is worse")

// compareMain prints one row per (metric, workload) and fails on any worse.
func compareMain(args []string) error {
	fs := flag.NewFlagSet("bench compare", flag.ContinueOnError)
	pairs := fs.Bool("pairs", false, "judge by alternating pairs: run i of A against run i of B, at least 10")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return fmt.Errorf("usage: bench compare [-pairs] A.json B.json")
	}
	var files [2]resultFile
	for i := range files {
		data, err := os.ReadFile(fs.Arg(i))
		if err != nil {
			return err
		}
		if err := json.Unmarshal(data, &files[i]); err != nil {
			return fmt.Errorf("%s: %w", fs.Arg(i), err)
		}
	}
	worse := false
	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tA median\tB median\tworse by\tbound\tverdict")
	for _, def := range workloads {
		wa, wb := files[0].Workloads[def.name], files[1].Workloads[def.name]
		if wa == nil || wb == nil {
			return fmt.Errorf("workload %s is missing from one side", def.name)
		}
		// Failed ops have no bound: any increase is worse.
		fa, fb := wa.failedFrac(), wb.failedFrac()
		v := "same"
		if fb > fa {
			v, worse = "worse", true
		} else if fb < fa {
			v = "better"
		}
		fmt.Fprintf(tw, "%s\tfailed_frac\t%.6g\t%.6g\t\t0%%\t%s\n", def.name, fa, fb, v)
		for _, m := range endToEnd {
			a, b := wa.values(m.name), wb.values(m.name)
			if *pairs {
				if min(len(a), len(b)) < minPairs {
					return fmt.Errorf("%s: -pairs needs at least %d runs a side, have %d and %d", def.name, minPairs, len(a), len(b))
				}
				v = pairsVerdict(m, a, b)
			} else {
				v = verdict(m, a, b)
			}
			worse = worse || v == "worse"
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%+.1f%%\t%.0f%%\t%s\n", def.name, m.name,
				median(a), median(b), 100*worsening(m, median(a), median(b)), 100*m.bound, v)
		}
	}
	tw.Flush()
	if worse {
		return errWorse
	}
	return nil
}

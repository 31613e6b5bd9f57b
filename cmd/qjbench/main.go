// Command qjbench is the reproduction of the paper (PODS 2023), a theory
// paper: experiments E01–E12 each validate one of its figures or theorems
// empirically — scaling exponents for the quasilinear claims, measured index
// errors against ε for the approximation theorems, and head-to-head
// comparisons against the materialize-then-select baseline the introduction
// argues against. Tables print as markdown. Performance of the system itself
// (serving, updates, shards, snapshots, cyclic plans) is measured by the
// repository benchmark in bench/, not here.
//
// Usage:
//
//	qjbench -exp E03        # one experiment
//	qjbench -exp all        # everything (several minutes)
//	qjbench -exp all -quick # reduced sizes
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"
)

type experiment struct {
	id    string
	title string
	run   func(ctx *ctx)
}

type ctx struct {
	quick bool
}

var experiments = []experiment{
	{"E01", "Figure 1 & linear-time counting (Section 2.4)", runE01},
	{"E02", "Pivot selection: linear time and c-pivot quality (Lemma 4.1, Figure 2)", runE02},
	{"E03", "Exact MIN/MAX quantiles vs baseline (Theorem 5.3)", runE03},
	{"E04", "Exact LEX quantiles vs baseline (Section 5.2)", runE04},
	{"E05", "Exact partial-SUM quantiles on the 3-path (Theorem 5.6 positive side)", runE05},
	{"E06", "Exact full-SUM quantiles on the binary join (Example 3.4)", runE06},
	{"E07", "The dichotomy of Theorem 5.6 and the cost of the hard side", runE07},
	{"E08", "Deterministic ε-approximate SUM (Theorem 6.2, Lemma 6.1)", runE08},
	{"E09", "Randomized sampling approximation (Section 3.1)", runE09},
	{"E10", "Lossy trimming size and sketch guarantee (Lemma 6.1, Lemma 6.3, Figure 4)", runE10},
	{"E11", "Crossover vs output size |Q(D)| (the headline claim)", runE11},
	{"E12", "Ablations: ε-budget strategy and sketch value-grouping", runE12},
}

func main() {
	expFlag := flag.String("exp", "all", "experiment id (E01..E12) or 'all'")
	quick := flag.Bool("quick", false, "reduced sizes for fast runs")
	workers := flag.Int("workers", 0, "worker count pinned for all experiments (0 = GOMAXPROCS, 1 = sequential)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the selected experiments to this file")
	memProfile := flag.String("memprofile", "", "write an allocation profile (after the run) to this file")
	flag.Parse()
	benchWorkers = *workers
	c := &ctx{quick: *quick}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		// No os.Exit in this deferred writer: it runs before the CPU-profile
		// defers (LIFO), and exiting here would leave -cpuprofile truncated.
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // materialize the final heap state
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
			}
		}()
	}
	ran := false
	for _, e := range experiments {
		if *expFlag != "all" && !strings.EqualFold(*expFlag, e.id) {
			continue
		}
		ran = true
		fmt.Printf("\n## %s — %s\n\n", e.id, e.title)
		start := time.Now()
		e.run(c)
		fmt.Printf("\n(%s completed in %v)\n", e.id, time.Since(start).Round(time.Millisecond))
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *expFlag)
		os.Exit(1)
	}
}

// table prints a markdown table.
type table struct {
	header []string
	rows   [][]string
}

func (t *table) add(cells ...string) { t.rows = append(t.rows, cells) }

func (t *table) print() {
	fmt.Println("| " + strings.Join(t.header, " | ") + " |")
	seps := make([]string, len(t.header))
	for i := range seps {
		seps[i] = "---"
	}
	fmt.Println("| " + strings.Join(seps, " | ") + " |")
	for _, r := range t.rows {
		fmt.Println("| " + strings.Join(r, " | ") + " |")
	}
}

// fitExponent least-squares fits log(y) = a·log(x) + b and returns a.
func fitExponent(xs, ys []float64) float64 {
	var sx, sy, sxx, sxy float64
	n := float64(len(xs))
	for i := range xs {
		lx, ly := math.Log(xs[i]), math.Log(ys[i])
		sx += lx
		sy += ly
		sxx += lx * lx
		sxy += lx * ly
	}
	return (n*sxy - sx*sy) / (n*sxx - sx*sx)
}

func dur(d time.Duration) string {
	switch {
	case d < time.Millisecond:
		return fmt.Sprintf("%.0fµs", float64(d)/float64(time.Microsecond))
	case d < time.Second:
		return fmt.Sprintf("%.1fms", float64(d)/float64(time.Millisecond))
	default:
		return fmt.Sprintf("%.2fs", d.Seconds())
	}
}

// median of duration samples.
func medianDur(samples []time.Duration) time.Duration {
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	return samples[len(samples)/2]
}

// timeIt runs fn reps times and returns the median duration.
func timeIt(reps int, fn func()) time.Duration {
	samples := make([]time.Duration, 0, reps)
	for i := 0; i < reps; i++ {
		start := time.Now()
		fn()
		samples = append(samples, time.Since(start))
	}
	return medianDur(samples)
}

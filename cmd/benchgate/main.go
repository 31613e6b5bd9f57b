// Command benchgate enforces intra-run ratio bounds between Go benchmarks.
//
// It parses standard `go test -bench` output and checks each -scaling spec
// NUM:DEN:MAX (comma-separated): the minimum ns/op of benchmark NUM must not
// exceed MAX × the minimum ns/op of benchmark DEN. Both sides come from the
// same run, so the checks hold regardless of runner hardware — they compare
// a mechanism against the path it replaces (incremental update vs
// re-prepare, sketch vs exact, restore vs compile). With -count > 1 the
// minimum per benchmark is the point estimate, the least noise-sensitive one
// on shared runners.
//
// Usage:
//
//	go test -run '^$' -bench 'Sharded' -benchtime=3x -count=3 . | tee bench.txt
//	benchgate -in bench.txt \
//	  -scaling 'BenchmarkShardedUpdate/shards=4:BenchmarkShardedUpdate/unsharded:0.50'
//
// Absolute times are not gated here: the repository benchmark (bench/, with
// compare -pairs on one machine) carries every before/after claim.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"regexp"
	"strconv"
	"strings"
)

// benchLine matches `BenchmarkName-8   	 100	  1234 ns/op ...`.
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+(\d+)\s+([0-9.]+) ns/op`)

func main() {
	in := flag.String("in", "", "benchmark output file (default stdin)")
	scaling := flag.String("scaling", "", "scaling checks NUM:DEN:MAX, comma-separated — fail when min ns/op of benchmark NUM exceeds MAX × min ns/op of benchmark DEN in this run")
	flag.Parse()

	r := os.Stdin
	if *in != "" {
		f, err := os.Open(*in)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		r = f
	}
	mins, err := parse(bufio.NewScanner(r))
	if err != nil {
		fatal(err)
	}
	if len(mins) == 0 {
		fatal(fmt.Errorf("no benchmark lines found"))
	}
	if code := scalingGate(mins, *scaling); code != 0 {
		os.Exit(code)
	}
}

// scalingGate enforces intra-run ratio bounds: each comma-separated
// NUM:DEN:MAX spec fails when min(NUM) > MAX × min(DEN). A spec naming a
// benchmark absent from the run fails too: a crashed sweep must not gate
// green.
func scalingGate(mins map[string]float64, specs string) int {
	failed := 0
	for _, spec := range strings.Split(specs, ",") {
		parts := strings.Split(spec, ":")
		if len(parts) != 3 {
			fatal(fmt.Errorf("bad -scaling spec %q (want NUM:DEN:MAX)", spec))
		}
		max, err := strconv.ParseFloat(parts[2], 64)
		if err != nil || max <= 0 {
			fatal(fmt.Errorf("bad -scaling ratio in %q", spec))
		}
		num, okN := mins[parts[0]]
		den, okD := mins[parts[1]]
		if !okN || !okD || den == 0 {
			fmt.Printf("SCALING MISSING %s: benchmark(s) absent from this run\n", spec)
			failed++
			continue
		}
		ratio := num / den
		verdict := "ok"
		if ratio > max {
			verdict = "FAIL"
			failed++
		}
		fmt.Printf("SCALING %-4s %s / %s = %.2f (max %.2f)\n", verdict, parts[0], parts[1], ratio, max)
	}
	if failed > 0 {
		fmt.Printf("benchgate: %d scaling check(s) failed\n", failed)
		return 1
	}
	return 0
}

// parse returns the minimum ns/op per benchmark name over every sample line.
func parse(sc *bufio.Scanner) (map[string]float64, error) {
	mins := map[string]float64{}
	for sc.Scan() {
		line := sc.Text()
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		ns, err := strconv.ParseFloat(m[3], 64)
		if err != nil {
			return nil, fmt.Errorf("bad ns/op in %q: %w", line, err)
		}
		if cur, ok := mins[m[1]]; !ok || ns < cur {
			mins[m[1]] = ns
		}
	}
	return mins, sc.Err()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchgate:", err)
	os.Exit(1)
}

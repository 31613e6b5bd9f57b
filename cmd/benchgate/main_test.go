package main

import (
	"bufio"
	"strings"
	"testing"
)

const sample = `goos: linux
BenchmarkPreparedReuse/free-8         	       3	 174100000 ns/op
BenchmarkPreparedReuse/free-8         	       3	 180000000 ns/op
BenchmarkPreparedReuse/prepared-8     	       3	  26600000 ns/op
BenchmarkIncrementalUpdate/batch=1/update   	       5	    989214 ns/op	  123 B/op
PASS
ok  	github.com/quantilejoins/qjoin	1.0s
`

func parseSample(t *testing.T, s string) map[string]float64 {
	t.Helper()
	r, err := parse(bufio.NewScanner(strings.NewReader(s)))
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestParse(t *testing.T) {
	r := parseSample(t, sample)
	if len(r) != 3 {
		t.Fatalf("benchmarks = %d, want 3", len(r))
	}
	if got := r["BenchmarkPreparedReuse/free"]; got != 174100000 {
		t.Fatalf("free min = %v", got)
	}
	if got := r["BenchmarkIncrementalUpdate/batch=1/update"]; got != 989214 {
		t.Fatalf("update min = %v", got)
	}
}

func TestScalingGate(t *testing.T) {
	run := parseSample(t,
		"BenchmarkParallelQuantile/workers=1-4 5 100000 ns/op\n"+
			"BenchmarkParallelQuantile/workers=4-4 5 105000 ns/op\n")
	spec := "BenchmarkParallelQuantile/workers=4:BenchmarkParallelQuantile/workers=1:1.08"
	if code := scalingGate(run, spec); code != 0 {
		t.Fatalf("scaling gate failed a 5%% overhead under an 8%% bound (code %d)", code)
	}
	slow := parseSample(t,
		"BenchmarkParallelQuantile/workers=1-4 5 100000 ns/op\n"+
			"BenchmarkParallelQuantile/workers=4-4 5 120000 ns/op\n")
	if code := scalingGate(slow, spec); code != 1 {
		t.Fatalf("scaling gate passed a 20%% overhead (code %d)", code)
	}
	// A benchmark missing from the run (crashed sweep) must fail, not pass.
	partial := parseSample(t, "BenchmarkParallelQuantile/workers=1-4 5 100000 ns/op\n")
	if code := scalingGate(partial, spec); code != 1 {
		t.Fatalf("scaling gate passed with the numerator missing (code %d)", code)
	}
	// Multiple comma-separated specs: one failure fails the gate.
	two := spec + ",BenchmarkParallelQuantile/workers=1:BenchmarkParallelQuantile/workers=4:2.0"
	if code := scalingGate(slow, two); code != 1 {
		t.Fatalf("one failing spec of two must fail (code %d)", code)
	}
}

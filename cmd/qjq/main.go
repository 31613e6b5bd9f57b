// Command qjq answers quantile join queries over CSV relations.
//
// Usage:
//
//	qjq -query 'Orders(o,price),Shipments(o,cost)' \
//	    -rel Orders=orders.csv -rel Shipments=shipments.csv \
//	    -rank 'sum(price,cost)' -phi 0.25,0.5,0.75
//
// Flags select the ranking function (sum/min/max/lex over variables), one or
// more quantile fractions φ (comma-separated), an optional approximation ε,
// and diagnostics (-count, -classify, -baseline). CSV files hold integer
// columns matching the atom's arity.
//
// The query is compiled exactly once with qjoin.Prepare; every φ (and the
// optional baseline comparison) is answered against the shared plan, and an
// exact φ grid by one shared descent of the pivot loop, so asking for ten
// quantiles costs one preprocessing pass and one descent, not ten. Cyclic
// queries (a triangle, a clique) work automatically: Prepare routes them
// through a generalized hypertree decomposition and answers exactly; only
// a cyclic query wider than the decomposition cap is rejected.
//
// -shards N (N > 1) hash-partitions the data on a join key into N shard
// engines and answers through the merged global pivot
// loop (qjoin.PrepareSharded). Answers are byte-identical to the unsharded
// plan; -sample and -baseline are single-engine diagnostics and reject the
// flag.
//
// -update FILE applies a delta file to the compiled plan before answering —
// the incremental-maintenance path, not a recompile. Each non-empty line is
// +Rel,v1,v2,... (insert) or -Rel,v1,v2,... (delete): '#' starts a comment:
//
//	+Orders,17,250
//	-Shipments,17,99
//
// -save FILE writes the compiled plan (after any -update) as a versioned
// binary snapshot; with no -rank the command saves and exits. -load FILE
// restores a saved plan instead of reading CSVs and compiling — the
// second-scale cold-start path; -query/-rel/-shards are then taken from the
// snapshot and must not be given. Answers from a restored plan are
// byte-identical to the plan that was saved.
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"github.com/quantilejoins/qjoin"
	"github.com/quantilejoins/qjoin/internal/loadfmt"
)

type relFlags map[string]string

func (r relFlags) String() string { return fmt.Sprint(map[string]string(r)) }
func (r relFlags) Set(v string) error {
	parts := strings.SplitN(v, "=", 2)
	if len(parts) != 2 {
		return fmt.Errorf("expected NAME=FILE, got %q", v)
	}
	r[parts[0]] = parts[1]
	return nil
}

func main() {
	rels := relFlags{}
	queryStr := flag.String("query", "", "join query, e.g. 'R(x,y),S(y,z)'")
	rankStr := flag.String("rank", "", "ranking, e.g. 'sum(x,z)', 'min(y)', 'max(x,y)', 'lex(x,y)'")
	phiStr := flag.String("phi", "0.5", "quantile fraction(s) in [0,1], comma-separated (e.g. '0.25,0.5,0.75')")
	eps := flag.Float64("eps", 0, "approximation error (0 = exact)")
	modeStr := flag.String("mode", "", "answering tier: exact | approx | auto (empty = exact; approx answers from the sketch summary, auto serves the sketch only when it certifies -eps)")
	doCount := flag.Bool("count", false, "print |Q(D)| and exit")
	doClassify := flag.Bool("classify", false, "print the tractability classification and exit")
	doBaseline := flag.Bool("baseline", false, "also run the materialization baseline and compare")
	doSample := flag.Bool("sample", false, "use randomized sampling (requires -eps)")
	delta := flag.Float64("delta", 0.05, "failure probability for -sample")
	seed := flag.Int64("seed", time.Now().UnixNano(), "random seed for -sample")
	shards := flag.Int("shards", 0, "hash-partition the data into N shard engines (0 = single unsharded engine)")
	doStats := flag.Bool("stats", false, "print per-run statistics with a per-iteration phase-timing breakdown")
	updateFile := flag.String("update", "", "delta file (+Rel,v,... inserts / -Rel,v,... deletes) applied to the plan before answering")
	saveFile := flag.String("save", "", "write the compiled plan snapshot to FILE (with no -rank: save and exit)")
	loadFile := flag.String("load", "", "restore the compiled plan from a snapshot FILE instead of compiling from -rel CSVs")
	flag.Var(rels, "rel", "NAME=FILE CSV source for a relation (repeatable)")
	flag.Parse()

	var q *qjoin.Query
	db := qjoin.NewDB()
	if *loadFile != "" {
		// The snapshot carries the query, data and shard layout; source flags
		// would be silently ignored, so reject them loudly.
		if *queryStr != "" || len(rels) > 0 || *shards != 0 {
			fatal(fmt.Errorf("-load restores query, data and shards from the snapshot; -query/-rel/-shards must not be given"))
		}
	} else {
		var err error
		if q, err = qjoin.ParseQuery(*queryStr); err != nil {
			fatal(err)
		}
		for _, atom := range q.Atoms {
			file, ok := rels[atom.Rel]
			if !ok {
				fatal(fmt.Errorf("no -rel source for relation %s", atom.Rel))
			}
			rows, err := loadfmt.ReadCSVFile(file, len(atom.Vars))
			if err != nil {
				fatal(fmt.Errorf("%s: %w", file, err))
			}
			if err := db.Add(atom.Rel, len(atom.Vars), rows); err != nil {
				fatal(err)
			}
		}
	}

	phis, err := qjoin.ParsePhis(*phiStr)
	if err != nil {
		fatal(err)
	}
	// ε is validated here, at the boundary, through the same check the
	// qjserve HTTP layer uses — the engine itself never sees a bad value.
	if *eps != 0 {
		if err := qjoin.ValidateEpsilon(*eps); err != nil {
			fatal(err)
		}
	}
	// -mode goes through the same parse the qjserve HTTP layer uses, so a bad
	// value is rejected identically on both front ends.
	mode, err := qjoin.ParseMode(*modeStr)
	if err != nil {
		fatal(err)
	}

	if err := qjoin.ValidateShards(*shards); err != nil {
		fatal(err)
	}
	// Phase timings are collected only on request — they read the clock
	// inside the pivot loop.
	planOpts := qjoin.Options{CollectPhases: *doStats}
	// -shards > 1 compiles one engine per hash partition of the join key and
	// answers through the merged global pivot loop; answers are byte-identical
	// to the unsharded plan, so the knob is purely operational.
	compile := func(db *qjoin.DB) (*qjoin.Prepared, error) {
		if *loadFile != "" {
			return loadPlanFile(*loadFile, planOpts)
		}
		if *shards > 1 {
			return qjoin.PrepareSharded(q, db, *shards, planOpts)
		}
		return qjoin.Prepare(q, db, planOpts)
	}

	var upd *qjoin.Delta
	if *updateFile != "" {
		var err error
		if upd, err = loadfmt.ParseDeltaFile(*updateFile); err != nil {
			fatal(fmt.Errorf("%s: %w", *updateFile, err))
		}
	}

	if *doCount {
		p, err := compile(db)
		if err != nil {
			fatal(err)
		}
		if p, err = applyUpdate(p, upd, false); err != nil {
			fatal(err)
		}
		fmt.Println(p.Count())
		return
	}

	// -save with no ranking: compile (or -load), fold the update, persist,
	// done — the artifact another qjq -load (or qjserve) restores from.
	if *saveFile != "" && *rankStr == "" {
		p, err := compile(db)
		if err != nil {
			fatal(err)
		}
		if p, err = applyUpdate(p, upd, false); err != nil {
			fatal(err)
		}
		if err := savePlanFile(p, *saveFile); err != nil {
			fatal(err)
		}
		fmt.Printf("saved plan snapshot to %s\n", *saveFile)
		return
	}

	f, err := qjoin.ParseRanking(*rankStr)
	if err != nil {
		fatal(err)
	}
	// Classification is static analysis — it must work (and report) on
	// cyclic queries too, so it runs before any plan is compiled.
	if *doClassify {
		if q == nil {
			fatal(fmt.Errorf("-classify analyzes the query text; use -query, not -load"))
		}
		ok, why := qjoin.ClassifyRanking(q, f)
		fmt.Printf("tractable=%v: %s\n", ok, why)
		return
	}

	// -sample and -baseline are single-engine diagnostics: the library
	// rejects them on a routed plan (which is how a sharded -load is caught);
	// with -shards the rejection is known before compiling.
	if (*doSample || *doBaseline) && *shards > 1 {
		fatal(fmt.Errorf("-sample and -baseline are not supported with -shards > 1"))
	}
	if *doSample {
		if *modeStr != "" {
			fatal(fmt.Errorf("-sample and -mode are mutually exclusive"))
		}
		if err := qjoin.ValidateDelta(*delta); err != nil {
			fatal(err)
		}
	}

	// Compile once; every φ below — and -baseline, -sample — runs against
	// this single plan.
	prepStart := time.Now()
	p, err := compile(db)
	if err != nil {
		fatal(err)
	}
	if p, err = applyUpdate(p, upd, len(phis) > 1); err != nil {
		fatal(err)
	}
	prepTime := time.Since(prepStart).Round(time.Microsecond)
	if *saveFile != "" {
		if err := savePlanFile(p, *saveFile); err != nil {
			fatal(err)
		}
		fmt.Printf("saved plan snapshot to %s\n", *saveFile)
	}

	rng := rand.New(rand.NewSource(*seed))
	single := len(phis) == 1
	if !single {
		fmt.Printf("prepared in %v (|Q(D)| = %s)\n", prepTime, p.Count())
	}
	// An exact grid of several φ's is one shared descent (Prepared.Quantiles):
	// its lines carry no time of their own, the descent's follows them. -stats
	// keeps a run per φ, which is what its per-run tables describe. -eps > 0
	// selects the deterministic approximation through the same driver.
	var grid []*qjoin.Answer
	var gridTime time.Duration
	if !single && !*doSample && mode == qjoin.ModeExact && !*doStats {
		start := time.Now()
		if grid, err = p.Quantiles(f, phis, qjoin.Options{Epsilon: *eps}); err != nil {
			fatal(err)
		}
		gridTime = time.Since(start).Round(time.Microsecond)
	}
	for i, phi := range phis {
		start := time.Now()
		var ans *qjoin.Answer
		var stats *qjoin.RunStats
		switch {
		case grid != nil:
			ans = grid[i]
		case *doSample:
			if *eps <= 0 {
				fatal(fmt.Errorf("-sample requires -eps > 0"))
			}
			ans, err = p.Answer(f, qjoin.QuantileRequest{Phi: phi, Eps: *eps, Delta: *delta, Mode: qjoin.ModeSample, Rand: rng})
		case mode != qjoin.ModeExact:
			// Mode-aware dispatch through the unified Answer surface: approx
			// answers from the sketch summary, auto serves the sketch only
			// when it certifies -eps and falls back to the exact engine.
			ans, stats, err = p.AnswerStats(f,
				qjoin.QuantileRequest{Phi: phi, Eps: *eps, Mode: mode},
				qjoin.Options{CollectPhases: *doStats})
		default:
			// -eps > 0 selects the deterministic approximation through the
			// same driver, so one stats path serves both.
			ans, stats, err = p.QuantileStats(f, phi, qjoin.Options{Epsilon: *eps, CollectPhases: *doStats})
		}
		if err != nil {
			fatal(fmt.Errorf("φ=%v: %w", phi, err))
		}
		elapsed := time.Since(start).Round(time.Microsecond)
		switch {
		case single:
			fmt.Printf("answer: %s\nweight: %s\ntime:   %v\n", ans, weightString(f, ans.Weight), prepTime+elapsed)
		case grid != nil:
			fmt.Printf("φ=%-5v answer: %s  weight: %s\n", phi, ans, weightString(f, ans.Weight))
		default:
			fmt.Printf("φ=%-5v answer: %s  weight: %s  (%v)\n", phi, ans, weightString(f, ans.Weight), elapsed)
		}
		if mode != qjoin.ModeExact {
			fmt.Printf("source: %s  error_bound: %g\n", ans.Source, ans.ErrorBound)
		}
		if *doStats && stats != nil {
			printStats(stats)
		}

		if *doBaseline {
			start = time.Now()
			base, err := p.BaselineQuantile(f, phi)
			if err != nil {
				fatal(err)
			}
			fmt.Printf("baseline weight: %s (%v)\n", weightString(f, base.Weight), time.Since(start).Round(time.Microsecond))
		}
	}
	if grid != nil {
		fmt.Printf("%d quantiles in one descent: %v\n", len(grid), gridTime)
	}
}

// printStats renders one run's statistics with the per-iteration phase
// breakdown (pivot / trim / derive / count) that -stats collects: the
// statistics describe the descent, the rounds line and the breakdown what this
// run executed of it (an earlier φ under the same ranking leaves its rounds in
// the plan's pivot tree), the tail line what it did below the rounds.
func printStats(s *qjoin.RunStats) {
	fmt.Printf("  stats: iterations=%d materialized=%d pivotReturned=%v maxInstanceTuples=%d\n",
		s.Iterations, s.Materialized, s.PivotReturned, s.MaxInstanceTuples)
	if s.Phases == nil {
		return
	}
	fmt.Printf("  rounds: %d (%d remembered)\n", s.Iterations, s.Phases.Remembered)
	fmt.Printf("  cuts: %d (%d rebuilt, %d rows tested)\n", s.Phases.Cuts, s.Phases.Rebuilt, s.Phases.Tested)
	fmt.Printf("  tail: %d weighed, %d recovered (%v)\n", s.Phases.Weighed, s.Phases.Recovered, s.Phases.Tail.Round(time.Microsecond))
	var tot struct{ pivot, trim, derive, count time.Duration }
	for i, ph := range s.Phases.Iterations {
		fmt.Printf("  iter %2d: pivot=%-10v trim=%-10v derive=%-10v count=%v\n",
			i, ph.Pivot.Round(time.Microsecond), ph.Trim.Round(time.Microsecond),
			ph.Derive.Round(time.Microsecond), ph.Count.Round(time.Microsecond))
		tot.pivot += ph.Pivot
		tot.trim += ph.Trim
		tot.derive += ph.Derive
		tot.count += ph.Count
	}
	fmt.Printf("  total:   pivot=%-10v trim=%-10v derive=%-10v count=%v\n",
		tot.pivot.Round(time.Microsecond), tot.trim.Round(time.Microsecond),
		tot.derive.Round(time.Microsecond), tot.count.Round(time.Microsecond))
}

// applyUpdate folds a delta into the plan via incremental maintenance (a
// copy-on-write Update, not a recompile), optionally reporting what it did.
// On a sharded plan only the shards the delta's rows hash to are rebuilt.
func applyUpdate(p *qjoin.Prepared, delta *qjoin.Delta, verbose bool) (*qjoin.Prepared, error) {
	if delta == nil {
		return p, nil
	}
	start := time.Now()
	up, err := p.Update(delta)
	if err != nil {
		return nil, fmt.Errorf("applying update: %w", err)
	}
	if verbose {
		fmt.Printf("applied %d-op delta in %v\n", delta.Len(), time.Since(start).Round(time.Microsecond))
	}
	return up, nil
}

// loadPlanFile restores a plan snapshot. The whole file is read up front and
// decoded with the aliasing byte loader — the restored plan's columns point
// into the file image, which is exactly the cold-start fast path.
func loadPlanFile(path string, opts qjoin.Options) (*qjoin.Prepared, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	p, err := qjoin.LoadPreparedBytes(b, opts)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return p, nil
}

// savePlanFile writes the plan snapshot atomically: temp file, fsync,
// rename — a crash mid-save never leaves a torn snapshot at path.
func savePlanFile(p *qjoin.Prepared, path string) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".qjq-snap-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if err := p.Snapshot(tmp); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

func weightString(f *qjoin.Ranking, w qjoin.Weight) string {
	if len(w.Vec) > 0 {
		return fmt.Sprint(w.Vec)
	}
	return strconv.FormatInt(w.K, 10)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "qjq:", err)
	os.Exit(1)
}

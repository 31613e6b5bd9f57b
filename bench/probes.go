package main

import (
	"bytes"
	"runtime"
	"time"

	"github.com/quantilejoins/qjoin"
	"github.com/quantilejoins/qjoin/internal/decomp"
	"github.com/quantilejoins/qjoin/internal/engine"
	"github.com/quantilejoins/qjoin/internal/jointree"
	"github.com/quantilejoins/qjoin/internal/parallel"
	"github.com/quantilejoins/qjoin/internal/pivot"
	"github.com/quantilejoins/qjoin/internal/query"
	"github.com/quantilejoins/qjoin/internal/ranking"
	"github.com/quantilejoins/qjoin/internal/relation"
	"github.com/quantilejoins/qjoin/internal/shard"
	"github.com/quantilejoins/qjoin/internal/snap"
	"github.com/quantilejoins/qjoin/internal/trim"
	"github.com/quantilejoins/qjoin/internal/yannakakis"
)

// Layer probes: the benchmark times its own call into one exported function
// of a layer, on the instance the workload runs, several times over. Each
// call is a span of its own; the metric is the mean.

// probeReps is how often each probe repeats.
const probeReps = 5

// probeLoop times one pass of each layer of Algorithm 1's loop on the full
// instance of an engine: pivot selection, one trim per construction at the
// median pivot, and a subset derivation.
func probeLoop(tr *tracer, eng *engine.Engine) error {
	workers := parallel.Workers(0)
	inst := trim.Instance{Q: eng.Query(), DB: eng.DB(), Workers: workers, Exec: eng.Exec(), Cache: eng.TrimCache()}
	for _, spec := range exactRanks {
		f := mustRanking(spec)
		mu, err := f.AssignVars(eng.Query())
		if err != nil {
			return err
		}
		var pv *pivot.Result
		for r := 0; r < probeReps; r++ {
			tr.probe("pivot.select", func() {
				pv, err = pivot.SelectPrepared(eng.Exec(), eng.Counts(), f, mu, workers, nil)
			})
			if err != nil {
				return err
			}
		}
		name, cut := "trim.minmax", func() error { _, err := trim.MinMax(inst, f, pv.Weight.K, trim.Less); return err }
		switch f.Agg {
		case ranking.Sum:
			name, cut = "trim.sum_adjacent", func() error { _, err := trim.SumAdjacent(inst, f, pv.Weight.K, trim.Less); return err }
		case ranking.Lex:
			name, cut = "trim.lex", func() error { _, err := trim.Lex(inst, f, pv.Weight.Vec, trim.Less); return err }
		}
		for r := 0; r < probeReps; r++ {
			tr.probe(name, func() { err = cut() })
			if err != nil {
				return err
			}
		}
	}
	// Keep every other row of every node: the subset a balanced trim leaves.
	ex := eng.Exec()
	keep := make([][]bool, len(ex.Rels))
	for id, rel := range ex.Rels {
		keep[id] = make([]bool, rel.Len())
		for i := range keep[id] {
			keep[id][i] = i%2 == 0
		}
	}
	for r := 0; r < probeReps; r++ {
		tr.probe("jointree.derive", func() { ex.DeriveSubset(ex.Q, ex.DB, keep, workers) })
	}
	return nil
}

// timeOf returns the mean wall time of reps calls.
func timeOf(reps int, fn func()) float64 {
	t0 := time.Now()
	for r := 0; r < reps; r++ {
		fn()
	}
	return float64(time.Since(t0)) / float64(reps)
}

// probeParallel reports what the parallel runtime buys on this machine: the
// time with one worker over the time with one worker per core, for the
// counting pass, the executable-tree build and a whole exact SUM answer. The
// run has one CPU; this probe alone borrows them all.
func probeParallel(eng *engine.Engine, named map[string]float64) error {
	runtime.GOMAXPROCS(runtime.NumCPU())
	pin(-1)
	defer confine(1)
	all := parallel.Workers(0)
	ex := eng.Exec()
	named["parallel.count_speedup"] = timeOf(probeReps, func() { yannakakis.CountWorkers(ex, 1) }) /
		timeOf(probeReps, func() { yannakakis.CountWorkers(ex, all) })
	var err error
	build := func(workers int) func() {
		return func() {
			if _, e := jointree.NewExecWorkers(eng.Query(), eng.DB(), eng.Tree(), workers); e != nil {
				err = e
			}
		}
	}
	named["parallel.exec_speedup"] = timeOf(probeReps, build(1)) / timeOf(probeReps, build(all))
	plan, perr := qjoin.Prepare(eng.Source(), qjoin.WrapDB(eng.DB()))
	if perr != nil {
		return perr
	}
	f := mustRanking(exactRanks[0])
	ask := func(workers int) func() {
		return func() {
			if _, e := plan.Quantile(f, 0.5, qjoin.Options{Parallelism: workers}); e != nil {
				err = e
			}
		}
	}
	ask(all)() // fills the trim cache, so neither side pays for it
	named["parallel.answer_speedup"] = timeOf(probeReps, ask(1)) / timeOf(probeReps, ask(all))
	return err
}

// probeShards times the partition-and-compile of the sharded plan and the
// cross-shard pivot merge over one candidate per shard.
func probeShards(tr *tracer, q *query.Query, db *relation.Database, shards int) (*shard.Sharded, error) {
	var sh *shard.Sharded
	var err error
	for r := 0; r < probeReps; r++ {
		tr.probe("shard.partition", func() { sh, err = shard.New(q, db, shards, 0) })
		if err != nil {
			return nil, err
		}
	}
	workers := parallel.Workers(0)
	for _, spec := range exactRanks {
		f := mustRanking(spec)
		cands := make([]*pivot.Result, shards)
		for i, eng := range sh.Engines() {
			mu, err := f.AssignVars(eng.Query())
			if err != nil {
				return nil, err
			}
			if cands[i], err = pivot.SelectPrepared(eng.Exec(), eng.Counts(), f, mu, workers, nil); err != nil {
				return nil, err
			}
		}
		for r := 0; r < probeReps; r++ {
			tr.probe("pivot.merge", func() { pivot.MergeShards(cands, f) })
		}
	}
	return sh, nil
}

// probeCompile walks the compile pipeline of engine.NewWorkers step by step
// on one instance: self-join elimination, dedup, join-tree build (for a
// cyclic query: decomposition search and bag materialization first), the
// executable tree, the counting pass and the full reduction.
func probeCompile(tr *tracer, src *query.Query, db0 *relation.Database) error {
	workers := parallel.Workers(0)
	var q *query.Query
	var db *relation.Database
	tr.probe("query.selfjoin", func() { q, db = query.EliminateSelfJoins(src, db0) })
	tr.probe("relation.dedup", func() {
		out := relation.NewDatabase()
		for _, name := range db.Names() {
			out.Add(db.Get(name).DedupedWorkers(workers))
		}
		db = out
	})
	var tree *jointree.Tree
	var err error
	tr.probe("jointree.build", func() { tree, err = jointree.Build(q) })
	if err != nil {
		var d *decomp.Decomposition
		tr.probe("decomp.search", func() { d, err = decomp.Decompose(q, decomp.MaxDecompWidth) })
		if err != nil {
			return err
		}
		var st *decomp.Stats
		tr.probe("decomp.materialize", func() { db, st = d.Materialize(q, db, workers) })
		tr.count("decomp.bag_rows", float64(st.TotalBagRows))
		q = d.Query()
		if tree, err = jointree.Build(q); err != nil {
			return err
		}
	}
	var ex *jointree.Exec
	tr.probe("jointree.exec", func() { ex, err = jointree.NewExecWorkers(q, db, tree, workers) })
	if err != nil {
		return err
	}
	tr.probe("yannakakis.count", func() { yannakakis.CountWorkers(ex, workers) })
	// FullReduce works in place: give it an executable tree of its own.
	red, err := jointree.NewExecWorkers(q, db, tree, workers)
	if err != nil {
		return err
	}
	tr.probe("jointree.reduce", func() { red.FullReduceWorkers(workers) })
	return nil
}

// probeSnapshot times the two halves of a snapshot's life on one plan:
// encoding it, and walking its container with the CRC-32C check.
func probeSnapshot(tr *tracer, plan qjoin.Plan, data []byte) error {
	var err error
	tr.probe("snap.encode", func() {
		var buf bytes.Buffer
		buf.Grow(len(data))
		err = plan.Snapshot(&buf)
	})
	if err != nil {
		return err
	}
	tr.probe("snap.sections", func() {
		var sr *snap.Reader
		if sr, err = snap.NewReaderBytes(data); err != nil {
			return
		}
		var verify func() error
		if _, verify, err = sr.Sections(); err == nil {
			err = verify()
		}
	})
	return err
}

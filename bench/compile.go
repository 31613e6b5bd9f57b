package main

import (
	"bytes"
	"fmt"
	"math/rand"

	"github.com/quantilejoins/qjoin"
	"github.com/quantilejoins/qjoin/internal/query"
	"github.com/quantilejoins/qjoin/internal/ranking"
	"github.com/quantilejoins/qjoin/internal/relation"
	"github.com/quantilejoins/qjoin/internal/workload"
)

// cold_compile is the mirror image of exact_dense: library calls that go
// from bytes to a plan to Count() and an exact median, on selective
// instances (|Q(D)| ≤ |D|) where the pivot loop materializes at iteration 0.
var coldCompile = workloadDef{
	name:    "cold_compile",
	why:     "selective joins compiled or restored on every op: dedup, join tree, executable tree, counting, decomposition and snapshot decode are all the work and the pivot loop none",
	clients: 1,
	warmup:  80,
	classes: []string{"path2", "path3", "star3", "hierarchy", "triangle", "cycle4", "restore_path2", "restore_triangle"},
	oracle:  compileOracle,
	setup:   func(cfg config, o any) (world, error) { return setupCompile(cfg, o.([]compileWant)) },
}

// compileKind is one op kind: an instance to Prepare, or a snapshot to load.
type compileKind struct {
	name    string
	q       *query.Query
	db      *relation.Database
	rank    string
	f       *ranking.Func
	cyclic  bool
	restore int // for a restore kind, 1 + the index of the kind whose snapshot it loads
	snap    []byte
}

// cycle builds the k-cycle query E1(c1,c2), ..., Ek(ck,c1) with n tuples per
// relation over [0, dom): the triangle at k=3.
func cycle(rng *rand.Rand, k, n int, dom int64) (*query.Query, *relation.Database) {
	var atoms []query.Atom
	db := relation.NewDatabase()
	for i := 1; i <= k; i++ {
		name := fmt.Sprintf("E%d", i)
		atoms = append(atoms, query.Atom{Rel: name, Vars: []query.Var{
			query.Var(fmt.Sprintf("c%d", i)), query.Var(fmt.Sprintf("c%d", i%k+1)),
		}})
		rel := relation.New(name, 2)
		for j := 0; j < n; j++ {
			rel.Append(rng.Int63n(dom), rng.Int63n(dom))
		}
		db.Add(rel)
	}
	return query.New(atoms...), db
}

// compileKinds generates the seeded instances. The restore kinds' snapshots
// are taken in set-up, not here.
func compileKinds(cfg config) []compileKind {
	rng := rand.New(rand.NewSource(cfg.seed))
	sh := 0 // log2 shrink
	if cfg.quick {
		sh = 4
	}
	kinds := make([]compileKind, 8)
	k := &kinds[0]
	k.name, k.rank = "path2", "sum(x1,x2,x3)"
	k.q, k.db = workload.Path(rng, 2, 1<<(14-sh), 1<<(18-sh))
	k = &kinds[1]
	k.name, k.rank = "path3", "sum(x1,x2,x3)"
	k.q, k.db = workload.Path(rng, 3, 1<<(13-sh), 1<<(14-sh))
	k = &kinds[2]
	k.name, k.rank = "star3", "max(y1,y2,y3)"
	k.q, k.db = workload.Star(rng, 3, 1<<(13-sh), 1<<(13-sh), 1<<20)
	k = &kinds[3]
	k.name, k.rank = "hierarchy", "max(x3,x5)"
	k.q, k.db = workload.Hierarchy(rng, 1<<(13-sh), 1<<(13-sh))
	k = &kinds[4]
	k.name, k.rank, k.cyclic = "triangle", "max(c1,c2,c3)", true
	k.q, k.db = cycle(rng, 3, 1<<(13-sh), 1<<(10-sh))
	k = &kinds[5]
	k.name, k.rank, k.cyclic = "cycle4", "max(c1,c2,c3,c4)", true
	k.q, k.db = cycle(rng, 4, 1<<(12-sh), 1<<(9-sh))
	kinds[6] = compileKind{name: "restore_path2", rank: kinds[0].rank, restore: 1}
	kinds[7] = compileKind{name: "restore_triangle", rank: kinds[4].rank, restore: 5}
	for i := range kinds {
		kinds[i].f = mustRanking(kinds[i].rank)
	}
	return kinds
}

// compileWant is the oracle's count and median for one kind.
type compileWant struct {
	count  string
	median answer
}

func compileOracle(cfg config) (any, error) {
	kinds := compileKinds(cfg)
	want := make([]compileWant, len(kinds))
	for i, k := range kinds {
		if k.restore > 0 {
			want[i] = want[k.restore-1]
			continue
		}
		m, err := materialize(k.q, k.db)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", k.name, err)
		}
		m.rank(k.f)
		want[i] = compileWant{count: fmt.Sprint(len(m.rows)), median: m.at(k.f, 0.5)}
	}
	return want, nil
}

type compileWorld struct {
	kinds []compileKind
	want  []compileWant
	plans []qjoin.Plan // the plans the snapshots were taken of
}

func setupCompile(cfg config, want []compileWant) (world, error) {
	w := &compileWorld{kinds: compileKinds(cfg), want: want}
	w.plans = make([]qjoin.Plan, len(w.kinds))
	for i := range w.kinds {
		k := &w.kinds[i]
		if k.restore == 0 {
			continue
		}
		src := &w.kinds[k.restore-1]
		plan, err := qjoin.Prepare(src.q, qjoin.WrapDB(src.db))
		if err != nil {
			return nil, err
		}
		plan.Count() // the snapshot then carries the counts, as a served plan's does
		var buf bytes.Buffer
		if err := plan.Snapshot(&buf); err != nil {
			return nil, err
		}
		k.snap, k.db, w.plans[i] = buf.Bytes(), src.db, plan
	}
	return w, nil
}

// build goes from the kind's bytes to a plan.
func (k *compileKind) build() (qjoin.Plan, error) {
	if k.restore > 0 {
		return qjoin.LoadPlanBytes(k.snap)
	}
	return qjoin.Prepare(k.q, qjoin.WrapDB(k.db))
}

func (w *compileWorld) check(kind int, count string, a *qjoin.Answer) error {
	if want := w.want[kind]; count != want.count || !sameAnswer(wireOf(a), want.median) {
		return fmt.Errorf("%s: oracle mismatch: count %s median %v, want %s %v",
			w.kinds[kind].name, count, wireOf(a), want.count, want.median)
	}
	return nil
}

func (w *compileWorld) do(_, i int) (int, error) {
	kind := i % len(w.kinds)
	k := &w.kinds[kind]
	plan, err := k.build()
	if err != nil {
		return kind, err
	}
	count := plan.Count().String()
	a, err := plan.Median(k.f)
	if err != nil {
		return kind, err
	}
	return kind, w.check(kind, count, a)
}

func (w *compileWorld) traced(tr *tracer, i int) error {
	kind := i % len(w.kinds)
	k := &w.kinds[kind]
	name := "qjoin.prepare"
	switch {
	case k.restore > 0:
		name = "qjoin.restore"
	case k.cyclic:
		name = "qjoin.prepare_cyclic"
	}
	id := tr.startOp("op")
	defer tr.end(id)
	var plan qjoin.Plan
	var count string
	var err error
	tr.in(name, func() {
		if plan, err = k.build(); err == nil {
			count = plan.Count().String()
		}
	})
	if err != nil {
		return err
	}
	sp := tr.begin("core.answer")
	a, st, err := plan.AnswerStats(k.f, qjoin.QuantileRequest{Phi: 0.5, Mode: qjoin.ModeExact}, qjoin.Options{CollectPhases: true})
	tr.end(sp)
	tr.phases(sp, st)
	if err != nil {
		return err
	}
	return w.check(kind, count, a)
}

func (w *compileWorld) probes(tr *tracer, _ *sample, named map[string]float64) error {
	var snapBytes, tuples float64
	for r := 0; r < probeReps; r++ {
		for i := range w.kinds {
			k := &w.kinds[i]
			if k.restore == 0 {
				if err := probeCompile(tr, k.q, k.db); err != nil {
					return fmt.Errorf("%s: %w", k.name, err)
				}
				continue
			}
			if err := probeSnapshot(tr, w.plans[i], k.snap); err != nil {
				return fmt.Errorf("%s: %w", k.name, err)
			}
			if r == 0 {
				snapBytes += float64(len(k.snap))
				tuples += float64(k.db.Size())
			}
		}
	}
	named["snap.bytes_per_tuple"] = snapBytes / tuples
	self := tr.selfTimes()
	named["snap.decode_ms"] = max(0, self["qjoin.restore"].perOp()-self["snap.sections"].perOp()) / 1e6
	return nil
}

func (w *compileWorld) finish() (int, int) { return 0, 0 }
func (w *compileWorld) close()             {}

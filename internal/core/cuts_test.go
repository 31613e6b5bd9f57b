package core

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/quantilejoins/qjoin/internal/ranking"
	"github.com/quantilejoins/qjoin/internal/shard"
	"github.com/quantilejoins/qjoin/internal/trim"
	"github.com/quantilejoins/qjoin/internal/workload"
)

// Every band an exact run cuts comes with its executable tree, derived from
// the original's inside the trim: on the repository benchmark's dense 2-path
// (here at a sixteenth of its size, |Q(D)| = 8·|D| all the same) under the four
// rankings of its request rotation — one per trim construction — unrouted and
// at 4 shards, on a plan nobody has asked and on the same plan asked again, the
// phase log counts cuts and not one rebuild. A lossy run's bands are sketch
// embeddings, which carry no tree: there every cut is a rebuild.
func TestExactCutsAreNeverRebuilt(t *testing.T) {
	q, db := workload.Path(rand.New(rand.NewSource(1)), 2, 1<<10, 1<<6)
	ranks := []*ranking.Func{ranking.NewSum("x1", "x2", "x3"), ranking.NewMax("x1", "x3"), ranking.NewLex("x1", "x3"), ranking.NewMin("x1", "x2", "x3")}
	opts := Options{Parallelism: 1, CollectPhases: true}
	for _, shards := range []int{1, 4} {
		sh, err := shard.New(q, db, shards, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, pass := range []string{"cold", "warm"} {
			for _, f := range ranks {
				cuts := 0
				for _, phi := range []float64{0.5, 0.03, 0.97, 0.31, 0.72} {
					_, stats, err := Quantile(sh.Engines(), f, phi, opts)
					name := fmt.Sprintf("shards=%d %s %s%v φ=%v", shards, pass, f.Agg, f.Vars, phi)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if pass == "warm" && stats.Phases.Remembered != stats.Iterations {
						t.Fatalf("%s: %d of %d rounds remembered", name, stats.Phases.Remembered, stats.Iterations)
					}
					if stats.Phases.Rebuilt != 0 {
						t.Fatalf("%s: %d of %d cuts rebuilt their tree", name, stats.Phases.Rebuilt, stats.Phases.Cuts)
					}
					cuts += stats.Phases.Cuts
				}
				if cuts == 0 {
					t.Fatalf("shards=%d %s %s%v: no run cut a band", shards, pass, f.Agg, f.Vars)
				}
			}
		}
		_, stats, err := Quantile(sh.Engines(), ranks[0], 0.5, Options{Parallelism: 1, CollectPhases: true, ForceLossy: true, Epsilon: 0.2})
		if err != nil || !stats.Lossy {
			t.Fatalf("shards=%d lossy: err %v, lossy %v", shards, err, stats.Lossy)
		}
		if stats.Phases.Cuts == 0 || stats.Phases.Rebuilt != stats.Phases.Cuts {
			t.Fatalf("shards=%d lossy: %d of %d cuts rebuilt their tree, want all", shards, stats.Phases.Rebuilt, stats.Phases.Cuts)
		}
	}
}

// BenchmarkBandDerive — what deriving a partitioned band's tree from the
// original's is worth (ISSUE 24), on the repository benchmark's dense 2-path:
// "derived" cuts a 4-box LEX band and a staircase SUM band between the 45th and
// 55th percentile weights out of the engine's instance and takes each one's
// tree as the driver does (execOf: the trim derived it); "rebuilt" cuts the same
// bands out of the same instance without its Exec, so that execOf builds the
// trees afresh — join tree, key interning, gid lookups. CI's scaling gate:
// derived min ns/op ≤ 0.75× rebuilt (0.57–0.61 at -benchtime 200x; the CI form,
// 3x, reads 0.39–0.65).
func BenchmarkBandDerive(b *testing.B) {
	q, db := workload.Path(rand.New(rand.NewSource(1)), 2, 1<<14, 1<<10)
	engs := engines(b, q, db)
	eng := engs[0]
	type band struct {
		cut       func(inst trim.Instance, low, high ranking.Bound) (trim.Instance, error)
		low, high ranking.Bound
	}
	var bands []band
	for _, f := range []*ranking.Func{ranking.NewLex("x1", "x3"), ranking.NewSum("x1", "x2", "x3")} {
		trm, err := makeTrimmer(eng.Query(), f, Options{})
		if err != nil {
			b.Fatal(err)
		}
		bd := band{cut: trm.exact}
		for _, at := range []struct {
			phi float64
			to  *ranking.Bound
		}{{0.45, &bd.low}, {0.55, &bd.high}} {
			a, _, err := Quantile(engs, f, at.phi, Options{Parallelism: 1})
			if err != nil {
				b.Fatal(err)
			}
			*at.to = ranking.Finite(a.Weight)
		}
		bands = append(bands, bd)
	}
	inst := trim.Instance{Q: eng.Query(), DB: eng.DB(), Workers: 1, Exec: eng.Exec(), Cache: eng.TrimCache()}
	for _, side := range []string{"derived", "rebuilt"} {
		b.Run(side, func(b *testing.B) {
			from := inst
			if side == "rebuilt" {
				from.Exec = nil
			}
			for b.Loop() {
				for _, bd := range bands {
					out, err := bd.cut(from, bd.low, bd.high)
					if err != nil || (out.Exec != nil) != (side == "derived") {
						b.Fatalf("band: err %v, carries an Exec: %v", err, out.Exec != nil)
					}
					if _, err := execOf(out); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

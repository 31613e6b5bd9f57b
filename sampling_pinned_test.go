package qjoin_test

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math/rand"
	"testing"

	"github.com/quantilejoins/qjoin"
	"github.com/quantilejoins/qjoin/internal/testutil"
	"github.com/quantilejoins/qjoin/internal/workload"
)

// Sampled answers are a function of the plan's answers and the caller's rng
// alone. Pinned to a digest: the sampling quantile at three φ's and two ε's
// and 200 sampled answers, each under its own fixed seed, over the
// differential corpus (seeds 1–4), a 4-atom star of 512-member join groups
// and a 6-atom star with more than 2⁶⁴ answers (whose ordinals are drawn
// through big.Int) — every input fresh, after two deltas, and restored from
// a snapshot of the updated plan.
func TestSamplingIsPinned(t *testing.T) {
	type input struct {
		name  string
		q     *qjoin.Query
		db    *qjoin.DB
		ranks []*qjoin.Ranking
		dom   int64
	}
	var inputs []input
	for seed := int64(1); seed <= 4; seed++ {
		for _, inst := range testutil.FuzzCorpus(rand.New(rand.NewSource(seed))) {
			inputs = append(inputs, input{fmt.Sprintf("%s/%d", inst.Name, seed), inst.Q, qjoin.WrapDB(inst.DB), inst.Ranks, 40})
		}
	}
	q, db := workload.Star(rand.New(rand.NewSource(5)), 4, 4096, 8, 1<<20)
	inputs = append(inputs, input{"star4", q, qjoin.WrapDB(db), []*qjoin.Ranking{qjoin.Sum("y1", "y2", "y3", "y4"), qjoin.Lex("y4", "y1")}, 1 << 20})
	q, db = workload.Star(rand.New(rand.NewSource(6)), 6, 2048, 1, 1<<30)
	inputs = append(inputs, input{"star6", q, qjoin.WrapDB(db), []*qjoin.Ranking{qjoin.Sum("y1", "y3", "y6"), qjoin.Lex("y2", "y5")}, 1 << 30})

	h := fnv.New64a()
	sample := func(name string, p *qjoin.Prepared, ranks []*qjoin.Ranking) {
		fmt.Fprintln(h, name, p.Count())
		seed := int64(0)
		for _, f := range ranks {
			for _, phi := range []float64{0.1, 0.5, 0.9} {
				for _, eps := range []float64{0.05, 0.1} {
					seed++
					a, err := p.Answer(f, qjoin.QuantileRequest{Phi: phi, Eps: eps, Delta: 0.2, Mode: qjoin.ModeSample, Rand: rand.New(rand.NewSource(seed))})
					if err != nil {
						fmt.Fprintln(h, err)
						continue
					}
					fmt.Fprintln(h, a.Values, a.Weight, a.Source, a.ErrorBound)
				}
			}
		}
		vars, rows, err := p.SampleAnswers(200, rand.New(rand.NewSource(seed+1)))
		fmt.Fprintln(h, vars, rows, err)
	}
	for i, in := range inputs {
		p, err := qjoin.Prepare(in.q, in.db)
		if err != nil {
			t.Fatalf("%s: %v", in.name, err)
		}
		if in.name == "star6" && p.Count().BitLen() <= 64 {
			t.Fatalf("star6 has %s answers: its ordinals fit 64 bits", p.Count())
		}
		sample(in.name+" fresh", p, in.ranks)
		rng := rand.New(rand.NewSource(int64(100 + i)))
		cur := in.db
		for round := 0; round < 2; round++ {
			delta := randomDelta(rng, cur.Unwrap(), cur.Relations(), 14, in.dom)
			if p, err = p.Update(delta); err != nil {
				t.Fatalf("%s: update %d: %v", in.name, round, err)
			}
			if cur, err = cur.Apply(delta); err != nil {
				t.Fatalf("%s: apply %d: %v", in.name, round, err)
			}
		}
		sample(in.name+" updated", p, in.ranks)
		var buf bytes.Buffer
		if err := p.Snapshot(&buf); err != nil {
			t.Fatalf("%s: snapshot: %v", in.name, err)
		}
		restored, err := qjoin.LoadPreparedBytes(buf.Bytes())
		if err != nil {
			t.Fatalf("%s: restore: %v", in.name, err)
		}
		sample(in.name+" restored", restored, in.ranks)
	}
	const want = 0x12c8a116146b2611
	if got := h.Sum64(); got != want {
		t.Fatalf("digest %#x, want %#x: sampling changed its answers for a fixed rng", got, uint64(want))
	}
}

// Snapshot format pin: testdata/plan-unrouted.qjsn and plan-routed3.qjsn hold
// container version 2 (an engine section carries no node relations — they are
// the engine database's — and a relation over columns already in the stream is
// a view record), written once by the commit that introduced it. The
// encoder/decoder must load them, answer from them like a fresh compile of the
// same data, and write them back byte for byte — so plan files and -data-dir
// contents written by any build since keep loading, and a change that moves a
// byte has to bump snap.Version. A version-1 stream is refused, not guessed at.
package qjoin_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"flag"
	"math/rand"
	"os"
	"reflect"
	"testing"

	"github.com/quantilejoins/qjoin"
	"github.com/quantilejoins/qjoin/internal/testutil"
)

var updateFixtures = flag.Bool("update", false, "rewrite testdata/plan-*.qjsn with the current code")

var planFixtures = []struct {
	file   string
	shards int // 0: Prepare (unrouted); otherwise PrepareSharded
}{
	{"testdata/plan-unrouted.qjsn", 0},
	{"testdata/plan-routed3.qjsn", 3},
}

// fixtureRanks are the rankings the fixtures carry warm sketches for: a
// tractable SUM (exact anchors) and a MAX.
func fixtureRanks() []*qjoin.Ranking {
	return []*qjoin.Ranking{qjoin.Sum("y", "z"), qjoin.Max("x", "w")}
}

// fixturePlan replays the recipe the fixture files were saved from: a 3-path
// whose key y partitions R and S and leaves T replicated, one approximate
// answer per ranking (so sketches exist), one delta touching every relation,
// WarmSketches.
func fixturePlan(t *testing.T, shards int) qjoin.Plan {
	t.Helper()
	q := qjoin.NewQuery(
		qjoin.NewAtom("R", "x", "y"),
		qjoin.NewAtom("S", "y", "z"),
		qjoin.NewAtom("T", "z", "w"),
	)
	var r, s, tt [][]int64
	for i := int64(0); i < 12; i++ {
		r = append(r, []int64{i, i % 5})
	}
	for i := int64(0); i < 20; i++ {
		s = append(s, []int64{i % 5, (i * 3) % 7})
	}
	for i := int64(0); i < 14; i++ {
		tt = append(tt, []int64{i % 7, 10 + i})
	}
	db := qjoin.NewDB().MustAdd("R", 2, r).MustAdd("S", 2, s).MustAdd("T", 2, tt)

	var p qjoin.Plan
	var err error
	if shards == 0 {
		p, err = qjoin.Prepare(q, db)
	} else {
		p, err = qjoin.PrepareSharded(q, db, shards)
	}
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range fixtureRanks() {
		if _, err := p.Answer(f, qjoin.QuantileRequest{Phi: 0.5, Mode: qjoin.ModeApprox}); err != nil {
			t.Fatal(err)
		}
	}
	d := qjoin.NewDelta().
		Insert("R", []int64{100, 2}, []int64{101, 4}).
		Insert("S", []int64{2, 6}).
		Delete("R", []int64{0, 0}).
		Delete("T", []int64{0, 10})
	if p, err = p.UpdatePlan(d); err != nil {
		t.Fatal(err)
	}
	if err := p.WarmSketches(); err != nil {
		t.Fatal(err)
	}
	return p
}

func snapshotBytes(t *testing.T, p qjoin.Plan) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := p.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestPlanFixtures(t *testing.T) {
	for _, fx := range planFixtures {
		t.Run(fx.file, func(t *testing.T) {
			if *updateFixtures {
				if err := os.WriteFile(fx.file, snapshotBytes(t, fixturePlan(t, fx.shards)), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(fx.file)
			if err != nil {
				t.Fatal(err)
			}
			if got := snapshotBytes(t, fixturePlan(t, fx.shards)); !bytes.Equal(got, want) {
				t.Errorf("the recipe no longer reproduces %s (%d bytes, file has %d)", fx.file, len(got), len(want))
			}

			v1 := bytes.Clone(want)
			binary.LittleEndian.PutUint32(v1[4:8], 1)
			if _, err := qjoin.LoadPlanBytes(v1); !errors.Is(err, qjoin.ErrSnapshotVersion) {
				t.Errorf("a version-1 header loads with %v, want ErrSnapshotVersion", err)
			}

			viaPlan, err := qjoin.LoadPlanBytes(want)
			if err != nil {
				t.Fatalf("LoadPlanBytes: %v", err)
			}
			loaded, err := qjoin.LoadPreparedBytes(want)
			if err != nil {
				t.Fatalf("LoadPreparedBytes: %v", err)
			}
			loaders := map[string]qjoin.Plan{"LoadPlanBytes": viaPlan, "LoadPreparedBytes": loaded}
			for name, p := range loaders {
				if got := snapshotBytes(t, p); !bytes.Equal(got, want) {
					t.Errorf("%s → Snapshot does not reproduce the file (%d bytes, file has %d)", name, len(got), len(want))
				}
			}
			wantShards, routed := fx.shards, fx.shards > 0
			if !routed {
				wantShards = 1
			}
			if loaded.Shards() != wantShards || (loaded.Key() != "") != routed {
				t.Errorf("loaded plan has %d shards, key %q", loaded.Shards(), loaded.Key())
			}

			// A fresh compile of the loaded plan's database, at the same
			// shard count so RunStats are comparable.
			var fresh qjoin.Plan
			if routed {
				fresh, err = qjoin.PrepareSharded(loaded.Query(), loaded.DB(), fx.shards)
			} else {
				fresh, err = qjoin.Prepare(loaded.Query(), loaded.DB())
			}
			if err != nil {
				t.Fatal(err)
			}
			if loaded.Count().Cmp(fresh.Count()) != 0 || viaPlan.Count().Cmp(fresh.Count()) != 0 {
				t.Fatalf("count %v / %v, fresh compile %v", loaded.Count(), viaPlan.Count(), fresh.Count())
			}
			oracle := testutil.BruteForce(loaded.Query(), loaded.DB().Unwrap())
			n := len(oracle)
			for ri, f := range fixtureRanks() {
				for _, phi := range []float64{0, 0.1, 0.25, 0.5, 0.75, 0.9, 1} {
					wa, ws, err := fresh.QuantileStats(f, phi)
					if err != nil {
						t.Fatal(err)
					}
					for name, p := range loaders {
						ga, gs, err := p.QuantileStats(f, phi)
						if err != nil {
							t.Fatal(err)
						}
						if !reflect.DeepEqual(ga, wa) || !reflect.DeepEqual(gs, ws) {
							t.Errorf("%s rank %d φ=%v: %v %+v, fresh compile %v %+v", name, ri, phi, ga, gs, wa, ws)
						}
					}
					// The restored sketch must answer without a rebuild (the
					// byte round-trip above pins its content) and within the
					// bound it certifies.
					a, err := loaded.Answer(f, qjoin.QuantileRequest{Phi: phi, Mode: qjoin.ModeApprox})
					if err != nil {
						t.Fatal(err)
					}
					if a.Source != qjoin.SourceSketch {
						t.Fatalf("rank %d φ=%v: source %q", ri, phi, a.Source)
					}
					k := int(float64(n) * phi)
					if k >= n {
						k = n - 1
					}
					below, equal := testutil.RankOf(oracle, f, loaded.Query().Vars(), a.Weight)
					realized := 0
					if below > k {
						realized = below - k
					} else if hi := below + equal - 1; k > hi {
						realized = k - hi
					}
					if float64(realized) > a.ErrorBound*float64(n)+1e-6 {
						t.Errorf("rank %d φ=%v: realized rank error %d exceeds certified bound %v (n=%d)", ri, phi, realized, a.ErrorBound, n)
					}
				}
			}
			if got := snapshotBytes(t, loaded); !bytes.Equal(got, want) {
				t.Errorf("answering from the loaded plan changed its snapshot")
			}
		})
	}
}

// FuzzLoadPlanBytes: no byte string makes the plan loader panic — it decodes
// while the checksums run, so it meets damaged bytes before it refuses them —
// and a plan it accepts answers like a fresh compile of its database: the same
// count, then a median, a top-3 and two samples (on a routed plan, the
// sampling refusal) that run. The corpus is the two plan fixtures, each also
// with one edge's parent-gid flag cleared and its checksum fixed (the decoder
// itself must refuse that), and truncations; `go test` runs it as a plain test.
func FuzzLoadPlanBytes(f *testing.F) {
	for _, fx := range planFixtures {
		good, err := os.ReadFile(fx.file)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(good)
		f.Add(clearParentGidFlag(f, good))
		for _, n := range []int{16, len(good) / 3, len(good) - 9} {
			f.Add(good[:n])
		}
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		p, err := qjoin.LoadPlanBytes(b)
		if err != nil {
			if p != nil {
				t.Fatalf("a plan alongside error %v", err)
			}
			return
		}
		fresh, err := qjoin.Prepare(p.Query(), p.DB())
		if err != nil {
			t.Fatalf("the loaded plan's database does not compile: %v", err)
		}
		if p.Count().Cmp(fresh.Count()) != 0 {
			t.Fatalf("count %v, a fresh compile %v", p.Count(), fresh.Count())
		}
		if p.Count().Sign() == 0 {
			return
		}
		rank := qjoin.Max(p.Vars()...)
		if _, err := p.Median(rank); err != nil {
			t.Fatalf("median: %v", err)
		}
		if top, err := p.TopK(rank, 3); err != nil || len(top) == 0 {
			t.Fatalf("TopK: %v, %v", top, err)
		}
		_, rows, err := p.SampleAnswers(2, rand.New(rand.NewSource(1)))
		var ae *qjoin.ArgError
		if routed := p.Key() != ""; routed != (err != nil) || routed && !errors.As(err, &ae) || !routed && len(rows) != 2 {
			t.Fatalf("SampleAnswers on a plan with key %q: %d rows, %v", p.Key(), len(rows), err)
		}
	})
}

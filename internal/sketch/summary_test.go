package sketch

import (
	"math/rand"
	"testing"

	"github.com/quantilejoins/qjoin/internal/counting"
	"github.com/quantilejoins/qjoin/internal/ranking"
)

func cmpK(a, b ranking.Weightv) int {
	switch {
	case a.K < b.K:
		return -1
	case a.K > b.K:
		return 1
	}
	return 0
}

// TestBoundIsTheWorstServedRank checks the certified bound against its
// definition — for every rank in [0, N−1], the smallest error any entry
// serves it with; B is the largest of those — on summaries New assembled
// from random windows: tight, wide, overlapping, inverted (RMax = RMin + 1,
// an emptied class) and out of order.
func TestBoundIsTheWorstServedRank(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 400; trial++ {
		n := 1 + rng.Intn(120)
		entries := make([]Entry, rng.Intn(12))
		for i := range entries {
			lo := rng.Intn(n)
			hi := lo + rng.Intn(n/4+2) - 1
			if hi < 0 {
				hi = 0
			}
			entries[i] = Entry{
				Weight: ranking.Weightv{K: int64(rng.Intn(16))},
				RMin:   counting.FromInt(lo),
				RMax:   counting.FromInt(hi),
			}
			if rng.Intn(3) == 0 {
				entries[i].RMin, entries[i].RMax = entries[i].RMax, entries[i].RMin
			}
		}
		s := New(entries, counting.FromInt(n), 0.25, false, cmpK)
		want := counting.Count{}
		if len(s.Entries) == 0 {
			want = s.N
		}
		for k := 0; k < n && len(s.Entries) > 0; k++ {
			_, errAbs, _ := s.Query(counting.FromInt(k))
			want = counting.Max(want, errAbs)
		}
		if s.B.Cmp(want) != 0 {
			t.Fatalf("trial %d: B = %s, the worst served rank errs by %s (n=%d, entries %+v)", trial, s.B, want, n, s.Entries)
		}
	}
}

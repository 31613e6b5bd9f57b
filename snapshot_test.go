// Snapshot round-trip differential fuzzing (PR 9): every corpus instance is
// compiled unsharded and at several shard counts, carried through a chain of
// deltas, and snapshotted at every generation. Each snapshot is decoded and
// the restored plan is checked byte-identical to the live one — answers AND
// RunStats, across the exact, approximate and top-k surfaces — so any codec
// bug that perturbs the compiled artifact diverges. The failure half checks
// the typed-error contract: corrupted, truncated and wrong-version streams
// must fail with the matching sentinel and never yield a plan.
package qjoin_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"github.com/quantilejoins/qjoin"
	"github.com/quantilejoins/qjoin/internal/snap"
)

// snapRoundTrip snapshots the plan and loads it back through LoadPrepared,
// asserting the shard count and partitioning key survive.
func snapRoundTrip(t *testing.T, p qjoin.Plan) qjoin.Plan {
	t.Helper()
	var buf bytes.Buffer
	if err := p.Snapshot(&buf); err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	got, err := qjoin.LoadPrepared(bytes.NewReader(buf.Bytes()), qjoin.Options{Parallelism: 2})
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if g, w := got, p; g.Shards() != w.Shards() || g.Key() != w.Key() {
		t.Fatalf("loaded %d shards on key %q from a snapshot of %d shards on key %q", g.Shards(), g.Key(), w.Shards(), w.Key())
	}
	return got
}

// assertPlansAgree drives both plans through the same queries and requires
// byte-identical results: count, exact quantiles with run statistics,
// approximate (sketch-tier) answers, and the top-k stream.
func assertPlansAgree(t *testing.T, live, loaded qjoin.Plan, ranks []*qjoin.Ranking) {
	t.Helper()
	if lc, gc := live.Count(), loaded.Count(); lc.Cmp(gc) != 0 {
		t.Fatalf("count diverged: live %v, loaded %v", lc, gc)
	}
	if lv, gv := live.Vars(), loaded.Vars(); !reflect.DeepEqual(lv, gv) {
		t.Fatalf("vars diverged: live %v, loaded %v", lv, gv)
	}
	phis := []float64{0, 0.3, 0.5, 1}
	for ri, f := range ranks {
		for _, phi := range phis {
			wa, ws, err := live.QuantileStats(f, phi)
			if err != nil {
				t.Fatalf("rank %d φ=%v live: %v", ri, phi, err)
			}
			ga, gs, err := loaded.QuantileStats(f, phi)
			if err != nil {
				t.Fatalf("rank %d φ=%v loaded: %v", ri, phi, err)
			}
			if !reflect.DeepEqual(ga, wa) {
				t.Errorf("rank %d φ=%v: answer diverged: loaded %v, live %v", ri, phi, ga, wa)
			}
			if !reflect.DeepEqual(gs, ws) {
				t.Errorf("rank %d φ=%v: RunStats diverged: loaded %+v, live %+v", ri, phi, gs, ws)
			}
		}
		wa, err := live.Answer(f, qjoin.QuantileRequest{Phi: 0.5, Mode: qjoin.ModeApprox})
		if err != nil {
			t.Fatalf("rank %d approx live: %v", ri, err)
		}
		ga, err := loaded.Answer(f, qjoin.QuantileRequest{Phi: 0.5, Mode: qjoin.ModeApprox})
		if err != nil {
			t.Fatalf("rank %d approx loaded: %v", ri, err)
		}
		if !reflect.DeepEqual(ga, wa) {
			t.Errorf("rank %d: approx answer diverged: loaded %#v, live %#v", ri, ga, wa)
		}
	}
	wk, err := live.TopK(ranks[0], 5)
	if err != nil {
		t.Fatalf("topk live: %v", err)
	}
	gk, err := loaded.TopK(ranks[0], 5)
	if err != nil {
		t.Fatalf("topk loaded: %v", err)
	}
	if !reflect.DeepEqual(gk, wk) {
		t.Errorf("topk diverged: loaded %v, live %v", gk, wk)
	}
}

// TestSnapshotRoundTripFuzz is the differential: PR 6 corpus × shard counts
// × a chain of deltas, snapshotting at every generation. Sketches are warmed
// before the generation-0 snapshot so the sketch sections round-trip too.
func TestSnapshotRoundTripFuzz(t *testing.T) {
	rng := rand.New(rand.NewSource(919))
	for _, inst := range fuzzInstances(rng) {
		inst := inst
		t.Run(inst.name, func(t *testing.T) {
			for _, shards := range []int{0, 1, 2, 5} {
				var live qjoin.Plan
				var err error
				if shards == 0 {
					live, err = qjoin.Prepare(inst.q, inst.db, qjoin.Options{Parallelism: 2})
				} else {
					live, err = qjoin.PrepareSharded(inst.q, inst.db, shards, qjoin.Options{Parallelism: 2})
					if errors.Is(err, qjoin.ErrNoShardKey) {
						continue
					}
				}
				if err != nil {
					t.Fatalf("shards=%d: %v", shards, err)
				}
				// Warm one ranking's sketch so generation 0 carries a sketch
				// section; the others exercise the no-sketch path.
				if _, err := live.Answer(inst.ranks[0], qjoin.QuantileRequest{Phi: 0.5, Mode: qjoin.ModeApprox}); err != nil {
					t.Fatalf("shards=%d warm: %v", shards, err)
				}
				assertPlansAgree(t, live, snapRoundTrip(t, live), inst.ranks)

				// Chained deltas: update the live plan, snapshot at each
				// generation, and require the restored plan to match it.
				names := inst.db.Relations()
				cur := inst.db
				for gen := 1; gen <= 2; gen++ {
					d := randomDelta(rng, cur.Unwrap(), names, 12, 30)
					if cur, err = cur.Apply(d); err != nil {
						t.Fatalf("shards=%d gen %d apply: %v", shards, gen, err)
					}
					if live, err = live.UpdatePlan(d); err != nil {
						t.Fatalf("shards=%d gen %d update: %v", shards, gen, err)
					}
					if err := live.WarmSketches(); err != nil {
						t.Fatalf("shards=%d gen %d warm: %v", shards, gen, err)
					}
					assertPlansAgree(t, live, snapRoundTrip(t, live), inst.ranks)
				}
			}
		})
	}
}

// TestSnapshotTypedErrors checks the failure discipline: a damaged stream
// fails with the matching typed sentinel, and no loader ever returns a
// partially decoded plan alongside an error.
func TestSnapshotTypedErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(920))
	inst := fuzzInstances(rng)[0]
	p, err := qjoin.Prepare(inst.q, inst.db)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := p.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	load := func(b []byte) (qjoin.Plan, error) {
		return qjoin.LoadPrepared(bytes.NewReader(b))
	}
	mutate := func(off int, x byte) []byte {
		b := append([]byte(nil), good...)
		b[off] ^= x
		return b
	}

	cases := []struct {
		name string
		b    []byte
		want error
		msg  string // when set, the error must say it
	}{
		{"wrong-magic", mutate(0, 0xff), qjoin.ErrNotSnapshot, ""},
		{"wrong-version", mutate(4, 0xff), qjoin.ErrSnapshotVersion, ""},
		// Offset 32 is the first byte of the first section's payload (16-byte
		// stream header + 16-byte section header).
		{"payload-bitflip", mutate(40, 0x01), qjoin.ErrSnapshotChecksum, ""},
		// The trailing 24 bytes are the end-marker section; the 8 bytes just
		// before it are the final data section's trailer, CRC first.
		{"late-bitflip", mutate(len(good)-32, 0x01), qjoin.ErrSnapshotChecksum, ""},
		// An engine section whose edge carries no parent-gid array, checksum
		// intact: the decoder itself must refuse it.
		{"missing-parent-gids", clearParentGidFlag(t, good), qjoin.ErrSnapshotCorrupt, "no parent-gid array"},
		{"truncated-header", good[:7], qjoin.ErrSnapshotTruncated, ""},
		{"truncated-mid", good[:len(good)/2], qjoin.ErrSnapshotTruncated, ""},
		{"truncated-tail", good[:len(good)-1], qjoin.ErrSnapshotTruncated, ""},
		{"empty", nil, qjoin.ErrSnapshotTruncated, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := load(tc.b)
			if !errors.Is(err, tc.want) || !strings.Contains(fmt.Sprint(err), tc.msg) {
				t.Fatalf("error = %v, want %v %s", err, tc.want, tc.msg)
			}
			if got != nil {
				t.Fatalf("damaged snapshot yielded a plan alongside error %v", err)
			}
		})
	}

	// Sanity: the pristine bytes still load, so the damage above is what
	// failed, not the baseline.
	if _, err := load(good); err != nil {
		t.Fatalf("pristine snapshot failed to load: %v", err)
	}

	// LoadPrepared takes either plan kind. What it must still refuse, without
	// partial decode, is a stream whose header kind (bytes 8..12, outside any
	// section CRC) disagrees with its sections: an unrouted stream relabelled
	// as sharded, a sharded one relabelled as unrouted, and a kind that is no
	// plan at all.
	sp, err := qjoin.PrepareSharded(inst.q, inst.db, 2)
	if err != nil {
		t.Fatal(err)
	}
	var sbuf bytes.Buffer
	if err := sp.Snapshot(&sbuf); err != nil {
		t.Fatal(err)
	}
	routed := sbuf.Bytes()
	got, err := qjoin.LoadPrepared(bytes.NewReader(routed))
	if err != nil || got.Shards() != 2 || got.Key() != sp.Key() {
		t.Fatalf("LoadPrepared on a sharded stream: %v (plan %v)", err, got)
	}
	relabel := func(b []byte, kind byte) []byte {
		b = append([]byte(nil), b...)
		b[8] = kind
		return b
	}
	for name, b := range map[string][]byte{
		"unrouted-as-sharded": relabel(good, routed[8]),
		"sharded-as-unrouted": relabel(routed, good[8]),
		"not-a-plan-kind":     relabel(good, 0x7f),
	} {
		got, err := qjoin.LoadPrepared(bytes.NewReader(b))
		if !errors.Is(err, qjoin.ErrSnapshotCorrupt) || got != nil {
			t.Errorf("%s: plan %v, error %v, want ErrSnapshotCorrupt and no plan", name, got, err)
		}
	}
}

// clearParentGidFlag returns a copy of a plan snapshot in which the first
// engine section's first non-empty edge says it carries no parent-gid array —
// the array's bytes left in place, the section's CRC recomputed — as a writer
// of Execs without the array once could. The record is found by its bytes:
// the flag 1 on an 8-byte boundary of the payload, seven bytes of padding,
// then the count-prefixed array the loaded plan's engine holds.
func clearParentGidFlag(t testing.TB, good []byte) []byte {
	t.Helper()
	p, err := qjoin.LoadPlanBytes(good)
	if err != nil {
		t.Fatal(err)
	}
	ex := qjoin.Engines(p)[0].Exec()
	var needle []byte
	for _, n := range ex.T.Nodes {
		if pg := ex.ParentGids(n.ID); n.Parent >= 0 && len(pg) > 0 {
			needle = binary.LittleEndian.AppendUint64(nil, uint64(len(pg)))
			for _, g := range pg {
				needle = binary.LittleEndian.AppendUint32(needle, uint32(g))
			}
			break
		}
	}
	b := bytes.Clone(good)
	flag := append([]byte{1}, make([]byte, 7)...)
	for off := 16; off+16 <= len(b); {
		id := binary.LittleEndian.Uint32(b[off:])
		n := int(binary.LittleEndian.Uint64(b[off+8:]))
		payload := b[off+16 : off+16+n]
		crcAt := off + 16 + n + (8-n%8)%8
		if id == snap.SecEngine {
			for at := 8; at+len(needle) <= n; at += 8 {
				if bytes.Equal(payload[at-8:at], flag) && bytes.HasPrefix(payload[at:], needle) {
					payload[at-8] = 0
					binary.LittleEndian.PutUint32(b[crcAt:], crc32.Checksum(payload, crc32.MakeTable(crc32.Castagnoli)))
					return b
				}
			}
			break
		}
		off = crcAt + 8
	}
	t.Fatal("no parent-gid record found in the first engine section")
	return nil
}

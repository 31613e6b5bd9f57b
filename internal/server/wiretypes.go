package server

import (
	"fmt"
	"strings"

	"github.com/quantilejoins/qjoin"
	"github.com/quantilejoins/qjoin/internal/loadfmt"
)

// Wire types of the HTTP API. Queries and rankings travel in the canonical
// textual forms of the qjoin wire codec (qjoin.QuerySpec), relations as
// integer row arrays or loadfmt CSV text, deltas as op lists or loadfmt
// delta text — every format shared verbatim with cmd/qjq.

// LoadRequest is the body of PUT /datasets/{name}: a full (re)load of the
// named dataset.
type LoadRequest struct {
	Relations []RelationData `json:"relations"`
	// Shards is the dataset's shard count (0 or 1 = unsharded; validated by
	// qjoin.ValidateShards). Sharded datasets compile their plans through
	// qjoin.PrepareSharded — answers are byte-identical either way; sharding
	// changes prepare/update locality, not results.
	Shards int `json:"shards,omitempty"`
}

// RelationData carries one relation, either as row arrays or as CSV text
// (exactly one of Rows/CSV; CSV is the loadfmt relation format).
type RelationData struct {
	Name  string    `json:"name"`
	Arity int       `json:"arity"`
	Rows  [][]int64 `json:"rows,omitempty"`
	CSV   string    `json:"csv,omitempty"`
}

// LoadResponse reports the installed snapshot.
type LoadResponse struct {
	Dataset    string `json:"dataset"`
	Generation uint64 `json:"generation"`
	Relations  int    `json:"relations"`
	Tuples     int    `json:"tuples"`
	Shards     int    `json:"shards,omitempty"`
}

// DeltaRequest is the body of POST /datasets/{name}/delta: an ordered batch
// of inserts and deletes, as structured ops or as loadfmt delta text
// (exactly one of Ops/Text).
type DeltaRequest struct {
	Ops  []DeltaOp `json:"ops,omitempty"`
	Text string    `json:"text,omitempty"`
}

// DeltaOp is one structured mutation.
type DeltaOp struct {
	Op  string  `json:"op"` // "insert" or "delete"
	Rel string  `json:"rel"`
	Row []int64 `json:"row"`
}

// DeltaResponse reports the new snapshot and what migration did.
type DeltaResponse struct {
	Dataset       string `json:"dataset"`
	Generation    uint64 `json:"generation"`
	Ops           int    `json:"ops"`
	PlansMigrated int    `json:"plans_migrated"`
}

// SnapshotResponse is the body of POST /datasets/{name}/snapshot: the WAL
// was compacted into a fresh snapshot of the reported generation.
type SnapshotResponse struct {
	Dataset    string `json:"dataset"`
	Generation uint64 `json:"generation"`
	Compacted  bool   `json:"compacted"`
}

// QueryRequest is the body of POST /query.
type QueryRequest struct {
	Dataset string `json:"dataset"`
	// Query and Rank are the canonical wire forms ("R(x,y),S(y,z)",
	// "sum(x,z)"); together they are a qjoin.QuerySpec.
	Query string `json:"query"`
	Rank  string `json:"rank,omitempty"`
	// Op selects the operation: quantile | quantiles | median | approx |
	// topk | count.
	Op string `json:"op"`
	// Phi is the quantile fraction (quantile, approx); Phis the grid
	// (quantiles); Eps the approximation error (approx); K the answer count
	// (topk).
	Phi  float64   `json:"phi,omitempty"`
	Phis []float64 `json:"phis,omitempty"`
	Eps  float64   `json:"eps,omitempty"`
	K    int       `json:"k,omitempty"`
	// Mode selects the answering tier for quantile/quantiles/median:
	// exact | approx | auto (qjoin.ParseMode; empty = exact, the legacy
	// behavior). approx answers from the dataset's sketch summaries; auto
	// serves from a sketch only when it certifies the requested eps and
	// falls back to the exact engine otherwise. With a non-empty mode the
	// response reports source and error_bound.
	Mode string `json:"mode,omitempty"`
	// Timing includes elapsed_us in the response. Off by default so
	// responses are byte-deterministic (golden tests diff them).
	Timing bool `json:"timing,omitempty"`
}

// WireWeight is a ranking weight: K for SUM/MIN/MAX, Vec for LEX.
type WireWeight struct {
	K   int64   `json:"k"`
	Vec []int64 `json:"vec,omitempty"`
}

// WireAnswer is one answer row; values align with QueryResponse.Vars.
type WireAnswer struct {
	Values []int64    `json:"values"`
	Weight WireWeight `json:"weight"`
}

// QueryResponse is the body of a successful POST /query.
type QueryResponse struct {
	Dataset    string       `json:"dataset"`
	Generation uint64       `json:"generation"`
	Op         string       `json:"op"`
	Vars       []string     `json:"vars,omitempty"`
	Answers    []WireAnswer `json:"answers,omitempty"`
	Count      string       `json:"count,omitempty"` // decimal |Q(D)| (op=count)
	Cached     bool         `json:"cached"`
	ElapsedUS  int64        `json:"elapsed_us,omitempty"`
	// Source reports which tier produced the answers when the request named
	// a mode: exact | sketch ("mixed" when a multi-φ request split across
	// tiers). Absent on requests without a mode field (legacy responses are
	// byte-identical).
	Source string `json:"source,omitempty"`
	// ErrorBound is the largest certified rank-error fraction among the
	// answers (0 = exact, omitted).
	ErrorBound float64 `json:"error_bound,omitempty"`
}

// ErrorResponse is the body of every non-2xx response.
type ErrorResponse struct {
	Error string `json:"error"`
	// Field names the offending request argument when the error is a
	// validation failure (qjoin.ArgError).
	Field string `json:"field,omitempty"`
}

// DatasetInfo describes one dataset for GET /datasets and /stats.
type DatasetInfo struct {
	Name       string         `json:"name"`
	Generation uint64         `json:"generation"`
	Tuples     int            `json:"tuples"`
	Shards     int            `json:"shards,omitempty"`
	Relations  []RelationInfo `json:"relations"`
}

// RelationInfo describes one relation of a dataset.
type RelationInfo struct {
	Name   string `json:"name"`
	Arity  int    `json:"arity"`
	Tuples int    `json:"tuples"`
}

// StatsResponse is the body of GET /stats.
type StatsResponse struct {
	UptimeSeconds int64           `json:"uptime_seconds"`
	Datasets      []DatasetInfo   `json:"datasets"`
	Cache         CacheStats      `json:"cache"`
	Metrics       MetricsSnapshot `json:"metrics"`
}

// buildDB assembles a database from a load request's relations.
func buildDB(req *LoadRequest) (*qjoin.DB, error) {
	if len(req.Relations) == 0 {
		return nil, fmt.Errorf("load: no relations")
	}
	db := qjoin.NewDB()
	seen := make(map[string]bool, len(req.Relations))
	for _, r := range req.Relations {
		if r.Name == "" {
			return nil, fmt.Errorf("load: relation with empty name")
		}
		if seen[r.Name] {
			// DB.Add would silently replace the earlier rows (last wins);
			// a duplicate in one bulk load is a malformed payload.
			return nil, fmt.Errorf("load: relation %s appears twice", r.Name)
		}
		seen[r.Name] = true
		if r.Arity <= 0 {
			return nil, fmt.Errorf("load: relation %s: arity %d is not positive", r.Name, r.Arity)
		}
		rows := r.Rows
		if r.CSV != "" {
			if rows != nil {
				return nil, fmt.Errorf("load: relation %s: pass rows or csv, not both", r.Name)
			}
			var err error
			rows, err = loadfmt.ReadCSV(strings.NewReader(r.CSV), r.Arity)
			if err != nil {
				return nil, fmt.Errorf("load: relation %s: %w", r.Name, err)
			}
		}
		if err := db.Add(r.Name, r.Arity, rows); err != nil {
			return nil, err
		}
	}
	return db, nil
}

// buildDelta assembles a delta from a delta request.
func buildDelta(req *DeltaRequest) (*qjoin.Delta, error) {
	if req.Text != "" {
		if len(req.Ops) > 0 {
			return nil, fmt.Errorf("delta: pass ops or text, not both")
		}
		return loadfmt.ParseDelta(strings.NewReader(req.Text))
	}
	if len(req.Ops) == 0 {
		return nil, fmt.Errorf("delta: empty")
	}
	d := qjoin.NewDelta()
	for i, op := range req.Ops {
		if op.Rel == "" {
			return nil, fmt.Errorf("delta: op %d: empty relation name", i)
		}
		if len(op.Row) == 0 {
			return nil, fmt.Errorf("delta: op %d: empty row", i)
		}
		switch op.Op {
		case "insert":
			d.Insert(op.Rel, op.Row)
		case "delete":
			d.Delete(op.Rel, op.Row)
		default:
			return nil, fmt.Errorf("delta: op %d: unknown op %q (want insert/delete)", i, op.Op)
		}
	}
	return d, nil
}

// datasetInfo builds the DatasetInfo of a snapshot.
func datasetInfo(name string, snap Snapshot) DatasetInfo {
	inner := snap.DB.Unwrap()
	info := DatasetInfo{
		Name: name, Generation: snap.Gen, Tuples: snap.DB.Size(), Shards: snap.Shards,
	}
	for _, rn := range snap.DB.Relations() {
		r := inner.Get(rn)
		info.Relations = append(info.Relations, RelationInfo{Name: rn, Arity: r.Arity(), Tuples: r.Len()})
	}
	return info
}

// wireAnswer converts an engine answer.
func wireAnswer(a *qjoin.Answer) WireAnswer {
	return WireAnswer{
		Values: append([]int64(nil), a.Values...),
		Weight: WireWeight{K: a.Weight.K, Vec: a.Weight.Vec},
	}
}

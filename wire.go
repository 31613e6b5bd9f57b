package qjoin

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"

	"github.com/quantilejoins/qjoin/internal/ranking"
)

// This file is the wire protocol: the textual form of queries and rankings
// ("R(x,y),S(y,z)", "sum(x,z)"), the domain of every request argument, and
// the one step that turns a raw request into an operation a plan executes
// (Request.Resolve, Prepared.Run). The qjserve HTTP daemon resolves every
// POST /query through that step; cmd/qjq, whose flags are not a wire request
// (-eps without -mode selects the lossy driver, -sample and -stats run per
// φ), calls the same domain checks. Either way a bad input is rejected with
// a typed *ArgError naming the field.
//
// The textual form is canonical: FormatQuery(ParseQuery(s)) normalizes
// whitespace and nothing else, and ParseQuery(FormatQuery(q)) reproduces q
// exactly. The serving layer keys its plan cache on the formatted strings.

// ArgError reports a request argument that failed validation at the API
// boundary. Field names the offending argument ("phi", "eps", "k", "query",
// "rank"); Reason says what was wrong. HTTP front ends map an ArgError to a
// 400 response.
type ArgError struct {
	Field  string
	Reason string
}

func (e *ArgError) Error() string { return "qjoin: bad " + e.Field + ": " + e.Reason }

func argErrorf(field, format string, args ...any) *ArgError {
	return &ArgError{Field: field, Reason: fmt.Sprintf(format, args...)}
}

// validatePhi checks a quantile fraction: φ must be a real number in [0,1].
func validatePhi(phi float64) error {
	if phi != phi { // NaN
		return argErrorf("phi", "φ=NaN is not a quantile fraction")
	}
	if phi < 0 || phi > 1 {
		return argErrorf("phi", "φ=%v outside [0,1]", phi)
	}
	return nil
}

// ValidateEpsilon checks an approximation error: ε must be a real number
// in (0,1) — the domain the (φ±ε)-approximation is defined on, and the
// range the trimming constructions accept. An exact computation passes no
// ε at all, not ε = 0.
func ValidateEpsilon(eps float64) error {
	if eps != eps {
		return argErrorf("eps", "NaN is not an approximation error")
	}
	if eps <= 0 || eps >= 1 {
		return argErrorf("eps", "%v outside (0,1)", eps)
	}
	return nil
}

// ValidateDelta checks a sampling failure probability: δ must be a real
// number in (0,1).
func ValidateDelta(delta float64) error {
	if delta != delta {
		return argErrorf("delta", "NaN is not a failure probability")
	}
	if delta <= 0 || delta >= 1 {
		return argErrorf("delta", "%v outside (0,1)", delta)
	}
	return nil
}

// ParseMode parses the wire form of an answering mode: "exact", "approx" or
// "auto" (case-insensitive; the empty string selects exact, the legacy
// behavior of requests that predate the mode field). Anything else is a
// *ArgError, which HTTP front ends map to a 400. Both the qjq -mode flag and
// the qjserve "mode" request field go through this single parse.
func ParseMode(s string) (Mode, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "exact":
		return ModeExact, nil
	case "approx":
		return ModeApprox, nil
	case "auto":
		return ModeAuto, nil
	}
	return ModeExact, argErrorf("mode", "unknown mode %q (want exact, approx or auto)", s)
}

// validateTopK checks a top-k count: k must be ≥ 0.
func validateTopK(k int) error {
	if k < 0 {
		return argErrorf("k", "%d is negative", k)
	}
	return nil
}

// MaxPhis bounds how many φ's one quantile-grid request may carry. A grid is
// answered by one shared descent that nothing can interrupt once it started,
// holding the request's admission slot throughout, so its size has to be
// bounded where it arrives: 1024 covers a per-mille grid, and the sketch tier
// serves anything finer at a certified error.
const MaxPhis = 1024

// MaxTopK bounds the k of one topk request. The answers are collected into one
// response by an enumeration nothing can interrupt once it started, holding
// the request's admission slot throughout, so k has to be bounded where it
// arrives, as a grid is: 10 000 is far past a ranked page, and a quantile
// grid looks further down the order at a bounded cost. The library's TopK
// takes any k ≥ 0.
const MaxTopK = 10000

// validateGrid checks a quantile grid where it arrives: at most MaxPhis
// fractions (a *ArgError on "phis" beyond that), each a valid φ.
func validateGrid(phis []float64) error {
	if len(phis) > MaxPhis {
		return argErrorf("phis", "%d quantile fractions exceed the cap %d", len(phis), MaxPhis)
	}
	return validatePhis(phis)
}

// validatePhis checks every fraction of a grid.
func validatePhis(phis []float64) error {
	for _, phi := range phis {
		if err := validatePhi(phi); err != nil {
			return err
		}
	}
	return nil
}

// MaxShards bounds an explicit shard-count request. Shards are compiled
// engines, each with its own join tree and counting state: past a few times
// GOMAXPROCS the per-shard fixed cost dominates any prepare- or update-side
// win, so larger values are typos or abuse, not tuning.
const MaxShards = 256

// ValidateShards checks a shard-count knob: 0 selects the default (a single
// shard, i.e. the unsharded engine), positive values are taken as-is up to
// MaxShards, and anything negative or beyond the cap is rejected with a
// *ArgError. Both the qjq/qjserve -shards flags and the server dataset
// "shards" field go through this single check.
func ValidateShards(shards int) error {
	if shards < 0 {
		return argErrorf("shards", "%d is negative (0 selects a single shard)", shards)
	}
	if shards > MaxShards {
		return argErrorf("shards", "%d exceeds the cap %d", shards, MaxShards)
	}
	return nil
}

// Request is one query operation as it arrives at a front end — the fields of
// a qjserve POST /query body — before any check.
type Request struct {
	// Query and Rank are a QuerySpec; Rank may be empty for count.
	Query, Rank string
	// Op is quantile | quantiles | median | approx | topk | count; empty
	// selects quantile.
	Op string
	// Mode is exact | approx | auto on quantile/quantiles/median; empty means
	// the request names no mode (answered exactly).
	Mode string
	Phi  float64   // quantile, approx
	Phis []float64 // quantiles
	Eps  float64   // approx; the error budget beside a mode
	K    int       // topk
}

// Operation is a Request that passed every rule of the wire protocol, in the
// form a plan executes (Prepared.Run).
type Operation struct {
	// Op is the operation's wire name, defaulted.
	Op string
	// Query and Rank are the parsed spec; Rank is nil only for count.
	Query *Query
	Rank  *Ranking
	// Phis holds the fractions to answer, in request order: the one φ of
	// quantile and approx, 0.5 for median, the grid of quantiles.
	Phis []float64
	// Mode is ModeExact unless the request named another.
	Mode Mode
	// Eps is the ε the plan sees: op=approx's, or the budget beside a
	// non-exact mode. A stray eps on any other request is dropped here, so it
	// cannot silently turn an exact run lossy.
	Eps float64
	K   int
}

// Resolve checks a request against the wire protocol and returns the
// operation it asks for; every failure is a *ArgError naming the field.
// Nothing here touches a dataset, so a bad request never costs a Prepare.
func (r *Request) Resolve() (Operation, error) {
	op := Operation{Op: r.Op, Mode: ModeExact, K: r.K}
	var err error
	if op.Query, op.Rank, err = ParseQuerySpec(QuerySpec{Query: r.Query, Rank: r.Rank}); err != nil {
		return op, err
	}
	if op.Op == "" {
		op.Op = "quantile"
	}
	if op.Op != "count" && op.Rank == nil {
		return op, argErrorf("rank", "operation %s needs a ranking", op.Op)
	}
	if r.Mode != "" {
		switch op.Op {
		case "quantile", "quantiles", "median":
		default:
			return op, argErrorf("mode", "mode applies to quantile/quantiles/median, not %s", op.Op)
		}
		if op.Mode, err = ParseMode(r.Mode); err != nil {
			return op, err
		}
		if r.Eps != 0 {
			if err := ValidateEpsilon(r.Eps); err != nil {
				return op, err
			}
		}
		if op.Mode != ModeExact {
			op.Eps = r.Eps
		}
	}
	switch op.Op {
	case "count":
	case "quantile":
		op.Phis = []float64{r.Phi}
		err = validatePhi(r.Phi)
	case "median":
		op.Phis = []float64{0.5}
	case "approx":
		op.Phis, op.Eps = []float64{r.Phi}, r.Eps
		if err = validatePhi(r.Phi); err == nil {
			err = ValidateEpsilon(r.Eps)
		}
	case "quantiles":
		if len(r.Phis) == 0 {
			return op, argErrorf("phis", "empty φ grid")
		}
		op.Phis = r.Phis
		err = validateGrid(r.Phis)
	case "topk":
		if err = validateTopK(r.K); err == nil && r.K > MaxTopK {
			err = argErrorf("k", "%d exceeds the cap %d", r.K, MaxTopK)
		}
	default:
		return op, argErrorf("op", "unknown operation %s (want quantile/quantiles/median/approx/topk/count)", op.Op)
	}
	return op, err
}

// QuerySpec is the wire form of a (query, ranking) pair. It marshals to
//
//	{"query": "R(x,y),S(y,z)", "rank": "sum(x,z)"}
//
// and round-trips through JSON losslessly: the strings are the canonical
// textual forms produced by FormatQuery and FormatRanking.
type QuerySpec struct {
	Query string `json:"query"`
	Rank  string `json:"rank,omitempty"`
}

// ParseQuerySpec decodes a wire spec into a compiled query and ranking. The
// ranking is nil when the spec's Rank is empty (count-only requests need no
// ranking). Errors are *ArgError values naming the bad field.
func ParseQuerySpec(spec QuerySpec) (*Query, *Ranking, error) {
	q, err := ParseQuery(spec.Query)
	if err != nil {
		return nil, nil, err
	}
	if strings.TrimSpace(spec.Rank) == "" {
		return q, nil, nil
	}
	f, err := ParseRanking(spec.Rank)
	if err != nil {
		return nil, nil, err
	}
	for _, v := range f.Vars {
		if !q.HasVar(v) {
			return nil, nil, argErrorf("rank", "ranked variable %s does not occur in the query", v)
		}
	}
	return q, f, nil
}

// ParseQuery parses the textual query form 'R(x,y),S(y,z)' into a Query.
// Whitespace around names, variables and commas is ignored; atoms are
// separated by commas, and a variable name holds no parenthesis and no inner
// whitespace (so no two spellings of one query parse to different queries).
func ParseQuery(s string) (*Query, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil, argErrorf("query", "empty query")
	}
	var atoms []Atom
	rest := s
	for rest != "" {
		open := strings.IndexByte(rest, '(')
		if open <= 0 {
			return nil, argErrorf("query", "bad syntax near %q", rest)
		}
		closeIdx := strings.IndexByte(rest, ')')
		if closeIdx < open {
			return nil, argErrorf("query", "unbalanced parentheses near %q", rest)
		}
		name := strings.TrimSpace(rest[:open])
		if strings.ContainsAny(name, ",()") || name == "" {
			return nil, argErrorf("query", "bad relation name %q", name)
		}
		vars, bad := parseVars(rest[open+1 : closeIdx])
		if bad != "" {
			return nil, argErrorf("query", "%s in atom %s", bad, name)
		}
		atoms = append(atoms, NewAtom(name, vars...))
		rest = strings.TrimSpace(rest[closeIdx+1:])
		if rest != "" && rest[0] != ',' {
			return nil, argErrorf("query", "missing comma before %q", rest)
		}
		rest = strings.TrimSpace(strings.TrimPrefix(rest, ","))
	}
	return NewQuery(atoms...), nil
}

// parseVars splits the comma-separated variable list of an atom or a ranking;
// bad says what is wrong with the list, empty when nothing is.
func parseVars(list string) (vars []Var, bad string) {
	for _, v := range strings.Split(list, ",") {
		v = strings.TrimSpace(v)
		if v == "" {
			return nil, "empty variable"
		}
		if strings.ContainsFunc(v, func(r rune) bool { return r == '(' || r == ')' || unicode.IsSpace(r) }) {
			return nil, fmt.Sprintf("bad variable name %q", v)
		}
		vars = append(vars, Var(v))
	}
	return vars, ""
}

// FormatQuery renders a query in the canonical textual form parsed by
// ParseQuery: atoms joined by commas, no whitespace.
func FormatQuery(q *Query) string {
	parts := make([]string, len(q.Atoms))
	for i, a := range q.Atoms {
		parts[i] = a.String()
	}
	return strings.Join(parts, ",")
}

// ParseRanking parses 'sum(x,y)' / 'min(x)' / 'max(x,y)' / 'lex(x,y)' (the
// aggregate name is case-insensitive). The resulting ranking uses the
// default identity weights.
func ParseRanking(s string) (*Ranking, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil, argErrorf("rank", "empty ranking")
	}
	open := strings.IndexByte(s, '(')
	closeIdx := strings.LastIndexByte(s, ')')
	if open <= 0 || closeIdx != len(s)-1 {
		return nil, argErrorf("rank", "bad syntax %q", s)
	}
	vars, bad := parseVars(s[open+1 : closeIdx])
	if bad != "" {
		return nil, argErrorf("rank", "%s in %q", bad, s)
	}
	switch strings.ToLower(strings.TrimSpace(s[:open])) {
	case "sum":
		return Sum(vars...), nil
	case "min":
		return Min(vars...), nil
	case "max":
		return Max(vars...), nil
	case "lex":
		return Lex(vars...), nil
	}
	return nil, argErrorf("rank", "unknown aggregate in %q (want sum/min/max/lex)", s)
}

// FormatRanking renders a ranking in the canonical textual form parsed by
// ParseRanking. It fails on a ranking with a custom Weight function — those
// exist only in-process and have no wire form.
func FormatRanking(f *Ranking) (string, error) {
	if f.Weight != nil {
		return "", argErrorf("rank", "custom Weight functions have no wire form")
	}
	var agg string
	switch f.Agg {
	case ranking.Sum:
		agg = "sum"
	case ranking.Min:
		agg = "min"
	case ranking.Max:
		agg = "max"
	case ranking.Lex:
		agg = "lex"
	default:
		return "", argErrorf("rank", "unknown aggregate %v", f.Agg)
	}
	parts := make([]string, len(f.Vars))
	for i, v := range f.Vars {
		parts[i] = string(v)
	}
	return agg + "(" + strings.Join(parts, ",") + ")", nil
}

// ParsePhis parses a comma-separated list of quantile fractions: at most
// MaxPhis of them, each in [0,1].
func ParsePhis(s string) ([]float64, error) {
	parts := strings.Split(s, ",")
	out := make([]float64, 0, len(parts))
	for _, part := range parts {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		phi, err := strconv.ParseFloat(part, 64)
		if err != nil {
			return nil, argErrorf("phi", "bad value %q", part)
		}
		out = append(out, phi)
	}
	if len(out) == 0 {
		return nil, argErrorf("phi", "empty list")
	}
	return out, validateGrid(out)
}

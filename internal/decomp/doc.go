// Package decomp rewrites cyclic join queries into acyclic queries over
// materialized hypertree-decomposition bags, so the acyclic quantile engine
// (pivoting, trims, counting, sketches, snapshots) runs unchanged on queries
// it would otherwise reject.
//
// The pipeline has two deterministic halves:
//
//   - Decompose inspects only the query shape. It searches canonical
//     set-partitions of the atom list, in ascending width (atoms per bag),
//     and accepts the first partition whose bag hypergraph admits a join
//     tree. The result — bag membership, per-bag join order, bag variable
//     orders, and bag relation names — is a pure function of the query, so
//     a snapshot restore can recompute it and land on the identical plan.
//
//   - Materialize joins each bag's covering atoms into one relation over
//     the bag's full variable set, using the columnar relation layer and
//     the parallel runtime (chunk-ordered probes, so output row order is
//     independent of worker count). Because every bag carries all of its
//     variables (χ(t) = vars(λ(t))), the acyclic join of the bag relations
//     equals the original cyclic join exactly — no projection is lossy.
//
// Contract notes:
//
//   - Input queries must be in normal form (run query.Normalize first;
//     Decompose rejects anything else) and input databases deduplicated: a
//     bag is joined from its atoms' relations as they are, and bag relations
//     are then distinct by construction and are marked so.
//   - Width is capped at MaxDecompWidth; queries with no acyclic bag cover
//     at or below the cap fail with a typed *WidthError naming the query
//     shape. The canonical search is also budgeted (searchBudget node
//     visits per width) so adversarial shapes fail fast — the budget is
//     deterministic, and every partition of a query with up to nine atoms
//     fits inside it.
//   - Rematerialize rebuilds only bags covering a changed relation and
//     shares the untouched bag relations from the previous database by
//     pointer, which keeps incremental updates proportional to the touched
//     bags rather than the whole decomposition.
package decomp

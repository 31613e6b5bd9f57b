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
//     tree, tested by hypergraph.GYO, the ear removal jointree.Build runs.
//     The result — bag membership, per-bag join order, bag variable orders,
//     and bag relation names — is a pure function of the query, so a
//     snapshot restore can recompute it and land on the identical plan.
//
//   - MaterializeBags builds each bag as the join of its atoms semijoined
//     with the atoms it covers — bag = ⋈ λ(t) ⋉ every atom outside λ(t) whose
//     variables lie in χ(t) — into one relation over the bag's full variable
//     set, using the columnar relation layer. Because every bag carries all of
//     its variables (χ(t) = vars(λ(t))), the acyclic join of the bag relations
//     equals the original cyclic join exactly — no projection is lossy — and a
//     semijoin with a source atom drops no answer, since every answer's
//     projection onto that atom is one of its rows; it only drops rows that
//     join to nothing. The triangle's bag {R,S} covers T, so it holds exactly
//     the triangle's answers instead of the pairwise join R⋈S. Which atoms a
//     bag covers depends on the query shape alone, so a restore recomputes
//     them with the decomposition.
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
//   - Rematerialize rebuilds only the bags that hold or cover a changed
//     relation — a bag's rows depend on both — and shares the untouched bag
//     relations from the previous database by pointer, which keeps
//     incremental updates proportional to the touched bags rather than the
//     whole decomposition.
package decomp

"""Certified Eq. 4 optima: branch-and-bound over a family's column space.

The heuristic zoo (:mod:`repro.search.strategies`) descends to a local
optimum with no distance-to-optimal statement.  This module proves one:
columns of the hash matrix are assigned one *position* at a time, and a
partial assignment is pruned as soon as an admissible lower bound on
every completion meets the incumbent.

A search node is the tuple of columns fixed for positions
``0..k-1``; children extend position ``k`` with each mask of the
family's absolute per-position alphabet (:meth:`FunctionFamily.column_domain`).
Three prunes keep the tree far below the exhaustive sweep:

* **admissible Eq. 4 bound** — support vectors annihilated by every
  fixed column *and* by the span of every remaining position's domain
  are inseparable: they stay in the null space of every completion, so
  their weight bounds every leaf below the node.  On top of that
  inseparable core, each remaining position can remove at most its
  best single-column odd-parity weight measured on the node's residue
  (positions sharing one domain can use each mask only once — columns
  must stay independent — so their group contributes its *top-g*
  removals).  Subtracting that removal budget from the separable
  residue tightens the bound without ever exceeding a true completion
  cost.  Permutation-based families get a second, usually far
  tighter admissible bound layered on top: their columns
  ``e_c | s_c`` make a survivor's low bits a *function* of its high
  bits, so every residue group (by high bits) holding one vector per
  free-index-bit completion is hit by all remaining assignments and
  contributes its minimum weight (see :func:`_group_shift`);
* **full-rank feasibility** — candidates reducing to zero against the
  RREF basis of the fixed columns (``gf2.batched``) can never reach
  rank ``m``, and a node whose fixed span plus remaining-domain span
  cannot reach rank ``m`` is abandoned outright;
* **canonical-key symmetry breaking** — the cost and the admissible
  bound of a node depend on the fixed columns only through their span
  (the eventual null space is the orthogonal complement of the full
  column span), so partial assignments sharing an RREF basis are
  expanded once.

The frontier is best-first on the bound, seeded with the incumbent from
a fast steepest climb so pruning starts at a realistic cost instead of
infinity.  An exhausted frontier certifies the incumbent
(``certified=True``, ``optimality_gap=0``); hitting ``max_nodes``
returns the incumbent with the proven gap to the cheapest open node.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass

import numpy as np

from repro.gf2.batched import reduce_by_basis
from repro.gf2.hashfn import XorHashFunction
from repro.gf2.spaces import rref_basis
from repro.names import BRANCH_BOUND_NODES
from repro.profiling.conflict_profile import ConflictProfile
from repro.profiling.estimator import MissEstimator
from repro.search.families import FunctionFamily, PermutationFamily
from repro.search.result import SearchResult

__all__ = [
    "BranchBound",
    "branch_bound_search",
    "admissible_lower_bound",
    "exhaustive_node_count",
]

#: Default expansion budget.  Far above what the Table-2-size instances
#: need (hundreds of nodes) while bounding runaway general-family runs.
DEFAULT_MAX_NODES = BRANCH_BOUND_NODES


def _column_domains(family: FunctionFamily) -> list[np.ndarray]:
    domains = []
    for c in range(family.m):
        domain = np.asarray(family.column_domain(c), dtype=np.uint64)
        if len(domain) == 0:
            raise ValueError(
                f"family {family.name!r} has an empty domain for column {c}"
            )
        domains.append(domain)
    return domains


def _suffix_bases(
    domains: list[np.ndarray], n: int
) -> list[tuple[int, ...]]:
    """``bases[k]`` = RREF basis of ``span(union of domains[k:])``.

    The orthogonal complement of ``bases[k]`` is exactly the set of
    vectors no assignment of positions ``k..m-1`` can separate — the
    inseparable half of the admissible bound.  ``bases[m]`` is empty,
    making the level-``m`` bound the exact leaf cost.
    """
    bases: list[tuple[int, ...]] = [()] * (len(domains) + 1)
    acc: tuple[int, ...] = ()
    for k in range(len(domains) - 1, -1, -1):
        acc = rref_basis(tuple(int(v) for v in domains[k]) + acc, n)
        bases[k] = acc
    return bases


def exhaustive_node_count(family: FunctionFamily) -> int:
    """Nodes an *unpruned* sweep of the same assignment tree expands.

    One node per proper prefix of the per-position domain cross
    product — level-``m-1`` nodes score their leaves inline, matching
    the accounting of ``nodes_expanded``.  This is the reference
    denominator for the pruned fraction reported in
    ``BENCH_search.json``: it measures what the admissible bound, the
    rank screen and the symmetry dedup together eliminate, against a
    depth-first enumeration with none of them.
    """
    sizes = [len(d) for d in _column_domains(family)]
    total = 0
    width = 1
    for size in sizes:
        total += width
        width *= size
    return total


def _group_shift(family: FunctionFamily) -> int | None:
    """Where the permutation suffix bound applies, the high-bit split.

    Permutation-based columns are ``e_c | s_c`` with ``s_c`` drawn from
    the bits above ``m``, so a support vector's surviving low bits are
    *determined* by its high bits: ``v_c = parity(v_high & s_c)``.
    Group the residue by ``v >> m`` and each group holds at most one
    vector per assignment of the still-free index bits; a group with
    every completion present is therefore hit by *all* remaining
    assignments and contributes its minimum weight to every leaf below
    the node (:meth:`MissEstimator.complete_group_minima`).
    """
    if isinstance(family, PermutationFamily) and family.n > family.m:
        return family.m
    return None


def _removal_budgets(
    estimator: MissEstimator,
    domains: list[np.ndarray],
    signatures: list[bytes],
    alive: np.ndarray,
    level: int,
    candidates: np.ndarray,
) -> np.ndarray:
    """Per-candidate removal budget for children of a level-``level`` node.

    Upper bound on the residue weight the positions ``level+1..m-1``
    can still separate, given that a child consumes ``candidates[i]``
    at position ``level``.  Each remaining position removes at most the
    odd-parity weight of its best domain mask *measured on the node's
    residue* (child residues only shrink); positions sharing one domain
    must use distinct masks, so their group contributes the sum of its
    top-``g`` removals — minus the consumed candidate's entry when the
    candidate is drawn from that same domain.
    """
    m = len(domains)
    total = estimator.weight_within(alive)
    budgets = np.zeros(len(candidates), dtype=np.int64)
    groups: dict[bytes, list[int]] = {}
    for c in range(level + 1, m):
        groups.setdefault(signatures[c], []).append(c)
    for signature, positions in groups.items():
        domain = domains[positions[0]]
        removed = total - estimator.even_weights_within(domain, alive)
        order = np.argsort(removed, kind="stable")[::-1]
        g = len(positions)
        top = order[:g]
        base = int(removed[top].sum())
        budgets += base
        if signature == signatures[level]:
            # The child's own mask is spent: positions sharing its
            # domain must pick g *other* masks, so swap the candidate's
            # entry (when it made the top-g) for the next-best value.
            next_value = int(removed[order[g]]) if len(order) > g else 0
            in_top = np.zeros(len(domain), dtype=bool)
            in_top[top] = True
            budgets[in_top] += next_value - removed[in_top]
    return budgets


def admissible_lower_bound(
    estimator: MissEstimator, family: FunctionFamily, columns
) -> int:
    """Admissible Eq. 4 lower bound of one partial column assignment.

    Never exceeds the estimated misses of *any* full-rank completion of
    ``columns`` by masks from the remaining positions' domains
    (property-tested).  At ``len(columns) == m`` it equals the exact
    Eq. 4 cost.
    """
    columns = tuple(int(c) for c in columns)
    level = len(columns)
    if not 0 <= level <= family.m:
        raise ValueError(f"{level} fixed columns but m={family.m}")
    domains = _column_domains(family)
    suffix = _suffix_bases(domains, family.n)
    signatures = [d.tobytes() for d in domains]
    alive = estimator.annihilated_mask(columns)
    residue = estimator.weight_within(alive)
    inseparable = estimator.weight_within(
        alive & estimator.annihilated_mask(suffix[level])
    )
    if level == family.m:
        return residue
    budget = 0
    groups: dict[bytes, list[int]] = {}
    for c in range(level, family.m):
        groups.setdefault(signatures[c], []).append(c)
    for positions in groups.values():
        domain = domains[positions[0]]
        removed = residue - estimator.even_weights_within(domain, alive)
        removed = np.sort(removed, kind="stable")[::-1]
        budget += int(removed[: len(positions)].sum())
    bound = inseparable + max(0, residue - inseparable - budget)
    shift = _group_shift(family)
    if shift is not None:
        group = estimator.complete_group_minima(
            np.array([0], dtype=np.uint64),
            alive,
            shift,
            1 << (family.m - level),
        )
        bound = max(bound, int(group[0]))
    return bound


def branch_bound_search(
    profile: ConflictProfile,
    family: FunctionFamily,
    *,
    start: XorHashFunction | None = None,
    max_steps: int | None = None,
    estimator: MissEstimator | None = None,
    max_nodes: int = DEFAULT_MAX_NODES,
) -> SearchResult:
    """Exact best-first search over ``family``'s column space.

    Returns a :class:`SearchResult` whose ``certified`` flag states
    whether ``estimated_misses`` is the proven family optimum of the
    Eq. 4 estimate; ``optimality_gap`` is the distance to the best
    proven lower bound (0 when certified).  ``max_steps`` only bounds
    the incumbent-seeding climb; ``max_nodes`` bounds expansions.
    """
    t0 = time.perf_counter()
    if max_nodes < 1:
        raise ValueError(f"max_nodes must be >= 1, got {max_nodes}")
    if estimator is None:
        estimator = MissEstimator(profile)
    n, m = family.n, family.m
    domains = _column_domains(family)
    suffix = _suffix_bases(domains, n)
    signatures = [d.tobytes() for d in domains]
    group_shift = _group_shift(family)
    evaluations_before = estimator.evaluations

    # Incumbent: the paper's steepest climb (plus the caller's start,
    # when it adds a distinct basin) closes the bound from round one.
    from repro.search.batched import descend_front, pick_steepest

    starts = [family.start()]
    if start is not None and start.canonical_key() != starts[0].canonical_key():
        starts.append(start)
    seeds = descend_front(
        estimator, family, starts, pick_steepest, max_steps,
        strategy_name="branch-bound-seed",
    )
    start_cost = seeds[0].start_misses
    seed_best = min(seeds, key=lambda r: r.estimated_misses)
    best_fn, best_cost = seed_best.function, seed_best.estimated_misses
    history = [start_cost]
    if best_cost != start_cost:
        history.append(best_cost)
    improvements = 0

    nodes_expanded = 0
    nodes_pruned = 0
    counter = 0
    # Heap entries: (lower bound, -level, tiebreak, columns).  Deeper
    # nodes first among equal bounds reaches leaves (and incumbent
    # updates) sooner.
    heap: list[tuple[int, int, int, tuple[int, ...]]] = [(0, 0, 0, ())]
    seen: set[tuple[int, ...]] = {()}
    budget_exhausted = False

    while heap:
        lb, _, _, columns = heapq.heappop(heap)
        if lb >= best_cost:
            # Best-first: every open node's bound is at least this one.
            nodes_pruned += len(heap) + 1
            heap = []
            break
        if nodes_expanded >= max_nodes:
            heapq.heappush(heap, (lb, -len(columns), counter, columns))
            budget_exhausted = True
            break
        nodes_expanded += 1
        level = len(columns)
        candidates = domains[level]

        # Full-rank feasibility: the candidate must extend the fixed
        # span, and the extended span must still be completable to
        # rank m by the remaining domains.
        basis = rref_basis(columns, n)
        feasible = reduce_by_basis(candidates, basis) != 0
        reachable = rref_basis(columns + suffix[level + 1], n)
        if len(reachable) < m - 1:
            nodes_pruned += len(candidates)
            continue
        if len(reachable) == m - 1:
            feasible &= reduce_by_basis(candidates, reachable) != 0
        if not feasible.any():
            nodes_pruned += len(candidates)
            continue

        alive = estimator.annihilated_mask(columns)
        if level + 1 == m:
            # Children are leaves: the bound machinery degenerates to
            # the exact Eq. 4 cost, so score and fold them directly.
            costs = estimator.even_weights_within(candidates, alive)
            for i in np.argsort(costs, kind="stable"):
                if int(costs[i]) >= best_cost:
                    break
                if not feasible[i]:
                    continue
                best_cost = int(costs[i])
                best_fn = XorHashFunction(n, columns + (int(candidates[i]),))
                history.append(best_cost)
                improvements += 1
            nodes_pruned += len(candidates)
            continue

        inseparable = estimator.even_weights_within(
            candidates,
            alive & estimator.annihilated_mask(suffix[level + 1]),
        )
        totals = estimator.even_weights_within(candidates, alive)
        budgets = _removal_budgets(
            estimator, domains, signatures, alive, level, candidates
        )
        bounds = inseparable + np.maximum(0, totals - inseparable - budgets)
        if group_shift is not None:
            group = estimator.complete_group_minima(
                candidates, alive, group_shift, 1 << (m - level - 1)
            )
            bounds = np.maximum(bounds, group)
        order = np.argsort(bounds, kind="stable")
        for position, i in enumerate(order):
            child_lb = int(bounds[i])
            if child_lb >= best_cost:
                nodes_pruned += len(candidates) - position
                break
            if not feasible[i]:
                nodes_pruned += 1
                continue
            child = columns + (int(candidates[i]),)
            key = rref_basis(child, n)
            if key in seen:
                nodes_pruned += 1
                continue
            seen.add(key)
            counter += 1
            heapq.heappush(heap, (child_lb, -(level + 1), counter, child))

    if budget_exhausted and heap:
        proven = min(min(entry[0] for entry in heap), best_cost)
    else:
        proven = best_cost
    gap = best_cost - proven
    return SearchResult(
        function=best_fn,
        estimated_misses=best_cost,
        start_misses=start_cost,
        steps=improvements,
        evaluations=estimator.evaluations - evaluations_before,
        seconds=time.perf_counter() - t0,
        history=history,
        family_name=family.name,
        strategy_name="branch-bound",
        certified=(gap == 0),
        optimality_gap=gap,
        nodes_expanded=nodes_expanded,
        nodes_pruned=nodes_pruned,
    )


@dataclass(frozen=True)
class BranchBound:
    """Exact search strategy wrapping :func:`branch_bound_search`.

    Plugs into every seam a heuristic strategy does (``repro search
    --strategy branch-bound``, campaign grids, ``optimize_for_trace``);
    the returned result carries ``certified`` / ``optimality_gap`` /
    node counters through reports and cached artifacts.
    """

    max_nodes: int = DEFAULT_MAX_NODES
    deterministic = True

    def __post_init__(self):
        if self.max_nodes < 1:
            raise ValueError(f"max_nodes must be >= 1, got {self.max_nodes}")

    @property
    def name(self) -> str:
        if self.max_nodes == DEFAULT_MAX_NODES:
            return "branch-bound"
        return f"branch-bound(nodes={self.max_nodes})"

    def search(
        self, profile, family, *, start=None, max_steps=None, estimator=None,
        rng=None,
    ):
        return branch_bound_search(
            profile, family, start=start, max_steps=max_steps,
            estimator=estimator, max_nodes=self.max_nodes,
        )

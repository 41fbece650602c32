"""Independent reference implementations used as test oracles.

Everything here enumerates by brute force and stays deliberately separate
from the implementation paths it checks.
"""

from __future__ import annotations

import functools
import itertools
import math
import random

from ihswcsp.model import (
    CostFunction,
    CostVector,
    HardConstraint,
    LevelSpace,
    WcspInstance,
    evaluate,
    make_cost_function,
)


def dominates(v: CostVector, u: CostVector) -> bool:
    """True iff ``u <= v`` componentwise, i.e. ``v`` dominates ``u``."""
    if len(v) != len(u):
        raise ValueError(f"vector length mismatch: {len(v)} != {len(u)}")
    return all(a <= b for a, b in zip(u, v))


def hits(h: CostVector, cores) -> bool:
    """True iff no vector in ``cores`` dominates ``h``."""
    return all(not dominates(k, h) for k in cores)


def pos(v: int) -> int:
    """The positive SAT literal of variable ``v``."""
    return v << 1


def neg(v: int) -> int:
    """The negative SAT literal of variable ``v``."""
    return (v << 1) | 1


def add_clause(solver, lits) -> None:
    """Add a permanent clause of any literals to ``solver``, creating its
    variables: duplicates are removed, a tautology is dropped, and the
    sorted rest goes to ``Solver.add_clauses``, which takes only sorted
    clauses on distinct, existing variables."""
    out = sorted(set(lits))
    if out:
        solver.ensure_var(out[-1] >> 1)
    if not solver.ok:
        return
    solver.cancel_until(0)
    for a, b in zip(out, out[1:]):
        if b == a ^ 1:
            return  # tautology
    solver.add_clauses((out,))


@functools.lru_cache(maxsize=None)
def _literal_masks(num_vars: int) -> tuple[int, ...]:
    """Per literal, the bitmask of the ``2**num_vars`` rows (bit ``v`` of the
    row index is variable ``v``) where it is true.  Variable ``v``'s rows
    repeat with period ``2 * 2**v``: the upper half of each period is set.
    One period is doubled until it spans every row."""
    n = 1 << num_vars
    full = (1 << n) - 1
    masks = []
    for v in range(num_vars):
        half = 1 << v
        rows, width = ((1 << half) - 1) << half, 2 * half
        while width < n:
            rows |= rows << width
            width *= 2
        masks += [rows, full ^ rows]
    return tuple(masks)


def truth_table(num_vars: int, clauses) -> int:
    """Bitmask over all ``2**num_vars`` assignments (bit ``v`` of the row
    index is variable ``v``): bit ``r`` is set iff row ``r`` satisfies every
    clause."""
    masks = _literal_masks(num_vars)
    sat = (1 << (1 << num_vars)) - 1
    for clause in clauses:
        acc = 0
        for lit in clause:
            acc |= masks[lit]
        sat &= acc
        if not sat:
            break
    return sat


def truth_table_sat(num_vars: int, clauses, assumptions=()) -> bool:
    """Truth-table satisfiability for CNFs up to ~22 variables."""
    return bool(truth_table(num_vars, [*clauses, *([a] for a in assumptions)]))


def random_cnf(rng: random.Random, max_vars: int = 14, max_width: int = 3):
    n = rng.randint(2, max_vars)
    m = rng.randint(1, int(4.5 * n))
    clauses = []
    for _ in range(m):
        width = rng.randint(1, min(max_width, n))
        vs = rng.sample(range(n), width)
        clauses.append([pos(v) if rng.random() < 0.5 else neg(v) for v in vs])
    return n, clauses


def maximal_subset(vectors) -> set[CostVector]:
    """The members of ``vectors`` not dominated by any other member."""
    vs = set(vectors)
    return {u for u in vs if not any(v != u and dominates(v, u) for v in vs)}


def enumerate_hitting(levels, cores):
    """Exhaustive minimum over the full level grid: returns
    (min_cost, lex_min_vector) or (None, None) when nothing hits.  Each
    component's levels ascend and the sort by cost is stable, so the first
    hitting vector is the lexicographically smallest of minimum cost."""
    for h in sorted(itertools.product(*levels), key=sum):
        if hits(h, cores):
            return sum(h), h
    return None, None


def random_level_space(rng: random.Random, max_components: int = 6, max_levels: int = 4):
    m = rng.randint(1, max_components)
    levels = []
    for _ in range(m):
        count = rng.randint(1, max_levels)
        levels.append(tuple(sorted(rng.sample(range(0, 12), count))))
    return tuple(levels)


def random_cores(rng: random.Random, levels, max_cores: int = 8):
    cores = []
    for _ in range(rng.randint(0, max_cores)):
        cores.append(tuple(rng.choice(ls) for ls in levels))
    return cores


def random_tiny_instance(
    rng: random.Random,
    max_vars: int = 4,
    max_dom: int = 3,
    max_funcs: int = 3,
    allow_hard: bool = True,
    top: int = 50,
) -> WcspInstance:
    """Hand-rolled instances exercising features the family generators never
    produce: unary scopes, nonzero defaults, hard constraints, odd level sets."""
    n = rng.randint(1, max_vars)
    domains = tuple(rng.randint(1, max_dom) for _ in range(n))
    hard = []
    if allow_hard and rng.random() < 0.4:
        arity = rng.randint(1, min(2, n))
        scope = tuple(rng.sample(range(n), arity))
        cells = list(itertools.product(*(range(domains[x]) for x in scope)))
        count = rng.randint(0, max(0, len(cells) - 1))
        if count:
            hard.append(HardConstraint(scope, frozenset(rng.sample(cells, count))))
    funcs = []
    for _ in range(rng.randint(1, max_funcs)):
        arity = rng.randint(1, min(2, n))
        scope = tuple(rng.sample(range(n), arity))
        cells = list(itertools.product(*(range(domains[x]) for x in scope)))
        default = rng.choice([0, 0, 0, 1, 3])
        chosen = rng.sample(cells, rng.randint(0, len(cells)))
        explicit = {c: rng.randint(0, 8) for c in chosen}
        f = make_cost_function(scope, default, explicit, domains)
        if f is not None and len(f.levels) > 1:
            funcs.append(f)
    if not funcs:
        funcs.append(make_cost_function((0,), 0, {(0,): 2}, domains))
    return WcspInstance("tiny", domains, tuple(hard), tuple(funcs), top)


def three_colouring(n: int, seed: int = 7) -> WcspInstance:
    """A random 3-colouring of ``n`` vertices and ``round(4.6 * n / 2)``
    edges (average degree 4.6, past the colourability threshold), with a
    unary cost of 1 on colour 0 at every vertex.  At 450 vertices the SAT
    engine's feasibility solve alone runs far past a one-second deadline."""
    pairs = list(itertools.combinations(range(n), 2))
    edges = random.Random(seed).sample(pairs, round(4.6 * n / 2))
    domains = (3,) * n
    same = frozenset((c, c) for c in range(3))
    hard = tuple(HardConstraint(e, same) for e in edges)
    funcs = tuple(make_cost_function((v,), 0, {(0,): 1}, domains) for v in range(n))
    return WcspInstance(f"colouring-{n}", domains, hard, funcs, n + 1)


def reference_encoding_solver(instance: WcspInstance):
    """The induced-CSP encoding's clauses, every one passed through the
    general ``add_clause`` above and every unlisted tuple of a partial table
    collected into a list first; returns the loaded solver."""
    from ihswcsp.sat import Solver

    space = LevelSpace.from_instance(instance)
    solver = Solver()

    def new_lits(count):
        first = solver.num_vars
        solver.ensure_var(first + count - 1)
        return [pos(v) for v in range(first, first + count)]

    value_lit = []
    for d in instance.domains:
        lits = new_lits(d)
        value_lit.append(lits)
        add_clause(solver, lits)
        for a in range(d):
            for b in range(a + 1, d):
                add_clause(solver, [lits[a] ^ 1, lits[b] ^ 1])
    for hc in instance.hard_constraints:
        for t in sorted(hc.forbidden):
            add_clause(solver, [value_lit[x][a] ^ 1 for x, a in zip(hc.scope, t)])

    def forbid(scope, t, sel_lit):
        add_clause(solver, [sel_lit ^ 1] + [value_lit[x][a] ^ 1 for x, a in zip(scope, t)])

    for i, f in enumerate(instance.cost_functions):
        sels = new_lits(len(f.levels))
        for j in range(len(sels) - 1):
            add_clause(solver, [sels[j] ^ 1, sels[j + 1]])
        base = space.baseline[i]
        below = dict(zip(f.levels[1:], sels))
        for t, c in sorted(f.explicit.items()):
            if c > base:
                forbid(f.scope, t, below[c])
        ranges = [range(instance.domains[x]) for x in f.scope]
        if f.default_cost > base:
            unlisted = [t for t in itertools.product(*ranges) if t not in f.explicit]
            for t in unlisted:
                forbid(f.scope, t, sels[f.levels.index(f.default_cost) - 1])
    return solver


def enumerate_assignments(instance: WcspInstance):
    return itertools.product(*(range(d) for d in instance.domains))


def brute_force_optimum_slow(w: WcspInstance) -> int | None:
    """Independent second enumerator: plain nested iteration, last variable
    varying slowest, evaluated through the model's evaluate()."""
    best: int | None = None
    for rev in itertools.product(*(range(d) for d in reversed(w.domains))):
        a = tuple(reversed(rev))
        feasible, _, tot = evaluate(w, a)
        if feasible and (best is None or tot < best):
            best = tot
    return best + w.constant_offset if best is not None else None


def merge_group_slow(w: WcspInstance, group: tuple[int, ...]) -> CostFunction:
    """Reference merge: enumerate the union scope and sum each member's cost
    per assignment."""
    scope = tuple(sorted(set(itertools.chain.from_iterable(w.cost_functions[i].scope for i in group))))
    members = [w.cost_functions[i] for i in group]
    positions = [[scope.index(x) for x in f.scope] for f in members]
    table: dict[tuple[int, ...], int] = {}
    for assignment in itertools.product(*(range(w.domains[x]) for x in scope)):
        total = 0
        for f, posn in zip(members, positions):
            total += f.explicit.get(tuple(assignment[p] for p in posn), f.default_cost)
        table[assignment] = total
    merged = make_cost_function(scope, min(table.values()), table, w.domains)
    assert merged is not None
    return merged


def min_fill_order_slow(num_vertices: int, edges):
    """Reference min-fill elimination: rescan every remaining vertex's fill
    count at each step (ties: lowest index)."""
    adj: list[set[int]] = [set() for _ in range(num_vertices)]
    for u, v in edges:
        if u != v:
            adj[u].add(v)
            adj[v].add(u)
    remaining = set(range(num_vertices))
    order: list[int] = []
    clusters: list[tuple[int, ...]] = []
    while remaining:
        best_v = -1
        best_fill = None
        for v in sorted(remaining):
            nb_list = sorted(adj[v])
            fill = 0
            for a_i, a in enumerate(nb_list):
                for b in nb_list[a_i + 1 :]:
                    if b not in adj[a]:
                        fill += 1
            if best_fill is None or fill < best_fill:
                best_fill = fill
                best_v = v
        nb_list = sorted(adj[best_v])
        order.append(best_v)
        clusters.append(tuple(sorted([best_v, *nb_list])))
        for a_i, a in enumerate(nb_list):
            for b in nb_list[a_i + 1 :]:
                adj[a].add(b)
                adj[b].add(a)
        for a in nb_list:
            adj[a].discard(best_v)
        adj[best_v].clear()
        remaining.discard(best_v)
    return order, clusters


def group_by_cluster_slow(w: WcspInstance, clusters) -> dict[int, list[int]]:
    """Reference placement: test every function's scope against every
    cluster and take the smallest containing one (ties: lowest index)."""
    cluster_sets = [set(c) for c in clusters]
    groups: dict[int, list[int]] = {}
    for i, f in enumerate(w.cost_functions):
        candidates = [
            (len(clusters[ci]), ci) for ci, cs in enumerate(cluster_sets) if set(f.scope) <= cs
        ]
        groups.setdefault(min(candidates)[1], []).append(i)
    return groups


def merged_groups_slow(w: WcspInstance) -> list[tuple[int, ...]]:
    """Reference grouping behind ``build_merged``'s view, one group of
    function indices per view function in view order: each min-fill
    cluster's functions (one empty cluster when there is no variable), split
    into singletons when their union scope has more than ``MERGE_CAP``
    assignments."""
    from ihswcsp.merge import MERGE_CAP

    edges = {pair for f in w.cost_functions for pair in itertools.combinations(sorted(f.scope), 2)}
    _, clusters = min_fill_order_slow(w.num_vars, edges)
    groups: list[tuple[int, ...]] = []
    for group in group_by_cluster_slow(w, clusters or [()]).values():
        scope = {x for i in group for x in w.cost_functions[i].scope}
        if len(group) > 1 and math.prod(w.domains[x] for x in scope) > MERGE_CAP:
            groups.extend((i,) for i in group)
        else:
            groups.append(tuple(group))
    return sorted(groups)

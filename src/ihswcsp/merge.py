"""Cost-function merging guided by a min-fill tree decomposition.

The decomposition eliminates the vertex of fewest fill edges first, keeping
every vertex's fill count exact as edges come and go, so an elimination pays
per fill edge it adds.

Functions whose scopes land in the same decomposition cluster are merged into
a single cost function over the union scope, shrinking the dimension of the
cost-vector space while preserving the optimum.  The merged table is the
members' costs summed over the union scope in product order by
``model.product_sum``, in Python ints, so it is exact for any cost.  The sum
is kept as a ``FullTable``, a dense, read-only mapping over its costs in
product order, which the encoder reads as they are: no tuple-keyed dict is
built for a merged table.  Clusters whose union table would exceed
``MERGE_CAP`` assignments fall back to the original unmerged functions.
Merging polls a deadline once per elimination and once per group, and
raises ``SolveDeadlineExceeded`` past it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from math import prod
from typing import Iterable

from .model import CostFunction, FullTable, WcspInstance, product_sum
from .sat import SolveDeadlineExceeded

MERGE_CAP = 4096  # the most assignments a merged function's table may hold


def _poll(deadline: float | None) -> None:
    if deadline is not None and time.perf_counter() > deadline:
        raise SolveDeadlineExceeded


def min_fill_order(
    num_vertices: int, edges: Iterable[tuple[int, int]], deadline: float | None = None
) -> tuple[list[int], list[tuple[int, ...]]]:
    """Eliminate the vertex adding the fewest fill edges (ties: lowest index);
    returns the order and the induced clusters (vertex plus its neighbors at
    elimination time).  ``deadline`` (a ``time.perf_counter()`` reading or
    None) is polled before each elimination.

    Fill counts sit in a heap and are kept exact per change, never
    recomputed.  Adding fill edge (a, b) lowers the count of each common
    neighbor of a and b by one, and raises a's by |N(a) - N(b)| and b's by
    |N(b) - N(a)|, both taken before the edge is added.  Removing v, whose
    neighborhood is then a clique, lowers each neighbor a's count by
    |N(a) - N(v)|, taken after v leaves N(a).  An elimination thus costs one
    set intersection per fill edge it adds, not a pass over the neighbor
    pairs of every vertex it touches."""
    adj: list[set[int]] = [set() for _ in range(num_vertices)]
    for u, v in edges:
        if u != v:
            adj[u].add(v)
            adj[v].add(u)

    fill = [(sum(len(nb - adj[a]) for a in nb) - len(nb)) // 2 for nb in adj]
    heap = [(f, v) for v, f in enumerate(fill)]
    heapify(heap)
    order: list[int] = []
    clusters: list[tuple[int, ...]] = []
    while heap:
        f, v = heappop(heap)
        if f != fill[v]:
            continue  # a stale entry
        _poll(deadline)
        fill[v] = -1  # eliminated: no entry matches it again
        nb = adj[v]
        order.append(v)
        clusters.append(tuple(sorted([v, *nb])))
        before = {a: fill[a] for a in nb}  # old counts of the vertices it changes
        for a in nb:
            for b in nb - adj[a] - {a}:  # fill edge (a, b)
                common = adj[a] & adj[b]
                fill[a] += len(adj[a]) - len(common)
                fill[b] += len(adj[b]) - len(common)
                common.discard(v)  # eliminated: v keeps no count
                for c in common:
                    before.setdefault(c, fill[c])
                    fill[c] -= 1
                adj[a].add(b)
                adj[b].add(a)
        for a in nb:
            adj[a].discard(v)
            fill[a] -= len(adj[a]) - len(nb) + 1  # N(a) holds all of N(v) but a
        for u, f in before.items():
            if fill[u] != f:
                heappush(heap, (fill[u], u))
    return order, clusters


@dataclass(frozen=True)
class MergedProblem:
    """The merged view of an instance: ``view`` is a regular WcspInstance
    whose cost functions are the merged clusters, sharing the instance's
    variables and hard constraints."""

    view: WcspInstance


def _merge_group(w: WcspInstance, group: tuple[int, ...]) -> CostFunction:
    members = [w.cost_functions[i] for i in group]
    scope = tuple(sorted({x for f in members for x in f.scope}))
    costs = product_sum(w.domains, scope, [(f.scope, f.dense(w.domains)) for f in members])
    levels = tuple(sorted(set(costs)))
    return CostFunction(scope, levels[0], FullTable(tuple(w.domains[x] for x in scope), costs), levels)


def _group_by_cluster(w: WcspInstance, clusters: list[tuple[int, ...]]) -> dict[int, list[int]]:
    """Map the index of the smallest cluster (then the lowest index) that
    contains each function's scope to those functions' indices.  Only the
    clusters holding the scope's first variable can contain the scope."""
    cluster_sets = [set(c) for c in clusters]
    holding: list[list[int]] = [[] for _ in range(w.num_vars)]
    for ci, c in enumerate(clusters):
        for x in c:
            holding[x].append(ci)
    groups: dict[int, list[int]] = {}
    for i, f in enumerate(w.cost_functions):
        candidates = holding[f.scope[0]] if f.scope else range(len(clusters))
        scope = set(f.scope)
        ci = min((len(clusters[ci]), ci) for ci in candidates if scope <= cluster_sets[ci])[1]
        groups.setdefault(ci, []).append(i)
    return groups


def build_merged(w: WcspInstance, deadline: float | None = None) -> MergedProblem:
    """Group cost functions by the smallest decomposition cluster containing
    their scope and materialize each multi-function group whose union-scope
    assignment count is within ``MERGE_CAP``, polling ``deadline`` in the
    decomposition and before each group."""
    edges = set()
    for f in w.cost_functions:
        for a_i, a in enumerate(f.scope):
            for b in f.scope[a_i + 1 :]:
                edges.add((min(a, b), max(a, b)))
    _, dclusters = min_fill_order(w.num_vars, edges, deadline)

    # without variables there is no cluster: one empty cluster holds the
    # empty-scope functions
    final_groups: list[tuple[int, ...]] = []
    for group in _group_by_cluster(w, dclusters or [()]).values():
        scope = {x for i in group for x in w.cost_functions[i].scope}
        if len(group) > 1 and prod(w.domains[x] for x in scope) > MERGE_CAP:
            final_groups.extend((i,) for i in group)
        else:
            final_groups.append(tuple(group))
    final_groups.sort()
    merged_funcs = []
    for g in final_groups:
        _poll(deadline)
        merged_funcs.append(w.cost_functions[g[0]] if len(g) == 1 else _merge_group(w, g))

    top = max(w.top, max((f.levels[-1] for f in merged_funcs), default=0) + 1)
    view = WcspInstance(
        w.name,
        w.domains,
        w.hard_constraints,
        tuple(merged_funcs),
        top,
        w.constant_offset,
    )
    return MergedProblem(view)

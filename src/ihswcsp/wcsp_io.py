"""WCSP text format, random instance families, and brute-force optimum oracles.

The text format (whitespace separated, LF endings, decimal integers):

    line 1: ``name nvars max_dom_size nfunctions top``
    line 2: ``d_1 d_2 ... d_nvars``
    then per function: ``arity v_1 ... v_arity default_cost ntuples``
    followed by ``ntuples`` lines ``a_1 ... a_arity cost``.

Costs at or above ``top`` denote hard-forbidden tuples.  Generators use the
CPython ``random.Random`` PRNG (MT19937); a fixed seed pins the byte-exact
output.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from math import prod

from .model import (
    CostFunction,
    HardConstraint,
    WcspInstance,
    make_cost_function,
    product_sum,
)


class WcspParseError(ValueError):
    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class EnumerationCapExceeded(RuntimeError):
    """The instance's assignment space exceeds the brute-force cap."""


# the most tuples the parser or the brute-force oracle enumerates
ENUMERATION_CAP = 1 << 20


@dataclass(frozen=True)
class GeneratorParams:
    """The five instance-family parameters plus a seed.

    ``m`` is the number of binary cost functions for uniform instances and
    the attachment parameter for scale-free ones; ``w`` is the number of
    distinct nonzero weights per function and ``t`` the number of
    nonzero-cost tuples per function.
    """

    n: int
    d: int
    m: int
    w: int
    t: int
    seed: int = 0


# ---------------------------------------------------------------------------
# text format


class _Cursor:
    def __init__(self, text: str):
        self.rows = [
            (no, line.split())
            for no, line in enumerate(text.splitlines(), start=1)
            if line.strip()
        ]
        self.pos = 0

    def next_row(self, what: str) -> tuple[int, list[str]]:
        if self.pos >= len(self.rows):
            last = self.rows[-1][0] if self.rows else 0
            raise WcspParseError(last + 1, f"unexpected end of input, expected {what}")
        row = self.rows[self.pos]
        self.pos += 1
        return row


def _ints(line_no: int, tokens: list[str], what: str) -> list[int]:
    try:
        return [int(t) for t in tokens]
    except ValueError:
        raise WcspParseError(line_no, f"non-integer token in {what}") from None


def parse_wcsp(text: str) -> WcspInstance:
    """Parse the WCSP text format.

    Tuples costing at least ``top`` become hard-forbidden; functions left with
    a single cost level are folded into the instance's constant offset.
    """
    cur = _Cursor(text)
    line_no, tokens = cur.next_row("header")
    if len(tokens) != 5:
        raise WcspParseError(line_no, "header must be: name nvars max_dom nfunctions top")
    name = tokens[0]
    nvars, max_dom, nfunctions, top = _ints(line_no, tokens[1:], "header")
    if nvars < 0 or nfunctions < 0 or top < 1 or max_dom < 1:
        raise WcspParseError(line_no, "malformed header values")

    line_no, tokens = cur.next_row("domain sizes") if nvars else (line_no, [])
    domains = tuple(_ints(line_no, tokens, "domain sizes"))
    if len(domains) != nvars:
        raise WcspParseError(line_no, f"expected {nvars} domain sizes, got {len(domains)}")
    if any(not (1 <= d <= max_dom) for d in domains):
        raise WcspParseError(line_no, "domain size out of range")

    hard: list[HardConstraint] = []
    funcs: list[CostFunction] = []
    offset = 0
    for _ in range(nfunctions):
        line_no, tokens = cur.next_row("function header")
        vals = _ints(line_no, tokens, "function header")  # not empty: no row is blank
        arity = vals[0]
        if arity < 0 or len(vals) != arity + 3:
            raise WcspParseError(line_no, "function header must be: arity scope default ntuples")
        scope = tuple(vals[1 : 1 + arity])
        default_cost, ntuples = vals[1 + arity], vals[2 + arity]
        if any(not (0 <= x < nvars) for x in scope):
            raise WcspParseError(line_no, f"scope variable out of range in {scope}")
        if len(set(scope)) != arity:
            raise WcspParseError(line_no, f"repeated variable in scope {scope}")
        if default_cost < 0 or ntuples < 0:
            raise WcspParseError(line_no, "negative default cost or tuple count")

        raw: dict[tuple[int, ...], int] = {}
        for _ in range(ntuples):
            t_no, t_tokens = cur.next_row("tuple line")
            t_vals = _ints(t_no, t_tokens, "tuple line")
            if len(t_vals) != arity + 1:
                raise WcspParseError(t_no, f"tuple arity mismatch, expected {arity} values and a cost")
            t, c = tuple(t_vals[:arity]), t_vals[arity]
            if any(not (0 <= a < domains[x]) for x, a in zip(scope, t)):
                raise WcspParseError(t_no, f"tuple value out of domain range in {t}")
            if c < 0:
                raise WcspParseError(t_no, "negative cost")
            if t in raw:
                raise WcspParseError(t_no, f"tuple {t} listed twice")
            raw[t] = c

        forbidden = {t for t, c in raw.items() if c >= top}
        explicit = {t: c for t, c in raw.items() if c < top}
        if default_cost >= top:
            if (size := prod(domains[x] for x in scope)) > ENUMERATION_CAP:
                raise WcspParseError(line_no, f"default cost >= top over {size} tuples exceeds {ENUMERATION_CAP}")
            unlisted = itertools.product(*(range(domains[x]) for x in scope))
            forbidden.update(t for t in unlisted if t not in raw)
        soft_default = default_cost if default_cost < top else None
        f = make_cost_function(scope, soft_default, explicit, domains, blocked=frozenset(forbidden))
        if forbidden:
            hard.append(HardConstraint(scope, frozenset(forbidden)))
        if f is not None:
            if len(f.levels) == 1:
                offset += f.levels[0]
            else:
                funcs.append(f)

    if cur.pos != len(cur.rows):
        line_no = cur.rows[cur.pos][0]
        raise WcspParseError(line_no, "trailing content after last function")
    return WcspInstance(name, domains, tuple(hard), tuple(funcs), top, offset)


def write_wcsp(w: WcspInstance) -> str:
    """Serialize an instance; ``parse_wcsp(write_wcsp(w))`` is semantically
    identical to ``w`` (tuple order is canonicalized).  The constant offset
    is written as a constant function, so ``top`` is raised above it when
    it reaches ``top``, and hard tuples are written at that raised ``top``."""
    nfunctions = len(w.cost_functions) + len(w.hard_constraints)
    if w.constant_offset:
        nfunctions += 1
    name = "-".join(w.name.split()) or "wcsp"
    max_dom = max(w.domains, default=1)
    top = max(w.top, w.constant_offset + 1)
    lines = [f"{name} {w.num_vars} {max_dom} {nfunctions} {top}"]
    if w.domains:
        lines.append(" ".join(str(d) for d in w.domains))
    for f in w.cost_functions:
        header = [len(f.scope), *f.scope, f.default_cost, len(f.explicit)]
        lines.append(" ".join(str(x) for x in header))
        for t in sorted(f.explicit):
            lines.append(" ".join(str(x) for x in (*t, f.explicit[t])))
    for hc in w.hard_constraints:
        header = [len(hc.scope), *hc.scope, 0, len(hc.forbidden)]
        lines.append(" ".join(str(x) for x in header))
        for t in sorted(hc.forbidden):
            lines.append(" ".join(str(x) for x in (*t, top)))
    if w.constant_offset:
        lines.append(f"0 {w.constant_offset} 0")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# random families


def _fill_function(rng: random.Random, d: int, w: int, t: int) -> dict[tuple[int, ...], int]:
    """Draw t distinct nonzero-cost tuples with costs from a palette of w
    distinct weights sampled from [1, 10w]."""
    palette = rng.sample(range(1, 10 * w + 1), w)
    cells = list(itertools.product(range(d), repeat=2))
    chosen = rng.sample(cells, t)
    return {cell: rng.choice(palette) for cell in chosen}


def _random_binary(p: GeneratorParams, family: str, draw_scopes) -> WcspInstance:
    """The families' shared checks and tail: ``draw_scopes(rng)`` checks the
    family's own parameters and draws the binary scopes, then each scope's
    table is drawn from the same PRNG and ``top`` exceeds every total cost."""
    if min(p.n, p.d, p.m, p.w, p.t) < 1:
        raise ValueError("all generator parameters must be positive")
    if p.t > p.d * p.d:
        raise ValueError("t exceeds the d*d tuple space")
    rng = random.Random(p.seed)
    scopes = draw_scopes(rng)
    tables = [_fill_function(rng, p.d, p.w, p.t) for _ in scopes]
    top = sum(max(table.values()) for table in tables) + 1
    domains = (p.d,) * p.n
    funcs = tuple(make_cost_function(s, 0, table, domains) for s, table in zip(scopes, tables))
    return WcspInstance(f"{family}_{p.seed}", domains, (), funcs, top)


def gen_uniform(p: GeneratorParams) -> WcspInstance:
    """Uniform random binary WCSP with ``m`` distinct scopes out of n(n-1)/2."""

    def scopes(rng: random.Random) -> list[tuple[int, int]]:
        if p.m > p.n * (p.n - 1) // 2:
            raise ValueError("m exceeds the number of distinct binary scopes")
        return rng.sample([(i, j) for i in range(p.n) for j in range(i + 1, p.n)], p.m)

    return _random_binary(p, "uniform", scopes)


def gen_scale_free(p: GeneratorParams) -> WcspInstance:
    """Binary WCSP whose constraint graph grows by preferential attachment:
    a clique on m+1 vertices, then each vertex attaches to m distinct
    existing vertices chosen proportionally to degree."""

    def scopes(rng: random.Random) -> list[tuple[int, int]]:
        if p.m >= p.n:
            raise ValueError("scale-free attachment parameter must satisfy m < n")
        edges = [(i, j) for i in range(p.m + 1) for j in range(i + 1, p.m + 1)]
        repeated = [v for v in range(p.m + 1) for _ in range(p.m)]
        for v in range(p.m + 1, p.n):
            targets: set[int] = set()
            while len(targets) < p.m:
                targets.add(rng.choice(repeated))
            for u in sorted(targets):
                edges.append((u, v))
                repeated.append(u)
            repeated.extend([v] * p.m)
        return edges

    return _random_binary(p, "scale-free", scopes)


# ---------------------------------------------------------------------------
# brute-force oracles


def brute_force_optimum(w: WcspInstance) -> int | None:
    """Exhaustive optimum over all assignments, exact for any int cost.

    Sums every cost table, and each hard constraint as a table costing
    ``ban`` (more than any feasible total) on its forbidden tuples, over all
    variables in product order by one ``product_sum``, in Python ints.
    Returns the minimum total cost of a feasible assignment (including the
    constant offset) or None when the instance is infeasible.  Raises
    EnumerationCapExceeded when the assignment space exceeds ENUMERATION_CAP.
    """
    total_assignments = prod(w.domains)
    if total_assignments > ENUMERATION_CAP:
        raise EnumerationCapExceeded(
            f"{total_assignments} assignments exceed the cap of {ENUMERATION_CAP}"
        )
    ban = 1 + sum(f.levels[-1] for f in w.cost_functions)
    bans = [CostFunction(hc.scope, 0, dict.fromkeys(hc.forbidden, ban), (0, ban)) for hc in w.hard_constraints]
    tables = ((f.scope, f.dense(w.domains)) for f in (*w.cost_functions, *bans))
    best = min(product_sum(w.domains, tuple(range(w.num_vars)), tables))
    return None if best >= ban else best + w.constant_offset

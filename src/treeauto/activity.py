"""Activity growth of an automorphism: how many level-n sections are alive.

theta(g, n) counts the vertices of level n whose section is nontrivial.
Because values are minimized machines, the count is a path count: walks of
length n from the initial state that avoid the identity state.  The shape
of the nontrivial-state graph then decides everything else:

  * no directed cycle        -> the activity dies out (finitary)
  * every cycle simple, any  -> theta is bounded (one cycle per walk) or
    walk meeting c of them      polynomial of degree c - 1
  * a state on two cycles    -> exponential

Measures here are exact rationals throughout; nothing is floated.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional

from .core import Automorphism, BoundaryPoint, _sccs, compose, invert, level_action


def theta(g: Automorphism, n: int) -> int:
    """The number of level-n vertices with nontrivial section."""
    if n < 0:
        raise ValueError("level must be nonnegative")
    return _theta(g, n)


def _theta(g: Automorphism, n: int) -> int:
    counts = [0] * g.state_count
    counts[g.initial] = 1
    for _ in range(n):
        nxt = [0] * g.state_count
        for s, c in enumerate(counts):
            if c:
                for t in g.trans[s]:
                    nxt[t] += c
        counts = nxt
    return sum(c for s, c in enumerate(counts) if s != 0)


def theta_sequence(g: Automorphism, n: int) -> list[int]:
    """theta(g, i) for i = 0..n."""
    if n < 0:
        raise ValueError("level must be nonnegative")
    return [theta(g, i) for i in range(n + 1)]


def theta_relative(
    gens: Mapping[str, Automorphism],
    g: Automorphism,
    seed: BoundaryPoint,
    n: int,
    budget: int = 10 ** 6,
) -> int:
    """Active vertices of g on the level-n orbit of the seed ray's prefix."""
    from .schreier import _orbit

    if n < 0:
        raise ValueError("level must be nonnegative")
    if any(h.k != g.k for h in gens.values()):
        raise ValueError("g and the generators act on different alphabets")
    keys = _orbit(gens, seed.prefix(n), budget)[3]
    if len(keys) == g.k ** n:
        return _theta(g, n)
    if isinstance(keys[0], int):  # a swept level: the keys index g's level row
        states = level_action(g, n)[1]
        return sum(1 for u in keys if states[u] != 0)
    return sum(1 for v in keys if g._walk(v)[1] != 0)


# -- classification -----------------------------------------------------------


@dataclass(frozen=True)
class ActivityClass:
    """Activity growth class of one automorphism.

    kind is "finitary", "bounded", "polynomial" or "exponential"; degree is
    set for polynomial (>= 1), depth for finitary.  The witness spells out
    the cycle structure behind the verdict in terms of the canonical
    machine's state numbers.
    """

    kind: str
    degree: Optional[int] = None
    depth: Optional[int] = None
    witness: dict = None  # type: ignore[assignment]

    def to_json(self) -> dict:
        out = {"class": self.kind}
        if self.degree is not None:
            out["degree"] = self.degree
        if self.depth is not None:
            out["depth"] = self.depth
        return out


def _nontrivial_graph(g: Automorphism):
    """Adjacency (with multiplicity) of the nontrivial states."""
    nodes = list(range(1, g.state_count))
    succ = {s: [t for t in g.trans[s] if t != 0] for s in nodes}
    return nodes, succ


def _cycle_order(comp, succ):
    """Walk a simple-cycle component in cycle order, starting at its least state."""
    if len(comp) == 1:
        return list(comp)
    members = set(comp)
    out = [comp[0]]
    while True:
        nxt = [t for t in succ[out[-1]] if t in members]
        assert len(nxt) == 1
        if nxt[0] == out[0]:
            return out
        out.append(nxt[0])


def classify_activity(g: Automorphism) -> ActivityClass:
    if g.is_identity():
        return ActivityClass("finitary", depth=0, witness={"depth_path": []})

    nodes, succ = _nontrivial_graph(g)
    comps = _sccs(nodes, succ)
    comp_of = {s: i for i, comp in enumerate(comps) for s in comp}
    internal = [0] * len(comps)
    for s in nodes:
        for t in succ[s]:
            if comp_of[t] == comp_of[s]:
                internal[comp_of[s]] += 1

    for i, comp in enumerate(comps):
        if internal[i] > len(comp):
            return ActivityClass(
                "exponential",
                witness={"branching_component": comp, "internal_edges": internal[i]},
            )

    is_cycle = [internal[i] > 0 for i in range(len(comps))]

    # comps arrive successors-first, so one sweep computes, per component,
    # the most cycles any walk starting there can meet, and the best successor
    best: list[int] = [0] * len(comps)
    best_succ: list[Optional[int]] = [None] * len(comps)
    for i, comp in enumerate(comps):
        for s in comp:
            for t in succ[s]:
                j = comp_of[t]
                if j != i and best[j] > (0 if best_succ[i] is None else best[best_succ[i]]):
                    best_succ[i] = j
        here = 1 if is_cycle[i] else 0
        best[i] = here + (best[best_succ[i]] if best_succ[i] is not None else 0)

    start = comp_of[g.initial]
    cycles_met = best[start]

    chain = []
    i: Optional[int] = start
    while i is not None:
        if is_cycle[i]:
            chain.append(_cycle_order(comps[i], succ))
        i = best_succ[i]

    if cycles_met == 0:
        depth = {s: 0 for s in nodes}
        for comp in comps:  # successors-first, every comp a singleton here
            (s,) = comp
            depth[s] = 1 + max((depth[t] for t in succ[s]), default=0)
        path = [g.initial]
        while succ[path[-1]]:
            path.append(max(succ[path[-1]], key=lambda t: depth[t]))
        return ActivityClass("finitary", depth=depth[g.initial], witness={"depth_path": path})
    if cycles_met == 1:
        return ActivityClass("bounded", witness={"cycles": chain, "chain": chain})
    return ActivityClass(
        "polynomial", degree=cycles_met - 1, witness={"cycles": chain, "chain": chain}
    )


# -- direction sets of bounded automorphisms ----------------------------------


@dataclass(frozen=True)
class DirectionSet:
    """Where a bounded automorphism keeps acting, and how deep it acts elsewhere.

    points lists the rays along which the sections stay nontrivial forever
    (finitely many exactly in the finitary/bounded case); off every listed
    ray the sections are finitary of depth at most finitary_depth.
    """

    points: tuple[BoundaryPoint, ...]
    finitary_depth: int


def directions(g: Automorphism) -> DirectionSet:
    cls = classify_activity(g)
    if cls.kind not in ("finitary", "bounded"):
        raise ValueError("directions need a finitary or bounded automorphism, got %s" % cls.kind)
    if cls.kind == "finitary":
        return DirectionSet((), cls.depth)

    nodes, succ = _nontrivial_graph(g)
    comps = _sccs(nodes, succ)
    comp_of = {s: i for i, comp in enumerate(comps) for s in comp}
    cycle_states = set()
    for comp in comps:
        edges_inside = sum(1 for s in comp for t in succ[s] if comp_of[t] == comp_of[s])
        if edges_inside > 0:
            cycle_states.update(comp)

    live = set(cycle_states)
    changed = True
    while changed:
        changed = False
        for s in nodes:
            if s not in live and any(t in live for t in succ[s]):
                live.add(s)
                changed = True

    dead = [s for s in nodes if s not in live]
    depth = {s: 0 for s in dead}
    for comp in comps:  # successors-first; dead states never sit on cycles
        for s in comp:
            if s in depth:
                depth[s] = 1 + max((depth[t] for t in succ[s] if t in depth), default=0)
    finitary_depth = max(depth.values(), default=0)

    points: set[BoundaryPoint] = set()

    def walk(s, path_states, letters):
        for x in range(g.k):
            t = g.trans[s][x]
            if t == 0 or t not in live:
                continue
            if t in path_states:
                i = path_states.index(t)
                points.add(BoundaryPoint(tuple(letters[:i]), tuple(letters[i:] + [x])))
            else:
                walk(t, path_states + [t], letters + [x])

    walk(g.initial, [g.initial], [])
    ordered = sorted(points, key=lambda w: (w.preperiod, w.period))
    return DirectionSet(tuple(ordered), finitary_depth)


# -- measures ------------------------------------------------------------------


def _solve_linear(A: list[list[Fraction]], b: list[Fraction]) -> list[Fraction]:
    n = len(A)
    M = [row[:] + [b[i]] for i, row in enumerate(A)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if M[r][col] != 0)
        M[col], M[pivot] = M[pivot], M[col]
        inv = 1 / M[col][col]
        M[col] = [x * inv for x in M[col]]
        for r in range(n):
            if r != col and M[r][col]:
                f = M[r][col]
                M[r] = [x - f * y for x, y in zip(M[r], M[col])]
    return [M[r][n] for r in range(n)]


def singular_measure(g: Automorphism) -> Fraction:
    """The measure of the rays along which g's sections never become trivial.

    Complement of the absorption probability into the identity state under
    uniformly random letters; the absorbing-chain system is solved exactly
    over the rationals.
    """
    if g.is_identity():
        return Fraction(0)
    k = g.k
    rev: dict[int, set[int]] = {s: set() for s in range(g.state_count)}
    for s in range(g.state_count):
        for t in g.trans[s]:
            rev[t].add(s)
    canreach = {0}
    frontier = [0]
    while frontier:
        t = frontier.pop()
        for s in rev[t]:
            if s not in canreach:
                canreach.add(s)
                frontier.append(s)
    if g.initial not in canreach:
        return Fraction(1)

    R = sorted(s for s in canreach if s != 0)
    pos = {s: i for i, s in enumerate(R)}
    n = len(R)
    A = [[Fraction(0)] * n for _ in range(n)]
    b = [Fraction(0)] * n
    share = Fraction(1, k)
    for s in R:
        A[pos[s]][pos[s]] += 1
        for t in g.trans[s]:
            if t == 0:
                b[pos[s]] += share
            elif t in pos:
                A[pos[s]][pos[t]] -= share
    x = _solve_linear(A, b)
    return 1 - x[pos[g.initial]]


def empirical_measure_sequence(g: Automorphism, n: int) -> list[Fraction]:
    """theta(g, i) / k^i for i = 0..n; nonincreasing, limit singular_measure(g)."""
    if n < 0:
        raise ValueError("level must be nonnegative")
    return [Fraction(theta(g, i), g.k ** i) for i in range(n + 1)]


# -- closure of the bounded class ----------------------------------------------


@dataclass(frozen=True)
class BoundedClosureReport:
    input_kinds: tuple[str, str]
    depth_bound: int
    product_kind: str
    product_depth: int
    inverse_kind: str
    inverse_depth: int
    ok: bool


def is_bounded_closed_under_product(g: Automorphism, h: Automorphism) -> BoundedClosureReport:
    """Check, on one pair, that products and inverses stay bounded.

    Both inputs must be finitary or bounded.  The report records the
    classifications of g h and g^-1 and whether their off-direction depths
    stay within the larger of the inputs' depths.
    """
    kinds = (classify_activity(g).kind, classify_activity(h).kind)
    for kind in kinds:
        if kind not in ("finitary", "bounded"):
            raise ValueError("inputs must be finitary or bounded, got %s" % kind)
    bound = max(directions(g).finitary_depth, directions(h).finitary_depth)

    product = compose(g, h)
    inverse = invert(g)
    pk = classify_activity(product).kind
    ik = classify_activity(inverse).kind
    pd = directions(product).finitary_depth if pk in ("finitary", "bounded") else -1
    idp = directions(inverse).finitary_depth if ik in ("finitary", "bounded") else -1
    ok = (
        pk in ("finitary", "bounded")
        and ik in ("finitary", "bounded")
        and pd <= bound
        and idp <= bound
    )
    return BoundedClosureReport(kinds, bound, pk, pd, ik, idp, ok)

"""Activity growth of an automorphism: how many level-n sections are alive.

theta(g, n) counts the vertices of level n whose section is nontrivial.
Because values are minimized machines, the count is a path count: walks of
length n from the initial state that avoid the identity state.  The shape
of the nontrivial-state graph then decides everything else:

  * no directed cycle        -> the activity dies out (finitary)
  * every cycle simple, any  -> theta is bounded (one cycle per walk) or
    walk meeting c of them      polynomial of degree c - 1
  * a state on two cycles    -> exponential

classify_activity, directions and is_bounded_closed_under_product all read
one analysis of that graph (_structure), made once per element: its
components with their internal edge counts, the most cycles a walk from
each component can meet, and the depth of every state that reaches no
cycle.  A state keeps acting along some ray exactly when its component
meets a cycle, and the off-direction depth is the largest of those depths.

Measures here are exact rationals throughout; nothing is floated.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional

from .core import Automorphism, BoundaryPoint, _alphabet, compose, invert


def theta(g: Automorphism, n: int) -> int:
    """The number of level-n vertices with nontrivial section."""
    return theta_sequence(g, n)[-1]


def theta_sequence(g: Automorphism, n: int) -> list[int]:
    """theta(g, i) for i = 0..n, from one walk of the path counts."""
    if n < 0:
        raise ValueError("level must be nonnegative")
    counts = [0] * g.state_count
    counts[g.initial] = 1
    out = [sum(counts) - counts[0]]
    for _ in range(n):
        nxt = [0] * g.state_count
        for s, c in enumerate(counts):
            if c:
                for t in g.trans[s]:
                    nxt[t] += c
        counts = nxt
        out.append(sum(counts) - counts[0])
    return out


def theta_relative(
    gens: Mapping[str, Automorphism],
    g: Automorphism,
    seed: BoundaryPoint,
    n: int,
    budget: int = 10 ** 6,
) -> int:
    """Active vertices of g on the level-n orbit of the seed ray's prefix."""
    from .schreier import _orbit, _vertices

    if n < 0:
        raise ValueError("level must be nonnegative")
    if _alphabet(gens) != g.k:
        raise ValueError("g and the generators act on different alphabets")
    keys = _orbit(gens, seed.prefix(n), budget)[3]
    if len(keys) == g.k ** n:
        return theta_sequence(g, n)[-1]
    return sum(1 for v in _vertices(keys, g.k, n) if g._walk(v)[1] != 0)


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


def _sccs(nodes, succ):
    """Strongly connected components of a state graph (succ[s] lists the
    successors of s), each sorted, by iterative Tarjan; components come
    out successors-first."""
    index: dict[int, int] = {}
    low: dict[int, int] = {}
    onstack: set[int] = set()
    stack: list[int] = []
    comps: list[list[int]] = []
    counter = 0
    for root in nodes:
        if root in index:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        onstack.add(root)
        work = [(root, iter(succ[root]))]
        while work:
            node, it = work[-1]
            advanced = False
            for child in it:
                if child not in index:
                    index[child] = low[child] = counter
                    counter += 1
                    stack.append(child)
                    onstack.add(child)
                    work.append((child, iter(succ[child])))
                    advanced = True
                    break
                if child in onstack:
                    low[node] = min(low[node], index[child])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index[node]:
                comp = []
                while True:
                    w = stack.pop()
                    onstack.discard(w)
                    comp.append(w)
                    if w == node:
                        break
                comps.append(sorted(comp))
    return comps


def _structure(g: Automorphism):
    """(succ, comps, comp_of, internal, best, best_succ, depth) for g's
    nontrivial states: successors with multiplicity, components
    successors-first, each one's internal edge count, the most cycles a
    walk from it can meet with the successor component achieving that, and
    the depth of each state reaching no cycle, all in one sweep."""
    nodes = range(1, g.state_count)
    succ = {s: [t for t in g.trans[s] if t != 0] for s in nodes}
    comps = _sccs(nodes, succ)
    comp_of = {s: i for i, comp in enumerate(comps) for s in comp}
    internal = [0] * len(comps)
    best = [0] * len(comps)
    best_succ: list[Optional[int]] = [None] * len(comps)
    depth: dict[int, int] = {}
    for i, comp in enumerate(comps):
        for s in comp:
            for t in succ[s]:
                j = comp_of[t]
                if j == i:
                    internal[i] += 1
                elif best[j] > (0 if best_succ[i] is None else best[best_succ[i]]):
                    best_succ[i] = j
        here = 1 if internal[i] else 0
        best[i] = here + (best[best_succ[i]] if best_succ[i] is not None else 0)
        if best[i] == 0:  # a single state, and every successor has its depth
            (s,) = comp
            depth[s] = 1 + max((depth[t] for t in succ[s]), default=0)
    return succ, comps, comp_of, internal, best, best_succ, depth


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
    return _classify(g, _structure(g))


def _classify(g: Automorphism, structure) -> ActivityClass:
    if g.is_identity():
        return ActivityClass("finitary", depth=0, witness={"depth_path": []})
    succ, comps, comp_of, internal, best, best_succ, depth = structure
    for i, comp in enumerate(comps):
        if internal[i] > len(comp):
            return ActivityClass(
                "exponential",
                witness={"branching_component": comp, "internal_edges": internal[i]},
            )

    start = comp_of[g.initial]
    cycles_met = best[start]
    if cycles_met == 0:
        path = [g.initial]
        while succ[path[-1]]:
            path.append(max(succ[path[-1]], key=lambda t: depth[t]))
        return ActivityClass("finitary", depth=depth[g.initial], witness={"depth_path": path})

    chain = []
    i: Optional[int] = start
    while i is not None:
        if internal[i]:
            chain.append(_cycle_order(comps[i], succ))
        i = best_succ[i]
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
    structure = _structure(g)
    kind = _classify(g, structure).kind
    if kind not in ("finitary", "bounded"):
        raise ValueError("directions need a finitary or bounded automorphism, got %s" % kind)
    _, _, comp_of, internal, _, _, depth = structure
    points: set[BoundaryPoint] = set()
    # a bounded element's live states (those reaching a cycle) form paths
    # into cycles it cannot leave: each path into a cycle, then once round
    # it, is one direction; one letter list serves every path, cut back
    # to each stacked state's depth
    letters: list[int] = []
    stack = [(0, None, g.initial)] if kind == "bounded" else []
    while stack:
        n, x, s = stack.pop()
        del letters[n:]
        if x is not None:
            letters.append(x)
        cycle = comp_of[s]
        if internal[cycle]:
            period, t = [], s
            while not period or t != s:
                period.append(next(y for y, u in enumerate(g.trans[t]) if comp_of.get(u) == cycle))
                t = g.trans[t][period[-1]]
            points.add(BoundaryPoint(tuple(letters), tuple(period)))
            continue
        for y, t in enumerate(g.trans[s]):
            if t != 0 and t not in depth:
                stack.append((len(letters), y, t))
    ordered = sorted(points, key=lambda w: (w.preperiod, w.period))
    return DirectionSet(tuple(ordered), max(depth.values(), default=0))


# -- measures ------------------------------------------------------------------


def singular_measure(g: Automorphism) -> Fraction:
    """The measure of the rays along which g's sections never become trivial.

    Complement of the absorption probability into the identity state under
    uniformly random letters.  Times k, the absorbing-chain system has
    integer coefficients: k x_s, less x_t for each letter into a state t
    that reaches the identity, is the number of letters into the identity.
    It is solved by fraction-free (Bareiss) elimination, exact on integers.
    Its matrix is a nonsingular M-matrix (every state in it reaches the
    identity), so every leading minor, and with it every pivot, is
    positive; the initial state comes last, so back-substitution needs only
    the last row.
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

    R = sorted(s for s in canreach if s not in (0, g.initial)) + [g.initial]
    pos = {s: i for i, s in enumerate(R)}
    n = len(R)
    M = [[0] * (n + 1) for _ in range(n)]  # the system, right-hand side last
    for s, row in zip(R, M):
        row[pos[s]] += k
        for t in g.trans[s]:
            if t == 0:
                row[n] += 1
            elif t in pos:
                row[pos[t]] -= 1
    prev = 1
    for c in range(n - 1):
        top = M[c]
        p = top[c]
        for i in range(c + 1, n):
            f = M[i][c]
            M[i] = [(p * x - f * y) // prev for x, y in zip(M[i], top)]
        prev = p
    return 1 - Fraction(M[-1][n], M[-1][n - 1])


def empirical_measure_sequence(g: Automorphism, n: int) -> list[Fraction]:
    """theta(g, i) / k^i for i = 0..n; nonincreasing, limit singular_measure(g)."""
    return [Fraction(t, g.k ** i) for i, t in enumerate(theta_sequence(g, n))]


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

    def kind_and_depth(a: Automorphism) -> tuple[str, int]:
        structure = _structure(a)
        kind = _classify(a, structure).kind
        bounded = kind in ("finitary", "bounded")
        return kind, (max(structure[-1].values(), default=0) if bounded else -1)

    (gk, gd), (hk, hd) = kind_and_depth(g), kind_and_depth(h)
    for kind in (gk, hk):
        if kind not in ("finitary", "bounded"):
            raise ValueError("inputs must be finitary or bounded, got %s" % kind)
    bound = max(gd, hd)

    pk, pd = kind_and_depth(compose(g, h))
    ik, idp = kind_and_depth(invert(g))
    ok = 0 <= pd <= bound and 0 <= idp <= bound  # a depth of -1 marks an unbounded kind
    return BoundedClosureReport((gk, hk), bound, pk, pd, ik, idp, ok)

"""Orbits on levels, labeled level graphs, and Folner candidates.

The level-n graph has the k^n vertices of level n, one directed edge per
vertex and symmetrized generator.  An edge is recorded with its section's
triviality, because an edge whose section is trivial moves the whole
subtree rigidly: following only those edges (the reduced graph) splits a
level into components that make good Folner candidates.

The boundary of a vertex set counts the directed edges from the set that
genuinely disturb it: edges (v, s) with s(v) != v that either leave the
set or carry a nontrivial section.  Loops never count, nor do trivial
edges inside the set.  Trivial edges come in inverse pairs (g(u) = w with
g|_u trivial gives g^-1(w) = u with g^-1|_w trivial), so a reduced-graph
component is what its trivial edges reach forward and none leaves it: a
component's boundary counts only nontrivial sections, in all at most the
generators' activity, so the candidate's ratio is at most the per-level
bound sum_s theta(s, n) / k^n.

Whole levels come from core.level_action: the level-n vertex x_1 ... x_n
is the integer with base-k digits x_1 ... x_n, first letter most
significant (integer order is lex order), and a state s acts on it by
pi_s(x k^(n-1) + w) = pi_s(x) k^(n-1) + pi_{s|x}(w), one sweep per level.
Orbits use the same sweep when the whole level fits the vertex budget
(k ** n <= budget), even a small orbit, and search over those integers; a
level over the budget is walked vertex by vertex from the start, the only
way a small orbit on a deep level can be found.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Mapping

from .core import Automorphism, BudgetExceeded, _alphabet, level_action, symmetric_letters


def symmetrize(gens: Mapping[str, Automorphism]) -> dict[str, Automorphism]:
    """Generators plus their inverses, inverses named "a^-1"; involutions once."""
    return {name + ("" if sign > 0 else "^-1"): g for (name, sign), g in symmetric_letters(gens)}


def _orbit(gens: Mapping[str, Automorphism], v, budget: int):
    """(labels, k, n, keys, rows) of the orbit of the level-n vertex v.

    keys is the sorted orbit and rows[j] the pair (images, states) of the
    j-th symmetrized generator, both indexed by key.  On a level that fits
    the budget the keys are base-k integers and rows the level actions; on
    a larger level the keys are vertex tuples and rows dicts of what the
    walk read.
    """
    if budget < 0:  # the start vertex is never charged
        raise ValueError("budget must be nonnegative")
    syms = symmetrize(gens)
    values = list(syms.values())
    start = values[0]._vertex(v)
    k, n = values[0].k, len(start)
    if k ** n <= budget:  # the orbit fits whatever it turns out to be
        rows = [level_action(g, n) for g in values]
        first = 0
        for x in start:
            first = first * k + x
        seen = bytearray(k ** n)
        seen[first] = 1
        queue = [first]
        for u in queue:  # the list grows while it is walked
            for images, _ in rows:
                w = images[u]
                if not seen[w]:
                    seen[w] = 1
                    queue.append(w)
        return tuple(syms), k, n, sorted(queue), rows
    rows = [({}, {}) for _ in values]
    seen = {start}
    queue = [start]
    for u in queue:
        for g, (images, states) in zip(values, rows):
            w, s = g._walk(u)
            images[u], states[u] = w, s
            if w not in seen:
                if len(seen) >= budget:
                    raise BudgetExceeded(
                        "orbit budget of %d vertices exhausted" % budget,
                        partial=tuple(sorted(seen)),
                        budget="vertices", spent=len(seen) + 1, limit=budget,
                    )
                seen.add(w)
                queue.append(w)
    return tuple(syms), k, n, sorted(seen), rows


def _vertices(keys: list, k: int, n: int) -> tuple[tuple[int, ...], ...]:
    """The vertex tuples of sorted orbit keys."""
    if isinstance(keys[0], tuple):
        return tuple(keys)
    if 2 * len(keys) >= k ** n:  # most of the level: index all of it once
        verts = list(product(range(k), repeat=n))
        return tuple(map(verts.__getitem__, keys))
    powers = [k ** i for i in range(n - 1, -1, -1)]
    return tuple(tuple(u // p % k for p in powers) for u in keys)


def orbit(
    gens: Mapping[str, Automorphism],
    v,
    budget: int = 10 ** 6,
) -> tuple[tuple[int, ...], ...]:
    """The orbit of the vertex under the group, lexicographically sorted."""
    _, k, n, keys, _ = _orbit(gens, v, budget)
    return _vertices(keys, k, n)


@dataclass(frozen=True)
class SchreierGraph:
    """Labeled action graph on one orbit.

    vertices are lex sorted; edges hold (source index, label index, target
    index, section_trivial) for every vertex and symmetrized generator,
    loops included.
    """

    level: int
    labels: tuple[str, ...]
    vertices: tuple[tuple[int, ...], ...]
    edges: tuple[tuple[int, int, int, bool], ...]


def schreier_graph(
    gens: Mapping[str, Automorphism],
    v,
    budget: int = 10 ** 6,
) -> SchreierGraph:
    labels, k, n, keys, rows = _orbit(gens, v, budget)
    index = {u: i for i, u in enumerate(keys)}
    edges = tuple(
        (i, j, index[images[u]], states[u] == 0)
        for i, u in enumerate(keys)
        for j, (images, states) in enumerate(rows)
    )
    return SchreierGraph(n, labels, _vertices(keys, k, n), edges)


def _level_vertices(k: int, level: int, budget: int) -> int:
    if budget < 1:
        raise ValueError("budget must be at least 1")
    if level < 0:
        raise ValueError("level must be nonnegative")
    if k ** level > budget:
        raise BudgetExceeded(
            "level %d has %d vertices, over the budget of %d" % (level, k ** level, budget),
            budget="vertices", spent=k ** level, limit=budget,
        )
    return k ** level


def _reduced_graph(gens: Mapping[str, Automorphism], level: int, budget: int):
    """(k, components, boundaries, active) of the level's reduced graph.

    One labelling pass over the level rows: each unlabelled vertex, in
    increasing order, starts a component, grown along trivial edges forward
    (module docstring; an involution is its own inverse), so components come
    in order of least vertex.  boundaries[i] counts component i's moving
    edges with a nontrivial section (a trivial edge stays inside), active
    every nontrivial section on the level, sum_s theta(s, level).
    """
    syms = list(symmetrize(gens).values())
    k = syms[0].k
    labelled = bytearray(_level_vertices(k, level, budget))
    actions = [level_action(g, level) for g in syms]
    components, boundaries, active = [], [], 0
    for v in range(len(labelled)):
        if labelled[v]:
            continue
        labelled[v] = 1
        comp, boundary = [v], 0
        for u in comp:  # the list grows while it is walked
            for images, states in actions:
                w = images[u]
                if states[u]:
                    active += 1
                    boundary += w != u
                elif not labelled[w]:
                    labelled[w] = 1
                    comp.append(w)
        components.append(sorted(comp))
        boundaries.append(boundary)
    return k, components, boundaries, active


def gamma_prime_components(
    gens: Mapping[str, Automorphism],
    level: int,
    budget: int = 10 ** 6,
) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """Components of the level graph restricted to trivial-section edges."""
    k, comps, _, _ = _reduced_graph(gens, level, budget)
    verts = list(product(range(k), repeat=level))
    return tuple(tuple(verts[u] for u in comp) for comp in comps)


@dataclass(frozen=True)
class ComponentSummary:
    size: int
    boundary: int
    ratio: Fraction
    least_vertex: tuple[int, ...]


@dataclass(frozen=True)
class FolnerReport:
    """The best reduced-graph component of one level, with its competitors.

    ratio is boundary/size for the winning component (fewest boundary
    edges per vertex; ties go to the larger, then lex-least, component)
    and bound is the activity bound sum_s theta(s, level) / k^level.
    """

    level: int
    candidate: tuple[tuple[int, ...], ...]
    size: int
    boundary: int
    ratio: Fraction
    bound: Fraction
    components: tuple[ComponentSummary, ...]


def folner_candidate(
    gens: Mapping[str, Automorphism],
    level: int,
    budget: int = 10 ** 6,
) -> FolnerReport:
    if level < 1:
        raise ValueError("level must be at least 1")
    k, comps, boundaries, active = _reduced_graph(gens, level, budget)
    verts = list(product(range(k), repeat=level))
    summaries = [
        ComponentSummary(len(comp), b, Fraction(b, len(comp)), verts[comp[0]])
        for comp, b in zip(comps, boundaries)
    ]
    order = sorted(
        range(len(comps)),
        key=lambda i: (summaries[i].ratio, -summaries[i].size, summaries[i].least_vertex),
    )
    best = order[0]
    return FolnerReport(
        level=level,
        candidate=tuple(verts[u] for u in comps[best]),
        size=summaries[best].size,
        boundary=summaries[best].boundary,
        ratio=summaries[best].ratio,
        bound=Fraction(active, k ** level),
        components=tuple(summaries[i] for i in order),
    )


def isoperimetric_profile(
    gens: Mapping[str, Automorphism],
    max_level: int,
    budget: int = 10 ** 6,
) -> tuple[FolnerReport, ...]:
    """Folner candidates for levels 1 through max_level."""
    if max_level < 0:
        raise ValueError("level must be nonnegative")
    if budget < 1:
        raise ValueError("budget must be at least 1")
    _alphabet(gens)  # checked also when no level is asked for
    return tuple(folner_candidate(gens, n, budget) for n in range(1, max_level + 1))

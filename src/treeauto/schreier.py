"""Orbits on levels, labeled level graphs, and Folner candidates.

The level-n graph has the k^n vertices of level n, one directed edge per
vertex and symmetrized generator.  An edge is recorded with its section's
triviality, because an edge whose section is trivial moves the whole
subtree rigidly: following only those edges (the reduced graph) splits a
level into components that make good Folner candidates.

The boundary of a vertex set counts the directed edges from the set that
genuinely disturb it: edges (v, s) with s(v) != v that either leave the
set or carry a nontrivial section.  Loops never count, nor do trivial
edges inside the set.  For a reduced-graph component every counted edge
has a nontrivial section, so summing over all components stays below the
total activity of the generators; that gives the per-level bound
sum_s theta(s, n) / k^n, and the reported candidate always satisfies
ratio <= bound.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Mapping

from .activity import theta
from .core import Automorphism, BudgetExceeded, apply, symmetric_letters, vertex


def symmetrize(gens: Mapping[str, Automorphism]) -> dict[str, Automorphism]:
    """Generators plus their inverses, inverses named "a^-1"; involutions once."""
    return {name + ("" if sign > 0 else "^-1"): g for (name, sign), g in symmetric_letters(gens)}


def orbit(
    gens: Mapping[str, Automorphism],
    v,
    budget: int = 10 ** 6,
) -> tuple[tuple[int, ...], ...]:
    """The orbit of the vertex under the group, lexicographically sorted."""
    start = vertex(v)
    syms = list(symmetrize(gens).values())
    ks = {g.k for g in syms}
    if len(ks) != 1:
        raise ValueError("generators act on different alphabets")
    seen = {start}
    queue = deque([start])
    while queue:
        u = queue.popleft()
        for g in syms:
            w = apply(g, u)
            if w not in seen:
                if len(seen) >= budget:
                    raise BudgetExceeded(
                        "orbit budget of %d vertices exhausted" % budget,
                        partial=tuple(sorted(seen)),
                    )
                seen.add(w)
                queue.append(w)
    return tuple(sorted(seen))


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
    verts = orbit(gens, v, budget)
    syms = symmetrize(gens)
    labels = tuple(syms)
    index = {u: i for i, u in enumerate(verts)}
    edges = []
    for i, u in enumerate(verts):
        for j, name in enumerate(labels):
            g = syms[name]
            w = apply(g, u)
            edges.append((i, j, index[w], g.state_at(u) == 0))
    return SchreierGraph(len(vertex(v)), labels, verts, tuple(edges))


def _level_vertices(k: int, level: int, budget: int):
    if k ** level > budget:
        raise BudgetExceeded(
            "level %d has %d vertices, over the budget of %d" % (level, k ** level, budget)
        )
    return list(product(range(k), repeat=level))


class _UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, i: int) -> int:
        while self.parent[i] != i:
            self.parent[i] = self.parent[self.parent[i]]
            i = self.parent[i]
        return i

    def union(self, i: int, j: int):
        ri, rj = self.find(i), self.find(j)
        if ri != rj:
            self.parent[max(ri, rj)] = min(ri, rj)


def gamma_prime_components(
    gens: Mapping[str, Automorphism],
    level: int,
    budget: int = 10 ** 6,
) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """Components of the level graph restricted to trivial-section edges."""
    syms = symmetrize(gens)
    k = next(iter(syms.values())).k
    verts = _level_vertices(k, level, budget)
    index = {u: i for i, u in enumerate(verts)}
    uf = _UnionFind(len(verts))
    for u in verts:
        for g in syms.values():
            if g.state_at(u) == 0:
                uf.union(index[u], index[apply(g, u)])
    groups: dict[int, list[tuple[int, ...]]] = {}
    for u in verts:
        groups.setdefault(uf.find(index[u]), []).append(u)
    return tuple(tuple(comp) for _, comp in sorted(groups.items()))


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


def _boundary(syms, comp_set, comp) -> int:
    count = 0
    for u in comp:
        for g in syms.values():
            w = apply(g, u)
            if w == u:
                continue
            if w not in comp_set or g.state_at(u) != 0:
                count += 1
    return count


def folner_candidate(
    gens: Mapping[str, Automorphism],
    level: int,
    budget: int = 10 ** 6,
) -> FolnerReport:
    if level < 1:
        raise ValueError("level must be at least 1")
    syms = symmetrize(gens)
    k = next(iter(syms.values())).k
    comps = gamma_prime_components(gens, level, budget)
    summaries = []
    for comp in comps:
        b = _boundary(syms, set(comp), comp)
        summaries.append(ComponentSummary(len(comp), b, Fraction(b, len(comp)), comp[0]))
    order = sorted(
        range(len(comps)),
        key=lambda i: (summaries[i].ratio, -summaries[i].size, summaries[i].least_vertex),
    )
    best = order[0]
    bound = Fraction(sum(theta(g, level) for g in syms.values()), k ** level)
    return FolnerReport(
        level=level,
        candidate=comps[best],
        size=summaries[best].size,
        boundary=summaries[best].boundary,
        ratio=summaries[best].ratio,
        bound=bound,
        components=tuple(summaries[i] for i in order),
    )


def isoperimetric_profile(
    gens: Mapping[str, Automorphism],
    max_level: int,
    budget: int = 10 ** 6,
) -> tuple[FolnerReport, ...]:
    """Folner candidates for levels 1 through max_level."""
    return tuple(folner_candidate(gens, n, budget) for n in range(1, max_level + 1))

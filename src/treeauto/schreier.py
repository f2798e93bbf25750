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

The level-n vertex x_1 ... x_n is the integer with base-k digits
x_1 ... x_n, first letter most significant (integer order is lex order).
Reduced graphs are built level by level from the root, off the
generators' tables.  A trivial edge u -> g(u) lifts to the trivial edges
u x -> g(u) x, so a component C of level m becomes the pieces C x, one
per letter, each connected on level m + 1.  Pieces are glued only by the
trivial edges below a nontrivial section: g|_u = s gives u x -> g(u)
pi_s(x), trivial when s|_x is.  So a level is carried by its nontrivial
sections alone, each kept with the components of u and g(u) and whether
g fixes u (for the boundary), grouped by generator and state; in the
bounded groups these are a bounded number per level, and vertices are
touched only to list a component.  A component is named by its least
vertex: the piece C x has least vertex (least C) k + x, so pieces met in
order of their names are met in order of least vertex.

A level that is one component, the whole level, ends the recursion once it
repeats.  The step from such a level reads only its entries: the
component is named 0 on every level, sizes only scale by k, and with one
component the start is never read, since nothing is restricted.  So when
a whole-level component has the entries of an earlier one, with only
whole-level components between them, every later level repeats that
stretch with its period.  Bounded groups have a bounded number of
nontrivial sections per level, so a level that stays one component must
come back to an earlier one: the adding machine and Gupta-Sidki repeat
level 1 at level 2, basilica level 2 at level 4, grigorchuk level 1 at
level 4.  A level of several components, or a start's orbit short of the
level, may depend on the level or the start, so it starts the search over.

Orbits are read off the same recursion.  An orbit is closed under the
generators, so the graph of level m + 1 over O x (O the orbit of v's
length-m prefix, x any letter) needs nothing outside it: its trivial
edges join the vertices of one component, and every other edge is a
nontrivial section, listed with the components at both of its ends.  On a
level that fits the vertex budget (k ** n <= budget) every level keeps
only the components that nontrivial sections join to the prefix's; the
orbit is the whole level when their sizes sum to k^n, and otherwise those
components expanded top down.  A level costs the orbit's components and
its nontrivial sections, not its vertices: a bounded number per level in
the bounded groups, but one component per vertex where every section is
nontrivial (Aleshin), the cost of a Folner candidate there.  Whole-level
rows come from core.level_action, one sweep per level; schreier_graph
reads them only for an orbit that is the whole level, all of whose edges
it lists, and walks a smaller orbit vertex by vertex.  A level over the
budget is walked vertex by vertex from the start, the only way a small
orbit on a deep level can be found.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import chain, product, repeat
from operator import not_
from typing import Mapping

from .core import Automorphism, BudgetExceeded, Record, _alphabet, level_action, symmetric_letters


def symmetrize(gens: Mapping[str, Automorphism]) -> dict[str, Automorphism]:
    """Generators plus their inverses, inverses named "a^-1"; involutions once."""
    return {name + ("" if sign > 0 else "^-1"): g for (name, sign), g in symmetric_letters(gens)}


def _orbit(gens: Mapping[str, Automorphism], v, budget: int):
    """(syms, k, n, keys, rows) of the orbit of the level-n vertex v.

    syms is symmetrize(gens) and keys the sorted orbit.  On a level that
    fits the budget the keys are base-k integers read off the reduced
    levels of v's prefixes (range(k ** n) for the whole level) and rows is
    None; on a larger level the keys are vertex tuples and rows[j] maps
    each to (image, state) under the j-th symmetrized generator, as the
    walk read them.
    """
    if budget < 0:  # the start vertex is never charged
        raise ValueError("budget must be nonnegative")
    syms = symmetrize(gens)
    values = list(syms.values())
    start = values[0]._vertex(v)
    k, n = values[0].k, len(start)
    if k ** n <= budget:  # the orbit fits whatever it turns out to be
        levels = _reduced_levels(values, n, start)
        return syms, k, n, _component(k, levels, list(levels[n][0])), None
    rows = [{} for _ in values]
    seen = {start}
    queue = [start]
    for u in queue:
        for g, row in zip(values, rows):
            w, _ = row[u] = g._walk(u)
            if w not in seen:
                if len(seen) >= budget:
                    raise BudgetExceeded(
                        "orbit budget of %d vertices exhausted" % budget,
                        partial=tuple(sorted(seen)),
                        budget="vertices", spent=len(seen) + 1, limit=budget,
                    )
                seen.add(w)
                queue.append(w)
    return syms, k, n, sorted(seen), rows


def _vertices(keys: list, k: int, n: int) -> tuple[tuple[int, ...], ...]:
    """The vertex tuples of sorted orbit keys."""
    if isinstance(keys[0], tuple):
        return tuple(keys)
    if len(keys) == k ** n:
        return tuple(product(range(k), repeat=n))
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


class SchreierGraph(Record):
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
    syms, k, n, keys, rows = _orbit(gens, v, budget)
    verts = _vertices(keys, k, n)
    if rows is None and len(keys) == k ** n:
        # the whole level: each key is its own index, so the edges of label
        # j are every len(syms)-th edge from the j-th
        step = len(syms)
        edges = [None] * (k ** n * step)
        for j, g in enumerate(syms.values()):
            images, states = level_action(g, n)
            edges[j::step] = zip(keys, repeat(j), images, map(not_, states))
    else:
        if rows is None:  # a smaller orbit of a level that fits: walk its vertices
            rows = [dict(zip(verts, map(g._walk, verts))) for g in syms.values()]
        index = {u: i for i, u in enumerate(verts)}
        edges = tuple(
            (i, j, index[w], s == 0)
            for i, u in enumerate(verts)
            for j, row in enumerate(rows)
            for w, s in (row[u],)
        )
    return SchreierGraph(n, tuple(syms), verts, tuple(edges))


def _level_vertices(k: int, level: int, budget: int) -> None:
    if budget < 1:
        raise ValueError("budget must be at least 1")
    if level < 0:
        raise ValueError("level must be nonnegative")
    if k ** level > budget:
        raise BudgetExceeded(
            "level %d has %d vertices, over the budget of %d" % (level, k ** level, budget),
            budget="vertices", spent=k ** level, limit=budget,
        )


def _reduced_levels(syms: list, level: int, start=None) -> list:
    """[(sizes, entries, members) of levels 0 ... level], one recursion.

    A component is named by its least vertex; sizes maps each component to
    its size, in increasing order.  entries[(j, s, fixed)] = (A, B) lists
    the level's nontrivial sections: the components of every vertex u and
    of syms[j](u) where syms[j]|_u is the state s, syms[j] fixing u exactly
    when `fixed`.  members maps each component glued from more than one
    piece to its pieces (module docstring).  B is None on every entry of a
    generator with no trivial section (Aleshin's) when there is no `start`:
    B only glues pieces, and only below a trivial section.  With a `start`
    every entry carries B, since any nontrivial section may join two
    components of an orbit.

    Given a level-`level` vertex `start`, every level keeps only the orbit
    of start's prefix: the components its nontrivial sections join to the
    prefix's (_restricted).  An orbit is closed under the generators, so
    the next level, built over it alone, needs nothing outside it.

    A level m that is one component covering the whole level is keyed by
    its entries.  The step from it reads neither m nor the start (nothing
    is restricted), so once a key repeats with only such levels between,
    the levels after it repeat the levels after the first with that
    period: they are filled in from them, sharing their entries and
    members, and the recursion stops.  Any other level clears the keys
    (module docstring).
    """
    k = syms[0].k
    letters = range(k)
    carry = [start is not None or any(0 in row for row in g.trans[1:]) for g in syms]
    entries = {
        (j, g.initial, True): ([0], [0] if carry[j] else None)
        for j, g in enumerate(syms)
        if g.initial
    }
    levels = [({0: 1}, entries, {})]
    here = 0  # the component of start's prefix
    seen = {}  # the whole-level components since the last level that was not one
    for m in range(level):
        sizes, entries, _ = levels[-1]
        if sizes.get(0) == k ** m:  # one component, the whole level
            # every end is 0 and carry[j] says whether B is kept, so an
            # entry is its key and its length
            i = seen.setdefault((tuple(entries), tuple([len(A) for A, _ in entries.values()])), m)
            if i < m:  # levels m + 1, ... repeat levels i + 1, ..., m
                period = levels[i + 1 :]
                for j in range(m + 1, level + 1):
                    levels.append(({0: k ** j},) + period[(j - i - 1) % len(period)][1:])
                break
        else:
            seen.clear()
        pieces, glue = {}, {}
        for (j, s, fixed), (A, B) in entries.items():
            perm, trans = syms[j].perms[s], syms[j].trans[s]
            for x in letters:
                y, t = perm[x], trans[x]
                As = [a * k + x for a in A]
                Bs = [b * k + y for b in B] if carry[j] else None
                if t:
                    key = (j, t, fixed and x == y)
                    if key in pieces:
                        pieces[key][0].extend(As)
                        if Bs is not None:
                            pieces[key][1].extend(Bs)
                    else:
                        pieces[key] = (As, Bs)
                else:
                    for p, q in zip(As, Bs):
                        if p != q:
                            glue.setdefault(p, []).append(q)
        sizes = {c * k + x: size for c, size in sizes.items() for x in letters}
        # a glued piece also has the inverse edge back, so the least of a
        # glued set is met first and what it reaches forward is the set
        root, members = {}, {}
        for p in sorted(glue):
            if p not in root:
                root[p] = p
                part = members[p] = [p]
                for u in part:  # the list grows while it is walked
                    for w in glue[u]:
                        if w not in root:
                            root[w] = p
                            part.append(w)
                            sizes[p] += sizes.pop(w)
        if root:
            pieces = {
                key: ([root.get(p, p) for p in A], B and [root.get(q, q) for q in B])
                for key, (A, B) in pieces.items()
            }
        if start is not None:
            here = here * k + start[m]
            here = root.get(here, here)
            if len(sizes) > 1:
                sizes, pieces, members = _restricted(here, sizes, pieces, members)
        levels.append((sizes, pieces, members))
    return levels


def _restricted(c: int, sizes: dict, entries: dict, members: dict):
    """(sizes, entries, members) of one level kept to the orbit of the
    vertices of component c: the components that nontrivial sections join
    to it.  Trivial edges stay inside a component, so every other edge of
    the level is an entry's pair (a, b)."""
    joins = {}
    for A, B in entries.values():
        for a, b in zip(A, B):
            if a != b:
                joins.setdefault(a, []).append(b)
    orbit = {c}
    queue = [c]
    for a in queue:  # the list grows while it is walked
        for b in joins.get(a, ()):
            if b not in orbit:
                orbit.add(b)
                queue.append(b)
    if len(orbit) == len(sizes):
        return sizes, entries, members
    # a is in the orbit exactly when b is, so the filtered ends stay paired
    kept = {}
    for key, (A, B) in entries.items():
        As = [a for a in A if a in orbit]
        if As:
            kept[key] = (As, [b for b in B if b in orbit])
    return (
        {d: size for d, size in sizes.items() if d in orbit},
        kept,
        {d: part for d, part in members.items() if d in orbit},
    )


def _component(k: int, levels: list, comps: list):
    """The sorted vertices of components comps of the last of `levels`.

    A whole level is read off its size; anything else top down, the
    components of each level that its pieces lie over, then bottom up, a
    piece p holding v k + p % k for every vertex v of p // k.
    """
    n = len(levels) - 1
    sizes = levels[n][0]
    if sum(sizes[c] for c in comps) == k ** n:
        return range(k ** n)
    needs = [comps]
    for _, _, members in reversed(levels[1:]):
        needs.append({p // k for d in needs[-1] for p in members.get(d, (d,))})
    verts = {0: [0]}
    for (_, _, members), need in zip(levels[1:], reversed(needs[:-1])):
        verts = {
            d: [v * k + p % k for p in members.get(d, (d,)) for v in verts[p // k]]
            for d in need
        }
    return sorted(chain.from_iterable(verts[c] for c in comps))


def _level_graph(gens: Mapping[str, Automorphism], level: int, budget: int):
    """(k, levels) of _reduced_levels, the level checked first."""
    syms = list(symmetrize(gens).values())
    k = syms[0].k
    _level_vertices(k, level, budget)
    return k, _reduced_levels(syms, level)


def gamma_prime_components(
    gens: Mapping[str, Automorphism],
    level: int,
    budget: int = 10 ** 6,
) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """Components of the level graph restricted to trivial-section edges."""
    k, levels = _level_graph(gens, level, budget)
    if len(levels[-1][0]) == 1:  # one component, the whole level
        return (tuple(product(range(k), repeat=level)),)
    labels = [0]  # the component of every vertex, level by level
    for _, _, members in levels[1:]:
        labels = [c * k + x for c in labels for x in range(k)]
        if members:
            root = {p: c for c, part in members.items() for p in part}
            labels = [root.get(p, p) for p in labels]
    comps = {c: [] for c in levels[-1][0]}
    for v, c in enumerate(labels):
        comps[c].append(v)
    verts = list(product(range(k), repeat=level))
    return tuple(tuple(map(verts.__getitem__, comp)) for comp in comps.values())


class ComponentSummary(Record):
    size: int
    boundary: int
    ratio: Fraction
    least_vertex: tuple[int, ...]


class FolnerReport(Record):
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


def _folner_report(k: int, levels: list) -> FolnerReport:
    """The FolnerReport of the last of `levels` (_reduced_levels).

    A component's boundary counts its vertices' nontrivial sections that
    move them (a trivial edge stays inside); all nontrivial sections
    together are sum_s theta(s, level).
    """
    level = len(levels) - 1
    sizes, entries, _ = levels[level]
    moving = Counter(chain.from_iterable(A for (_, _, fixed), (A, _) in entries.items() if not fixed))
    names = list(sizes)
    summaries = [
        ComponentSummary(size, moving[c], Fraction(moving[c], size), least)
        for (c, size), least in zip(sizes.items(), _vertices(names, k, level))
    ]
    order = sorted(
        range(len(summaries)),
        key=lambda i: (summaries[i].ratio, -summaries[i].size, summaries[i].least_vertex),
    )
    best = summaries[order[0]]
    return FolnerReport(
        level=level,
        candidate=_vertices(_component(k, levels, [names[order[0]]]), k, level),
        size=best.size,
        boundary=best.boundary,
        ratio=best.ratio,
        bound=Fraction(sum(len(A) for A, _ in entries.values()), k ** level),
        components=tuple(summaries[i] for i in order),
    )


def folner_candidate(
    gens: Mapping[str, Automorphism],
    level: int,
    budget: int = 10 ** 6,
) -> FolnerReport:
    if level < 1:
        raise ValueError("level must be at least 1")
    return _folner_report(*_level_graph(gens, level, budget))


def isoperimetric_profile(
    gens: Mapping[str, Automorphism],
    max_level: int,
    budget: int = 10 ** 6,
) -> tuple[FolnerReport, ...]:
    """Folner candidates for levels 1 through max_level, from one recursion."""
    if max_level < 0:
        raise ValueError("level must be nonnegative")
    k = _alphabet(gens)  # checked also when no level is asked for
    for n in range(max_level + 1):  # level 0 checks the budget, the first level over it names it
        _level_vertices(k, n, budget)
    k, levels = _level_graph(gens, max_level, budget)
    return tuple(_folner_report(k, levels[: n + 1]) for n in range(1, max_level + 1))

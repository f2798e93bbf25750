"""Property tests of the canonical form, against oracles that do not use it.

Hypothesis draws small machines (two or three letters, at most six declared
states, among them unreachable states, behaviorally duplicate states and
non-zero states acting trivially) and puts them through from_states,
compose, inverse and section.  Every result is checked by walks over its
own tables and over the operands' tables, never by another canonical form.

The level-action kernel and the level graphs built on it are checked
against vertex-by-vertex loops over apply and state_at: on drawn machines,
and on every catalog family.
"""

import itertools
from collections import deque
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treeauto.activity import theta
from treeauto.catalog import builtin
from treeauto.core import Automorphism, compose, level_action
from treeauto.schreier import (
    ComponentSummary,
    FolnerReport,
    SchreierGraph,
    folner_candidate,
    gamma_prime_components,
    schreier_graph,
    symmetrize,
)

PROPERTIES = settings(derandomize=True, max_examples=120, deadline=None, database=None)


@st.composite
def machines(draw, k: int) -> tuple:
    """A declaration (states, initial) for Automorphism.from_states."""
    names = ["s%d" % i for i in range(draw(st.integers(1, 4)))]
    extra = draw(st.sets(st.sampled_from(["dup", "triv"])))
    everyone = names + sorted(extra) + ["e"]
    targets = st.lists(st.sampled_from(everyone), min_size=k, max_size=k)
    states = {name: (draw(st.permutations(range(k))), draw(targets)) for name in names}
    if "dup" in extra:  # a second copy of a declared state
        states["dup"] = states[draw(st.sampled_from(names))]
    if "triv" in extra:  # a non-zero state acting trivially
        states["triv"] = (range(k), [draw(st.sampled_from(["triv", "e"])) for _ in range(k)])
    return states, draw(st.sampled_from(everyone))


@st.composite
def triples(draw):
    """Three machines on one alphabet, with the declaration of the first."""
    k = draw(st.sampled_from((2, 3)))
    decls = [draw(machines(k)) for _ in range(3)]
    return decls[0], tuple(Automorphism.from_states(k, *d) for d in decls)


def walk(states: dict, initial: str, v: tuple) -> tuple:
    """The image of v under a declared machine, read off the declaration."""
    out, s = [], initial
    for x in v:
        if s == "e":
            out.append(x)
        else:
            out.append(tuple(states[s][0])[x])
            s = states[s][1][x]
    return tuple(out)


def words(k: int, n: int):
    return list(itertools.product(range(k), repeat=n))


def agree(a: Automorphism, s: int, t: int, depth: int) -> bool:
    """Do states s and t of a act alike on every word of length <= depth?"""
    layer, seen = {(s, t)}, {(s, t)}
    for _ in range(depth):
        nxt = set()
        for p, q in layer:
            if a.perms[p] != a.perms[q]:
                return False
            for x in range(a.k):
                pair = (a.trans[p][x], a.trans[q][x])
                if pair not in seen:
                    seen.add(pair)
                    nxt.add(pair)
        layer = nxt
    return True


def assert_canonical(a: Automorphism):
    k, m = a.k, a.state_count
    assert a.perms[0] == tuple(range(k)) and a.trans[0] == (0,) * k
    # state 0 is the only trivial state and no two states act alike
    for s, t in itertools.combinations(range(m), 2):
        assert not agree(a, s, t, m), (s, t)
    if a.initial == 0:
        assert m == 1
        return
    # numbered by first discovery, breadth-first from initial == 1
    order, seen = [a.initial], {0, a.initial}
    for s in order:
        for t in a.trans[s]:
            if t not in seen:
                seen.add(t)
                order.append(t)
    assert a.initial == 1 and order == list(range(1, m))


@PROPERTIES
@given(triples())
def test_from_states_and_compose(drawn):
    (states, initial), (g, h, f) = drawn
    gh = compose(g, h)
    for a in (g, h, gh):
        assert_canonical(a)
    for v in words(g.k, 4):
        assert g.apply(v) == walk(states, initial, v)
        assert gh.apply(v) == g.apply(h.apply(v))
    left, right = compose(gh, f), compose(g, compose(h, f))
    assert (left.perms, left.trans, left.initial) == (right.perms, right.trans, right.initial)


@PROPERTIES
@given(triples())
def test_inverse(drawn):
    g = compose(*drawn[1][:2])
    inv = g.inverse()
    assert_canonical(inv)
    for v in words(g.k, 4):
        assert inv.apply(g.apply(v)) == v


@PROPERTIES
@given(triples())
def test_section(drawn):
    g = compose(*drawn[1][:2])
    for n in (1, 2):
        for u in words(g.k, n):
            sec = g.section(u)
            assert_canonical(sec)
            for v in words(g.k, 3):
                assert sec.apply(v) == g.apply(u + v)[n:]


# -- level actions and level graphs --------------------------------------------


@st.composite
def pairs(draw):
    """Two generators on one alphabet."""
    k = draw(st.sampled_from((2, 3)))
    return {name: Automorphism.from_states(k, *draw(machines(k))) for name in ("a", "b")}


def encode(v: tuple, k: int) -> int:
    n = 0
    for x in v:
        n = n * k + x
    return n


@PROPERTIES
@given(triples())
def test_level_action(drawn):
    g = compose(*drawn[1][:2])
    for n in range(5):
        images, states = level_action(g, n)
        verts = words(g.k, n)
        assert images == [encode(g.apply(v), g.k) for v in verts]
        assert states == [g.state_at(v) for v in verts]


def brute_orbit(gens, v) -> tuple:
    syms = list(symmetrize(gens).values())
    seen, queue = {v}, deque([v])
    while queue:
        u = queue.popleft()
        for g in syms:
            w = g.apply(u)
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return tuple(sorted(seen))


def brute_schreier(gens, v) -> SchreierGraph:
    verts = brute_orbit(gens, v)
    syms = symmetrize(gens)
    index = {u: i for i, u in enumerate(verts)}
    edges = tuple(
        (i, j, index[g.apply(u)], g.state_at(u) == 0)
        for i, u in enumerate(verts)
        for j, g in enumerate(syms.values())
    )
    return SchreierGraph(len(v), tuple(syms), verts, edges)


def brute_components(gens, level) -> tuple:
    """Components of the trivial-section edges, vertex by vertex."""
    syms = symmetrize(gens).values()
    verts = words(next(iter(syms)).k, level)
    comp = {u: {u} for u in verts}
    for u in verts:
        for g in syms:
            w = g.apply(u)
            if g.state_at(u) == 0 and comp[u] is not comp[w]:
                merged = comp[u] | comp[w]
                for x in merged:
                    comp[x] = merged
    firsts = {id(c): c for c in (comp[u] for u in verts)}
    return tuple(sorted(tuple(sorted(c)) for c in firsts.values()))


def brute_folner(gens, level) -> FolnerReport:
    syms = symmetrize(gens).values()
    k = next(iter(syms)).k
    comps = brute_components(gens, level)
    summaries = []
    for comp in comps:
        inside = set(comp)
        b = sum(
            1
            for u in comp
            for g in syms
            if g.apply(u) != u and (g.apply(u) not in inside or g.state_at(u) != 0)
        )
        summaries.append(ComponentSummary(len(comp), b, Fraction(b, len(comp)), comp[0]))
    order = sorted(
        range(len(comps)),
        key=lambda i: (summaries[i].ratio, -summaries[i].size, summaries[i].least_vertex),
    )
    best = summaries[order[0]]
    return FolnerReport(
        level=level,
        candidate=comps[order[0]],
        size=best.size,
        boundary=best.boundary,
        ratio=best.ratio,
        bound=Fraction(sum(theta(g, level) for g in syms), k ** level),
        components=tuple(summaries[i] for i in order),
    )


def assert_level_graphs(gens, levels):
    k = next(iter(gens.values())).k
    for n in levels:
        assert gamma_prime_components(gens, n) == brute_components(gens, n)
        assert folner_candidate(gens, n) == brute_folner(gens, n)
        for v in ((0,) * n, tuple(x % k for x in range(1, n + 1))):
            assert schreier_graph(gens, v) == brute_schreier(gens, v)


@pytest.mark.parametrize("family", sorted(builtin()))
def test_level_graphs_on_the_catalog(family):
    assert_level_graphs(builtin()[family].generators, range(1, 7))


@PROPERTIES
@given(pairs())
def test_level_graphs_on_drawn_pairs(gens):
    assert_level_graphs(gens, range(1, 4))

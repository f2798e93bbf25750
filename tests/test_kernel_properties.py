"""Property tests of the canonical form, against oracles that do not use it.

Hypothesis draws small machines (two or three letters, at most six declared
states, among them unreachable states, behaviorally duplicate states and
non-zero states acting trivially) and puts them through from_states,
compose, inverse and section.  Every result is checked by walks over its
own tables and over the operands' tables, never by another canonical form.
"""

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from treeauto.core import Automorphism, compose

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

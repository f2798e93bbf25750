import itertools

import pytest

from treeauto.catalog import entry
from treeauto.core import BoundaryPoint, BudgetExceeded, evaluate_word, identity, invert
from treeauto.freeness import germ_faithfulness_probe, stabilizer_search
from treeauto.nucleus import (
    ball,
    germ_group,
    germ_is_trivial,
    is_self_similar,
    limit_states,
    nucleus,
    stabilizes,
)
from treeauto.words import Word


def test_limit_states_adding_machine():
    gens = entry("adding_machine").generators
    assert limit_states(gens["a"]) == {identity(2), gens["a"]}


def test_limit_states_rooted():
    # the root swap acts only at the top, so only the identity survives
    a = entry("grigorchuk").generators["a"]
    assert limit_states(a) == {identity(2)}


def test_limit_states_skip_transient_stem():
    grig = entry("grigorchuk").generators
    ab = evaluate_word(grig, "a b")
    # the top state of a b is transient; its deep sections are the familiar five
    expected = {identity(2), grig["a"], grig["b"], grig["c"], grig["d"]}
    assert limit_states(ab) == expected


def test_nucleus_adding_machine():
    gens = entry("adding_machine").generators
    res = nucleus(gens)
    assert res.status == "found"
    assert set(res.elements) == {identity(2), gens["a"], invert(gens["a"])}
    assert res.size == 3


def test_nucleus_grigorchuk():
    gens = entry("grigorchuk").generators
    res = nucleus(gens)
    assert res.status == "found"
    assert res.size == 5
    assert res.generations == 1
    expected = {identity(2)} | {gens[n] for n in "abcd"}
    assert set(res.elements) == expected


def test_nucleus_basilica():
    res = nucleus(entry("basilica").generators)
    assert res.status == "found"
    assert res.size == 7


def test_nucleus_gupta_sidki():
    gens = entry("gupta_sidki_3").generators
    res = nucleus(gens)
    assert res.status == "found"
    a, t = gens["a"], gens["t"]
    assert set(res.elements) == {identity(3), a, a * a, t, t * t}


def test_nucleus_divergence_detected():
    res = nucleus(entry("tullio").generators, max_size=40, max_depth=12)
    assert res.status == "exceeded"
    assert res.reason == "size limit"
    assert res.size > 40


def test_nucleus_generation_limit():
    res = nucleus(entry("tullio").generators, max_size=10 ** 6, max_depth=2)
    assert res.status == "exceeded"
    assert res.reason == "generation limit"


def test_ball_enumeration():
    gens = entry("adding_machine").generators
    elements, closed = ball(gens, 3)
    assert not closed
    a = gens["a"]
    assert set(elements) == {identity(2), a, a * a, a * a * a,
                             invert(a), invert(a) ** 2, invert(a) ** 3}
    assert str(elements[a * a]) == "a a"

    finite, closed2 = ball({"a": entry("grigorchuk").generators["a"]}, 5)
    assert closed2
    assert len(finite) == 2


@pytest.mark.parametrize("family, radius", [("grigorchuk", 4), ("aleshin", 3)])
def test_ball_against_brute_force(family, radius):
    gens = entry(family).generators
    elements, _ = ball(gens, radius)
    for value, word in elements.items():
        assert evaluate_word(gens, word) == value
    # every freely reduced word over the generators and their formal
    # inverses, involutions included, has a stored word no longer than it
    letters = [(name, sign) for name in sorted(gens) for sign in (1, -1)]
    for n in range(radius + 1):
        for w in itertools.product(letters, repeat=n):
            if Word(w).letters != w:
                continue
            stored = elements[evaluate_word(gens, Word(w))]
            assert len(stored) <= n


def test_ball_budget():
    gens = entry("aleshin").generators
    with pytest.raises(BudgetExceeded) as info:
        ball(gens, 8, budget=50)
    assert len(info.value.partial) >= 50


RAY = BoundaryPoint((), (0,))


@pytest.mark.parametrize(
    "call",
    [
        lambda: ball({}, 2),
        lambda: is_self_similar({}),
        lambda: germ_group({}, RAY),
        lambda: stabilizer_search({}, RAY, 2),
        lambda: germ_faithfulness_probe({}, RAY),
    ],
    ids=["ball", "is_self_similar", "germ_group", "stabilizer_search", "germ_faithfulness_probe"],
)
def test_ball_entry_points_reject_no_generators(call):
    with pytest.raises(ValueError, match="need at least one generator"):
        call()


def test_self_similarity_verdicts():
    grig = entry("grigorchuk").generators
    rep = is_self_similar(grig, max_len=2)
    assert rep.verdict == "yes"
    assert rep.is_self_similar is True
    assert rep.witnesses[("b", 0)] == "a"
    assert rep.witnesses[("b", 1)] == "c"
    assert rep.witnesses[("d", 0)] == "e"

    # the group generated by b alone is {e, b}; its sections a and c are
    # provably outside, the ball being complete
    rep_no = is_self_similar({"b": grig["b"]}, max_len=4)
    assert rep_no.verdict == "no"
    assert rep_no.is_self_similar is False

    # same experiment in the tullio family is undecidable from a finite
    # ball: the group is infinite, the missing section stays missing
    rep_maybe = is_self_similar({"b": entry("tullio").generators["b"]}, max_len=4)
    assert rep_maybe.verdict == "inconclusive"
    assert rep_maybe.is_self_similar is None


def test_stabilizes():
    gens = entry("adding_machine").generators
    one = BoundaryPoint((), (1,))
    assert not stabilizes(gens["a"], one)
    assert stabilizes(identity(2), one)
    d = entry("grigorchuk").generators["d"]
    assert stabilizes(d, BoundaryPoint((), (0,)))
    assert stabilizes(d, BoundaryPoint((), (1,)))


def test_germ_triviality():
    grig = entry("grigorchuk").generators
    zero = BoundaryPoint((), (0,))
    one = BoundaryPoint((), (1,))
    # d is trivial below the vertex 0 but acts forever along 1 1 1 ...
    assert germ_is_trivial(grig["d"], zero)
    assert not germ_is_trivial(grig["d"], one)
    with pytest.raises(ValueError):
        germ_is_trivial(grig["a"], one)

    b = entry("tullio").generators["b"]
    assert not germ_is_trivial(b, zero)
    assert germ_is_trivial(identity(2), one)


def test_germ_group_grigorchuk_fixed_ray():
    gens = entry("grigorchuk").generators
    rep = germ_group(gens, BoundaryPoint((), (1,)), max_len=4)
    assert rep.complete
    assert rep.order == 4
    # Klein four-group: every class squares to the trivial one
    for i in range(4):
        assert rep.table[i][i] == 0
    names = set(rep.representatives)
    assert "e" in names
    assert {"b", "c", "d"} <= names


def test_germ_group_collapses_trivial_germs():
    gens = entry("grigorchuk").generators
    rep = germ_group(gens, BoundaryPoint((), (0,)), max_len=3)
    # d fixes the ray but with trivial germ, so only one class shows up
    assert rep.complete
    assert rep.order == 1
    assert rep.representatives == ("e",)


def test_germ_group_adding_machine():
    gens = entry("adding_machine").generators
    rep = germ_group(gens, BoundaryPoint((), (1,)), max_len=5)
    assert rep.complete
    assert rep.order == 1

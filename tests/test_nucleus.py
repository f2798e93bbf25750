import itertools
import time
from importlib import import_module

import pytest
from hypothesis import given

from test_kernel_properties import PROPERTIES, triples
from treeauto import core
from treeauto.catalog import builtin, entry
from treeauto.core import (
    Automorphism,
    BoundaryPoint,
    BudgetExceeded,
    compose,
    evaluate_word,
    identity,
    invert,
    symmetric_letters,
)
from treeauto.freeness import germ_faithfulness_probe, stabilizer_search
from treeauto.nucleus import (
    NucleusResult,
    SelfSimilarityReport,
    ball,
    germ_group,
    germ_is_trivial,
    is_self_similar,
    limit_states,
    nucleus,
    stabilizes,
)
from treeauto.words import Word

# the package re-exports a function named nucleus, so look the module up
nucleus_module = import_module("treeauto.nucleus")


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


# -- the closure against the loop it replaced -----------------------------------


def reference_nucleus(gens, max_size=64, max_depth=16):
    """The closure as it was first written: limit_states(compose(g, h)) for
    every pair of members in sorted order, one product at a time."""
    k = core._alphabet(gens)
    N = {identity(k)}
    for g in gens.values():
        N |= limit_states(g)
        N |= limit_states(invert(g))

    def done(status, gen, reason=None):
        return NucleusResult(status, tuple(sorted(N, key=Automorphism.sort_key)), gen, reason)

    if len(N) > max_size:
        return done("exceeded", 0, "size limit")

    generations = 0
    old = set()  # the last sweep's members, all pairs composed
    while True:
        generations += 1
        fresh = set()
        members = sorted(N, key=Automorphism.sort_key)
        for g in members:
            for h in members:
                if g in old and h in old:
                    continue
                for s in limit_states(compose(g, h)):
                    if s not in N and s not in fresh:
                        fresh.add(s)
                        if len(N) + len(fresh) > max_size:
                            N |= fresh
                            return done("exceeded", generations, "size limit")
        if not fresh:
            return done("found", generations)
        old, N = N, N | fresh
        if generations >= max_depth:
            return done("exceeded", generations, "generation limit")


# every family at the defaults and at small and large limits, and the
# limits of the frozen tests above
NUCLEUS_CASES = [
    (family, limits)
    for family in sorted(builtin())
    for limits in (
        {},
        {"max_size": 2},
        {"max_size": 5},
        {"max_size": 40},
        {"max_size": 150},
        {"max_depth": 1},
        {"max_depth": 2},
    )
] + [
    ("aleshin", {"max_size": 200}),
    ("tullio", {"max_size": 40, "max_depth": 12}),
    ("tullio", {"max_size": 10 ** 6, "max_depth": 2}),
]


@pytest.mark.parametrize(
    "family, limits",
    NUCLEUS_CASES,
    ids=["-".join([f] + ["%s=%s" % kv for kv in lim.items()]) for f, lim in NUCLEUS_CASES],
)
def test_nucleus_matches_the_reference(family, limits):
    """Exceeded partials too: which members make one up depends on the order
    of each product's limit-state set, so equal results mean equal order."""
    gens = entry(family).generators
    assert nucleus(gens, **limits) == reference_nucleus(gens, **limits)


@PROPERTIES
@given(triples())
def test_nucleus_matches_the_reference_on_drawn_machines(drawn):
    _, (a, b, _) = drawn
    gens = {"a": a, "b": b}
    for max_size in (3, 12):
        assert nucleus(gens, max_size) == reference_nucleus(gens, max_size)


def test_nucleus_closure_composes_no_pair(compose_calls):
    res = nucleus(entry("tullio").generators)
    assert (res.status, res.size, res.generations) == ("exceeded", 65, 3)
    # one compose per pair of members took 826 products here
    assert compose_calls == []


@pytest.mark.parametrize("family, walks", [("tullio", (603, 88)), ("aleshin", (10, 10))])
def test_nucleus_closure_walks_in_full_only_products_that_add(monkeypatch, family, walks):
    """A product's deep states are walked in full, for its limit-state set,
    only right after its walk outside the settled blocks kept one."""
    deep_states = nucleus_module._deep_states
    calls = []  # (start, settled given, deep states)

    def counting_deep_states(trans, start, *settled):
        calls.append((start, bool(settled), deep_states(trans, start, *settled)))
        return calls[-1][2]

    monkeypatch.setattr(nucleus_module, "_deep_states", counting_deep_states)
    gens = entry(family).generators
    assert nucleus(gens).status == "exceeded"
    closure = calls[2 * len(gens) :]  # after limit_states of each generator and inverse
    pruned = [i for i, (_, given, _) in enumerate(closure) if given]
    kept = [i for i in pruned if closure[i][2]]
    assert [i for i, (_, given, _) in enumerate(closure) if not given] == [i + 1 for i in kept]
    assert all(closure[i][0] == closure[i + 1][0] for i in kept)
    # with no walk outside the settled blocks, all 603 of tullio's products were walked in full
    assert (len(pruned), len(kept)) == walks


@pytest.mark.parametrize("limits", [{"max_depth": 0}, {"max_depth": -1}, {"max_size": 0}])
def test_nucleus_rejects_limits_below_one(limits):
    with pytest.raises(ValueError, match="must be at least 1"):
        nucleus(entry("grigorchuk").generators, **limits)


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


@pytest.mark.parametrize(
    "call",
    [
        lambda gens: ball(gens, -1),
        lambda gens: is_self_similar(gens, max_len=-1),
        lambda gens: stabilizer_search(gens, RAY, -1),
        lambda gens: germ_group(gens, RAY, -1),
    ],
    ids=["ball", "is_self_similar", "stabilizer_search", "germ_group"],
)
def test_ball_entry_points_reject_negative_max_len(call):
    with pytest.raises(ValueError, match="max_len must be nonnegative"):
        call(entry("grigorchuk").generators)


def test_ball_of_radius_zero_holds_the_identity():
    gens = entry("grigorchuk").generators
    elements, closed = ball(gens, 0)
    assert list(elements.values()) == [Word(())]
    assert closed is False


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


# -- self-similarity against the whole ball -------------------------------------


def reference_is_self_similar(gens, max_len, budget=100000):
    """The check as it was first written: the whole ball, then one lookup per
    section, each section canonicalized from scratch."""
    elements, closed = ball(gens, max_len, budget)
    witnesses = {}
    for name in sorted(gens):
        g = gens[name]
        for x in range(g.k):
            section = core._product(identity(g.k), g.perms, g.trans, g.trans[g.initial][x])
            found = elements.get(section)
            witnesses[(name, x)] = None if found is None else str(found)
    if None not in witnesses.values():
        verdict = "yes"
    elif closed:
        verdict = "no"
    else:
        verdict = "inconclusive"
    return SelfSimilarityReport(verdict, witnesses)


# every catalog family, and each of its generators alone (where the "no" and
# "inconclusive" verdicts live)
GENERATOR_SETS = {family: e.generators for family, e in builtin().items()}
GENERATOR_SETS.update(
    ("%s:%s" % (family, name), {name: g})
    for family, e in builtin().items()
    for name, g in e.generators.items()
)


def same_report(got: SelfSimilarityReport, expected: SelfSimilarityReport):
    assert got == expected
    assert list(got.witnesses.items()) == list(expected.witnesses.items())


@pytest.mark.parametrize("name", sorted(GENERATOR_SETS))
def test_self_similarity_matches_the_whole_ball(name):
    gens = GENERATOR_SETS[name]
    for max_len in range(5):
        same_report(is_self_similar(gens, max_len), reference_is_self_similar(gens, max_len))


def test_self_similarity_reaches_every_verdict():
    verdicts = {is_self_similar(gens, 4).verdict for gens in GENERATOR_SETS.values()}
    assert verdicts == {"yes", "no", "inconclusive"}


@pytest.mark.parametrize("name", sorted(GENERATOR_SETS))
def test_self_similarity_budget(name):
    """Where the whole ball outgrows the budget, the check still raises as
    ball raises unless every witness comes before the budget runs out."""
    gens = GENERATOR_SETS[name]
    max_len = 4
    order = list(ball(gens, max_len)[0])  # elements in the order the walk meets them
    unbudgeted = reference_is_self_similar(gens, max_len)
    for budget in (1, 2, 3, 5, 10, 40):
        try:
            expected = reference_is_self_similar(gens, max_len, budget)
        except BudgetExceeded as err:
            reached = set(order[:budget])
            witnessed = unbudgeted.verdict == "yes" and all(
                g._with_initial(g.trans[g.initial][x]) in reached
                for g in gens.values()
                for x in range(g.k)
            )
            if not witnessed:
                with pytest.raises(BudgetExceeded) as info:
                    is_self_similar(gens, max_len, budget)
                got = info.value
                assert (got.budget, got.spent, got.limit) == (err.budget, err.spent, err.limit)
                assert list(got.partial.items()) == list(err.partial.items())
                continue
            expected = unbudgeted  # answered before the budget ran out
        same_report(is_self_similar(gens, max_len, budget), expected)


def test_self_similarity_answers_under_a_budget_the_ball_exceeds():
    gens = entry("basilica").generators
    with pytest.raises(BudgetExceeded):
        ball(gens, 4, budget=5)
    rep = is_self_similar(gens, max_len=4, budget=5)
    assert rep.verdict == "yes"
    assert rep.witnesses == {("a", 0): "b", ("a", 1): "e", ("b", 0): "a", ("b", 1): "e"}


@pytest.fixture
def compose_calls(monkeypatch):
    """The list that every core.compose call appends to, from any module."""
    compose = core.compose
    calls = []

    def counting_compose(g, h):
        calls.append(None)
        return compose(g, h)

    monkeypatch.setattr(core, "compose", counting_compose)
    monkeypatch.setattr(nucleus_module, "compose", counting_compose)
    return calls


def test_self_similarity_stops_at_its_last_witness(compose_calls):
    rep = is_self_similar(entry("aleshin").generators, max_len=4)
    assert rep.verdict == "yes"
    # the whole ball of radius 4 (937 elements) took more than 900 products
    assert len(compose_calls) <= 20


@pytest.fixture
def pair_walks(monkeypatch):
    """Lists that every core._pair_quotient walk and _product call appends
    to, once the catalog is built, and every _renumbered read-off once a
    walk has started, in core or in the nucleus module's ball walks: the
    sections and inverses read off to set up the walk's letters are not
    counted.  The generator sets' memo starts empty, so the first call on
    a set is cold and builds its letters' tables."""
    builtin()
    core._letter_sets.clear()
    calls = {"walks": [], "reads": [], "products": []}
    for name, key in (("_pair_quotient", "walks"), ("_renumbered", "reads"), ("_product", "products")):

        def counting(*args, _call=getattr(core, name), _key=key):
            if _key != "reads" or calls["walks"]:
                calls[_key].append(None)
            return _call(*args)

        monkeypatch.setattr(core, name, counting)
        if key == "reads":
            monkeypatch.setattr(nucleus_module, name, counting)
    return calls


def test_ball_takes_one_pair_walk_per_layer(pair_walks):
    gens = entry("aleshin").generators
    elements, closed = ball(gens, 4)
    assert len(elements) == 1 + 6 * (5**4 - 1) // 4 and not closed
    # the walk that merges the letters' states (core._right_machine), then one per layer
    assert len(pair_walks["walks"]) == 1 + 4
    # one read-off per new non-identity element: in a free group every child is new
    assert len(pair_walks["reads"]) == 936
    assert pair_walks["products"] == []
    for calls in pair_walks.values():
        calls.clear()
    # warm: the letters' right machine comes from the memo, and the layers do not
    assert ball(gens, 4) == (elements, closed)
    assert len(pair_walks["walks"]) == 4
    assert len(pair_walks["reads"]) == 936
    assert pair_walks["products"] == []
    for calls in pair_walks.values():
        calls.clear()
    # most children of a torsion group's walk are elements met before, in an
    # earlier layer or earlier in the same one, and their blocks tell them
    # apart with no read-off (505 reads when every reached block was read)
    elements, closed = ball(entry("grigorchuk").generators, 8)
    assert len(pair_walks["reads"]) == len(elements) - 1 == 270
    for calls in pair_walks.values():
        calls.clear()
    # the stabilizer reads off only the elements that fix the ray
    sample = stabilizer_search(entry("grigorchuk").generators, BoundaryPoint.parse(":1"), 4)
    assert len(pair_walks["reads"]) == len(sample.words) == 9


def test_self_similarity_reads_off_only_what_it_consumed(monkeypatch, pair_walks):
    consumed = []
    reduced_words = nucleus_module._reduced_words

    def counting_reduced_words(*args):
        for item in reduced_words(*args):
            consumed.append(item)
            yield item

    monkeypatch.setattr(nucleus_module, "_reduced_words", counting_reduced_words)
    rep = is_self_similar(entry("basilica").generators, max_len=4, budget=5)
    assert rep.verdict == "yes"
    # the letters' right machine takes one walk (core._right_machine); every
    # witness has length 1, so the walk of the first layer serves them all
    assert len(pair_walks["walks"]) == 1 + 1
    assert 0 < len(pair_walks["reads"]) <= len(consumed)
    for calls in (consumed, *pair_walks.values()):
        calls.clear()
    # warm: the right machine comes from the memo, the first layer does not
    assert is_self_similar(entry("basilica").generators, max_len=4, budget=5) == rep
    assert len(pair_walks["walks"]) == 1
    assert 0 < len(pair_walks["reads"]) <= len(consumed)


def test_no_query_result_is_memoized(pair_walks):
    """Only a generator set's tables are shared: a stabilizer at each new
    ray walks its ball again, one pair walk per layer, with the letters'
    right machine (one walk) built once."""
    gens = entry("grigorchuk").generators
    samples = []
    for n, point in enumerate((":1", ":0", ":1")):
        samples.append(stabilizer_search(gens, BoundaryPoint.parse(point), 4))
        assert len(pair_walks["walks"]) == (n == 0) + 4, point
        pair_walks["walks"].clear()
    assert samples[0] == samples[2] != samples[1]


def test_germ_group_inverts_each_class_once(monkeypatch, compose_calls):
    """Counts every inversion once the generators' letters are in the memo."""
    inverse = Automorphism.inverse
    calls = []

    def counting_inverse(g):
        calls.append(g)
        return inverse(g)

    symmetric_letters(entry("grigorchuk").generators)
    monkeypatch.setattr(Automorphism, "inverse", counting_inverse)
    rep = germ_group(entry("grigorchuk").generators, BoundaryPoint.parse(":1"), max_len=4)
    assert rep.representatives == ("e", "b", "c", "d")
    assert rep.table == ((0, 1, 2, 3), (1, 0, 3, 2), (2, 3, 0, 1), (3, 2, 1, 0))
    assert len(calls) <= rep.order
    # one product per ordered pair of classes, classed by its germ key and
    # kept as the table entry
    assert len(compose_calls) <= rep.order ** 2


def test_germ_closure_stops_at_max_order(compose_calls):
    """Aleshin's germ classes at 0^inf never close, and its products grow
    with every round; the closure stops at the 65th class, inside its
    round, instead of finishing the round (289 products of up to 31,105
    states, seconds and hundreds of MB, reporting 161 classes)."""
    start = time.perf_counter()
    rep = germ_group(entry("aleshin").generators, BoundaryPoint.parse(":0"), 3)
    assert (rep.order, rep.complete, rep.table) == (65, False, ())
    assert len(rep.representatives) == 65 and rep.representatives[:2] == ("e", "a c b^-1")
    assert rep.representatives[-1] == "a c a^-1 c^-1 a c b^-1 c a b^-1"
    assert len(compose_calls) == 110
    assert time.perf_counter() - start < 6.0

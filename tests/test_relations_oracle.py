"""find_relations against a brute-force relator oracle, and its budget contract.

The oracle evaluates every word up to the requested length with
evaluate_word, on its own, and applies the listing convention directly: a
relator is freely and cyclically reduced, trivial, and has no trivial proper
cyclic factor; relators are listed once per class under rotation and formal
inversion (reverse, flip every sign), shown by the variant that is least
letter by letter with positive letters first, shortest first.

The budget tests check, at many budgets, the partial report that goes with
BudgetExceeded against a rule: it lists every relator up to some even
length, that length never falls as the budget grows, and spent is the limit
plus one.  The least budget that completes is frozen.
"""

import itertools
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treeauto import core, freeness
from treeauto.catalog import entry
from treeauto.core import Automorphism, BudgetExceeded, evaluate_word
from treeauto.freeness import RelationReport, find_relations
from treeauto.words import Word

PROPERTIES = settings(derandomize=True, max_examples=60, deadline=None, database=None)


def _display(letters):
    return tuple((name, 0 if sign > 0 else 1) for name, sign in letters)


def oracle_relations(gens, max_len: int) -> RelationReport:
    letters = []
    for name in sorted(gens):
        letters.append((name, 1))
        if gens[name].inverse() != gens[name]:
            letters.append((name, -1))
    trivial = {}
    for n in range(1, max_len + 1):
        for w in itertools.product(letters, repeat=n):
            trivial[w] = evaluate_word(gens, Word(w)).is_identity()

    def cancels(x, y):
        return x[0] == y[0] and x[1] == -y[1]

    classes = {}
    for w, is_trivial in trivial.items():
        if not is_trivial:
            continue
        if any(cancels(w[i - 1], w[i]) for i in range(len(w))):
            continue
        rotations = [w[r:] + w[:r] for r in range(len(w))]
        if any(trivial[rot[:i]] for rot in rotations for i in range(1, len(w))):
            continue
        inverse = tuple((name, -sign) for name, sign in reversed(w))
        variants = rotations + [inverse[r:] + inverse[:r] for r in range(len(w))]
        classes[frozenset(variants)] = min(variants, key=_display)
    relators = sorted(classes.values(), key=lambda w: (len(w), _display(w)))
    return RelationReport(max_len, tuple(Word(w) for w in relators), True)


@pytest.mark.parametrize(
    "family, max_len",
    [
        ("grigorchuk", 5),
        ("gupta_sidki_3", 5),
        ("basilica", 6),
        ("adding_machine", 6),
        ("tullio", 4),
    ],
)
def test_relations_match_the_brute_force_oracle(family, max_len):
    gens = entry(family).generators
    expected = oracle_relations(gens, max_len)
    assert find_relations(gens, max_len) == expected
    for n in range(1, max_len):
        assert find_relations(gens, n) == oracle_relations(gens, n)


def test_oracle_reads_the_frozen_grigorchuk_relators():
    rep = oracle_relations(entry("grigorchuk").generators, 4)
    assert [str(w) for w in rep.relators] == [
        "a a", "b b", "c c", "d d", "b c d", "b d c", "b c b c", "b d b d", "c d c d",
    ]


@st.composite
def involutions(draw, k: int) -> Automorphism:
    """Every state's permutation is an involution and sends letter x and
    its image to one successor, so every state, the initial one included,
    is an involution (or trivial)."""
    involutive = [p for p in itertools.permutations(range(k)) if all(p[p[x]] == x for x in range(k))]
    names = ["s%d" % i for i in range(draw(st.integers(1, 3)))]
    states = {}
    for name in names:
        perm = draw(st.sampled_from(involutive))
        targets = [None] * k
        for x in range(k):
            if targets[x] is None:
                targets[x] = targets[perm[x]] = draw(st.sampled_from(names + ["e"]))
        states[name] = (perm, targets)
    return Automorphism.from_states(k, states, draw(st.sampled_from(names)))


@st.composite
def any_machine(draw, k: int) -> Automorphism:
    names = ["s%d" % i for i in range(draw(st.integers(1, 3)))]
    targets = st.lists(st.sampled_from(names + ["e"]), min_size=k, max_size=k)
    states = {name: (draw(st.permutations(range(k))), draw(targets)) for name in names}
    return Automorphism.from_states(k, states, draw(st.sampled_from(names + ["e"])))


@st.composite
def generator_pairs(draw):
    k = draw(st.sampled_from((2, 3)))
    kinds = draw(st.lists(st.sampled_from((involutions, any_machine)), min_size=2, max_size=2))
    return {name: draw(kind(k)) for name, kind in zip("xy", kinds)}


@PROPERTIES
@given(gens=generator_pairs(), max_len=st.integers(1, 6))
def test_relations_match_the_oracle_on_drawn_pairs(gens, max_len):
    assert find_relations(gens, max_len) == oracle_relations(gens, max_len)


@PROPERTIES
@given(g=st.sampled_from((2, 3)).flatmap(involutions))
def test_drawn_involutions_are_involutions(g):
    assert (g * g).is_identity()


# the least budget at which find_relations completes; every smaller budget
# runs out
LEAST_BUDGETS = {
    ("grigorchuk", 4): 48,
    ("grigorchuk", 5): 138,
    ("grigorchuk", 9): 5606,
    ("gupta_sidki_3", 6): 85,
    ("basilica", 6): 52,
    ("basilica", 7): 273,
    ("tullio", 7): 160,
}


def _partial(gens, max_len, budget):
    with pytest.raises(BudgetExceeded) as info:
        find_relations(gens, max_len, budget=budget)
    assert (info.value.budget, info.value.spent, info.value.limit) == ("relations", budget + 1, budget)
    return info.value.partial


def assert_partials_are_even_length_cuts(family, max_len, budgets):
    """Below the frozen least budget, each partial lists every relator up to
    an even length of the complete list, and that length never falls."""
    gens = entry(family).generators
    least = LEAST_BUDGETS[family, max_len]
    full = find_relations(gens, max_len, budget=least).relators
    with pytest.raises(BudgetExceeded):
        find_relations(gens, max_len, budget=least - 1)
    cuts = {len([w for w in full if len(w) <= 2 * j]) for j in range(max_len // 2 + 1)}
    reached = 0
    for budget in sorted(budgets):
        partial = _partial(gens, max_len, budget)
        assert (partial.max_len, partial.complete) == (max_len, False)
        size = len(partial.relators)
        assert size in cuts and partial.relators == full[:size], (family, max_len, budget)
        assert size >= reached, (family, max_len, budget)
        reached = size


def test_grigorchuk_partials_are_frozen():
    assert_partials_are_even_length_cuts("grigorchuk", 5, range(138))
    assert tuple(map(str, _partial(entry("grigorchuk").generators, 5, 100).relators)) == (
        "a a", "b b", "c c", "d d", "b c d", "b d c", "b c b c", "b d b d", "c d c d",
    )


def test_other_partials_are_frozen():
    for (family, max_len), least in LEAST_BUDGETS.items():
        assert_partials_are_even_length_cuts(
            family, max_len, {0, 1, least // 3, least // 2, least - 1} | set(range(0, least, 97))
        )


def _count_walks(monkeypatch):
    """The relator search's pair walks, each as its number of start pairs,
    and the number of compose calls, anywhere, as find_relations runs."""
    walks, composed = [], []
    pair_walk, compose = freeness._pair_quotient, core.compose

    def counting_walk(gperms, gtrans, hperms, htrans, starts, keys=None):
        walks.append(len(starts))
        return pair_walk(gperms, gtrans, hperms, htrans, starts, keys)

    def counting_compose(g, h):
        composed.append(None)
        return compose(g, h)

    monkeypatch.setattr(freeness, "_pair_quotient", counting_walk)
    monkeypatch.setattr(core, "compose", counting_compose)
    monkeypatch.setattr(freeness, "compose", counting_compose)
    return walks, composed


def test_relator_search_shares_products(monkeypatch):
    walks, composed = _count_walks(monkeypatch)
    rep = find_relations(entry("grigorchuk").generators, 6)
    assert len(rep.relators) == 9
    assert composed == []
    assert len(walks) == 3


def test_each_half_length_takes_one_pair_walk(monkeypatch):
    walks, composed = _count_walks(monkeypatch)
    find_relations(entry("grigorchuk").generators, 5)
    # half-lengths 1, 2, 3, as (classes extended) * (letters) + (seeds):
    # the empty word; a, b, c, d; the ten classes of length 2, that is the
    # trivial one, which is not extended, a x and x a for x = b, c, d, and
    # b, c, d again (b c = d and the like)
    assert walks == [1 * 4 + 1, 4 * 4 + 4, 9 * 4 + 10]
    assert composed == []


# aleshin stops at 5: the oracle at 6 takes over 20 s
@pytest.mark.parametrize(
    "family, max_len",
    [(family, 7) for family in ("adding_machine", "tullio", "grigorchuk", "basilica", "gupta_sidki_3")]
    + [("aleshin", 5)],
)
def test_relations_match_the_oracle_on_the_catalog(family, max_len):
    gens = entry(family).generators
    assert find_relations(gens, max_len) == oracle_relations(gens, max_len)


def test_the_budget_bounds_the_pairing():
    """In the Klein four-group the words of each half-length fall into three
    classes, so pairing them is quadratic; the pairs formed are charged."""
    a = Automorphism.from_states(2, {"a": ((1, 0), ["e", "e"])}, "a")
    b = Automorphism.from_states(2, {"b": ((0, 1), ["s", "s"]), "s": ((1, 0), ["e", "e"])}, "b")
    gens = {"a": a, "b": b, "c": a * b}
    full = find_relations(gens, 8).relators
    assert len(full) == 8
    start = time.perf_counter()
    assert _partial(gens, 20, 10_000).relators == full
    assert time.perf_counter() - start < 1


def test_half_length_classes_take_one_pair_walk_per_length(monkeypatch):
    walks, composed = _count_walks(monkeypatch)
    assert find_relations(entry("basilica").generators, 7) == RelationReport(7, (), True)
    # the fast path values its words on a repeated level action, and the
    # exact path takes one pair walk per half-length 1..4
    assert len(composed) <= 8
    assert len(walks) == 4

"""find_relations against a brute-force relator oracle, and its budget contract.

The oracle evaluates every word up to the requested length with
evaluate_word, on its own, and applies the listing convention directly: a
relator is freely and cyclically reduced, trivial, and has no trivial proper
cyclic factor; relators are listed once per class under rotation and formal
inversion (reverse, flip every sign), shown by the variant that is least
letter by letter with positive letters first, shortest first.

The budget tests pin, at many budgets, the partial report that goes with
BudgetExceeded.  Their values were read off the plain depth-first search
that composed once per word; a search that shares work must still count
one per word reached and so stop at the same word with the same relators.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treeauto import core, freeness
from treeauto.catalog import entry
from treeauto.core import Automorphism, BudgetExceeded, evaluate_word, symmetric_letters
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
@given(gens=generator_pairs(), max_len=st.integers(1, 4))
def test_relations_match_the_oracle_on_drawn_pairs(gens, max_len):
    assert find_relations(gens, max_len) == oracle_relations(gens, max_len)


@PROPERTIES
@given(g=st.sampled_from((2, 3)).flatmap(involutions))
def test_drawn_involutions_are_involutions(g):
    assert (g * g).is_identity()


# Relators in the partial report at a budget that runs out, read off the
# search that composed once per word.  At each budget b listed the search
# raises; b + 1 either adds a relator or, at the last entry, completes.
GRIGORCHUK_5_PARTIALS = {
    1: (),
    2: ("a a",),
    327: ("a a",),
    328: ("a a", "b b"),
    361: ("a a", "b b"),
    362: ("a a", "b b", "b c b c"),
    384: ("a a", "b b", "b c b c"),
    385: ("a a", "b b", "b c d", "b c b c"),
    423: ("a a", "b b", "b c d", "b c b c"),
    424: ("a a", "b b", "b c d", "b c b c", "b d b d"),
    425: ("a a", "b b", "b c d", "b d c", "b c b c", "b d b d"),
    581: ("a a", "b b", "b c d", "b d c", "b c b c", "b d b d"),
    582: ("a a", "b b", "c c", "b c d", "b d c", "b c b c", "b d b d"),
    621: ("a a", "b b", "c c", "b c d", "b d c", "b c b c", "b d b d"),
    622: ("a a", "b b", "c c", "b c d", "b d c", "b c b c", "b d b d", "c d c d"),
    835: ("a a", "b b", "c c", "b c d", "b d c", "b c b c", "b d b d", "c d c d"),
}

# basilica 6 stops in the fast path; basilica 7 and gupta_sidki_3 6 reach
# the exact search past their first few budgets
OTHER_PARTIALS = {
    ("basilica", 6): {1: (), 10: (), 51: ()},
    ("basilica", 7): {100: (), 2000: (), 4484: ()},
    ("gupta_sidki_3", 6): {3: (), 50: ("a a a",), 500: ("a a a",), 1280: ("a a a", "t t t")},
}


def _partial(gens, max_len, budget):
    with pytest.raises(BudgetExceeded) as info:
        find_relations(gens, max_len, budget=budget)
    return info.value.partial


def test_grigorchuk_partials_are_frozen():
    gens = entry("grigorchuk").generators
    for budget, relators in GRIGORCHUK_5_PARTIALS.items():
        partial = _partial(gens, 5, budget)
        assert (budget, partial.max_len, partial.complete) == (budget, 5, False)
        assert (budget, tuple(str(w) for w in partial.relators)) == (budget, relators)
    assert find_relations(gens, 5, budget=836).complete


def test_other_partials_are_frozen():
    for (family, max_len), table in OTHER_PARTIALS.items():
        gens = entry(family).generators
        for budget, relators in table.items():
            partial = _partial(gens, max_len, budget)
            assert partial == RelationReport(max_len, tuple(map(Word.parse, relators)), False)
    assert find_relations(entry("basilica").generators, 6, budget=52).complete
    assert find_relations(entry("basilica").generators, 7, budget=4485).complete
    assert find_relations(entry("gupta_sidki_3").generators, 6, budget=1281).complete


def test_relator_search_shares_products(monkeypatch):
    compose = freeness.compose
    calls = []

    def counting_compose(g, h):
        calls.append(None)
        return compose(g, h)

    monkeypatch.setattr(freeness, "compose", counting_compose)
    gens = entry("grigorchuk").generators
    rep = find_relations(gens, 6)
    assert len(rep.relators) == 9
    assert len(calls) <= 50
    # the depth-first search, which a budget that could run out keeps:
    # composing once per word reached took 4,601 products here
    calls.clear()
    assert freeness._relators_from_search(symmetric_letters(gens), 6, 0, 10 ** 6) == rep
    assert len(calls) <= 300


def test_a_full_product_table_only_costs_products(monkeypatch):
    gens = entry("grigorchuk").generators
    expected = find_relations(gens, 5)
    compose = freeness.compose
    calls = []

    def counting_compose(g, h):
        calls.append(None)
        return compose(g, h)

    monkeypatch.setattr(freeness, "compose", counting_compose)
    monkeypatch.setattr(freeness, "_PRODUCT_TABLE_STATES", 0)
    # 836 words reached complete the search, and under the 1,364 reduced
    # words the budget keeps it depth-first
    assert find_relations(gens, 5, budget=1000) == expected
    assert len(calls) > 300
    for budget, relators in GRIGORCHUK_5_PARTIALS.items():
        assert tuple(map(str, _partial(gens, 5, budget).relators)) == relators


def _reduced_word_total(steps, max_len):
    letters = [letter for letter, _ in steps]
    return sum(
        all(w[i] != (w[i - 1][0], -w[i - 1][1]) for i in range(1, n))
        for n in range(1, max_len + 1)
        for w in itertools.product(letters, repeat=n)
    )


@pytest.mark.parametrize("family", ["adding_machine", "tullio", "grigorchuk", "basilica", "gupta_sidki_3"])
def test_reduced_word_count_bounds_the_search(family):
    steps = symmetric_letters(entry(family).generators)
    for n in range(1, 6):
        assert freeness._reduced_word_count(steps, n) == _reduced_word_total(steps, n)
    assert freeness._reduced_word_count(symmetric_letters(entry("basilica").generators), 7) == 4372


# aleshin stops at 6: its depth-first search to 7 takes about 30 s
@pytest.mark.parametrize(
    "family, max_len",
    [(family, 7) for family in ("adding_machine", "tullio", "grigorchuk", "basilica", "gupta_sidki_3")]
    + [("aleshin", 6)],
)
def test_both_exact_paths_agree_on_the_catalog(family, max_len):
    steps = symmetric_letters(entry(family).generators)
    for n in range(1, max_len + 1):
        # a budget of one per reduced word never runs out
        by_search = freeness._relators_from_search(
            steps, n, 0, freeness._reduced_word_count(steps, n)
        )
        assert by_search == freeness._relators_from_classes(steps, n)


def test_half_length_classes_take_one_product_per_short_word(monkeypatch):
    compose = core.compose
    calls = []

    def counting_compose(g, h):
        calls.append(None)
        return compose(g, h)

    monkeypatch.setattr(core, "compose", counting_compose)
    monkeypatch.setattr(freeness, "compose", counting_compose)
    assert find_relations(entry("basilica").generators, 7) == RelationReport(7, (), True)
    # the depth-first search took 1,318 products here, and the 160 reduced
    # words of length 1..4 take one each
    assert len(calls) <= 200

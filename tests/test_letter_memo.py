"""The generator sets' memo in core (core._letter_set).

Each generator set's letters, their right machine with its starts and seed
keys, and the keyed word walk's step keys are built once and then read off
the memo.  A hit must give exactly what a computation on an empty memo
gives, and both what the tables' own definitions give, kept here as a
reference; on drawn generator sets and on the whole catalog.  Names are
part of the key, and so are the constants the tables depend on, which
tests patch.  An invalid set raises on every call, a caller cannot change
what the next call gets, and at most 16 sets are held, the ones used last.
The memo holds tables only: what reads inverse letters inverts nothing
once they are held, and a plain word inverts nothing at all.
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from test_kernel_properties import PROPERTIES, machines
from treeauto import core
from treeauto.catalog import builtin, entry
from treeauto.core import (
    Automorphism,
    _distinct_words,
    evaluate_word,
    identity,
    level_action,
    symmetric_letters,
)
from treeauto.freeness import find_relations
from treeauto.nucleus import ball, nucleus

CATALOG = {name: family.generators for name, family in builtin().items()}


@pytest.fixture(autouse=True)
def empty_memo():
    core._letter_sets.clear()
    yield
    core._letter_sets.clear()


def memo_tables(gens) -> tuple:
    """(letters, right machine, step keys) of gens, through the memo."""
    letters = symmetric_letters(gens)
    machine = core._letter_machine(letters)
    list(_distinct_words(letters, 0))  # builds the step keys and walks nothing
    return letters, machine, core._letter_set(gens)[2]


def reference_tables(gens) -> tuple:
    """memo_tables(gens) from the tables' definitions, with no memo."""
    letters = []
    for name in sorted(gens):
        g = gens[name]
        letters.append(((name, 1), g))
        if g.inverse() != g:
            letters.append(((name, -1), g.inverse()))
    perms, trans, starts = core._right_machine([g for _, g in letters])
    keys = core._level_keys(perms, trans)
    k = letters[0][1].k
    level = max(n for n in range(17) if k**n <= core._KEY_POINTS)
    steps = tuple(
        (letter, bytes(level_action(g.inverse(), level)[0]).ljust(256, b"\0")) for letter, g in letters
    )
    return letters, (tuple(perms), tuple(trans), tuple(starts), keys and tuple(keys)), steps


@st.composite
def generator_sets(draw):
    """One to three drawn generators on one alphabet, at times with a
    trivial generator or a repeated value under another name."""
    k = draw(st.sampled_from((2, 3)))
    gens = {name: Automorphism.from_states(k, *draw(machines(k))) for name in draw(st.sampled_from(("a", "ab", "abc")))}
    extra = draw(st.sets(st.sampled_from(("trivial", "repeat"))))
    if "trivial" in extra:
        gens["e"] = identity(k)
    if "repeat" in extra:
        gens["r"] = gens["a"]
    return gens


def assert_hit_is_cold(gens):
    cold = memo_tables(gens)
    assert cold == reference_tables(gens)
    assert memo_tables(gens) == cold
    # equal values in new objects, in another insertion order, hit the same entry
    again = {name: gens[name].inverse().inverse() for name in reversed(list(gens))}
    held = len(core._letter_sets)
    assert memo_tables(again) == cold
    assert len(core._letter_sets) == held


@PROPERTIES
@given(generator_sets())
def test_a_hit_gives_the_tables_of_an_empty_memo_on_drawn_sets(gens):
    core._letter_sets.clear()
    assert_hit_is_cold(gens)


@pytest.mark.parametrize("family", sorted(CATALOG))
def test_a_hit_gives_the_tables_of_an_empty_memo_on_the_catalog(family):
    assert_hit_is_cold(CATALOG[family])


def test_the_same_values_under_other_names_get_those_names():
    a, b = entry("aleshin").generators["a"], entry("aleshin").generators["b"]
    memo_tables({"a": a, "b": b})
    for gens in ({"b": a, "a": b}, {"U": a, "V": b}, {"a": a, "c": b}):
        got = memo_tables(gens)
        assert got == reference_tables(gens)
        assert {name for (name, _), _ in got[0]} == set(gens)
    assert len(core._letter_sets) == 4


def test_an_invalid_set_raises_on_every_call():
    mixed = {"a": entry("grigorchuk").generators["a"], "b": entry("gupta_sidki_3").generators["a"]}
    for _ in range(3):
        for gens, message in (({}, "at least one generator"), (mixed, "different alphabets")):
            for call in (symmetric_letters, lambda g: ball(g, 2), lambda g: find_relations(g, 2), nucleus):
                with pytest.raises(ValueError, match=message):
                    call(gens)
    assert not core._letter_sets


def test_a_caller_cannot_change_the_next_result():
    gens = entry("grigorchuk").generators
    expected = reference_tables(gens)
    letters = symmetric_letters(gens)
    letters.append(letters[0])
    letters.reverse()
    letters[0] = None
    assert symmetric_letters(gens) == expected[0]
    assert symmetric_letters(gens) is not symmetric_letters(gens)
    for table in core._letter_machine(symmetric_letters(gens)) + (core._letter_set(gens)[0],):
        assert isinstance(table, tuple)
    assert memo_tables(gens) == expected


@pytest.mark.parametrize("constant, value", [("_SEED_POINTS", 2), ("_SEED_POINTS", 1), ("_KEY_POINTS", 3), ("_KEY_POINTS", 1)])
def test_patched_constants_rebuild_the_tables(monkeypatch, constant, value):
    gens = entry("basilica").generators
    built = memo_tables(gens)
    monkeypatch.setattr(core, constant, value)
    patched = memo_tables(gens)
    assert patched == reference_tables(gens) != built
    monkeypatch.undo()
    assert memo_tables(gens) == built


def test_at_most_16_sets_are_held_the_last_used():
    a = entry("adding_machine").generators["a"]
    sets = [{"g%d" % i: a} for i in range(1000)]
    for gens in sets:
        symmetric_letters(gens)
    ball(sets[990], 1)  # used again, so the newest
    symmetric_letters({"h": a})
    order = [*range(985, 990), *range(991, 1000), 990]
    assert [key[0] for key in core._letter_sets] == [(("g%d" % i, a),) for i in order] + [(("h", a),)]
    assert core._LETTER_SETS_HELD == len(core._letter_sets) == 16


def test_held_letters_are_not_inverted_again(monkeypatch):
    gens = entry("aleshin").generators
    inverse = Automorphism.inverse
    calls = []

    def counting_inverse(g):
        calls.append(g)
        return inverse(g)

    monkeypatch.setattr(Automorphism, "inverse", counting_inverse)
    # a plain word reads no inverse letter, so it inverts nothing
    evaluate_word(gens, "a b c a")
    assert calls == []
    # the first inverse letter builds the letters, one inversion per generator
    value = evaluate_word(gens, "a^-1 b c^-1 a^-1")
    assert len(calls) == len(gens)
    calls.clear()
    assert evaluate_word(gens, "a^-1 b c^-1 a^-1") == value
    ball(gens, 2)
    find_relations(gens, 4)
    nucleus(gens, max_size=8)
    assert calls == []

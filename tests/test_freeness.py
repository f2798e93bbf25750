import pytest

from treeauto import core, freeness
from treeauto.catalog import entry
from treeauto.core import BoundaryPoint, BudgetExceeded, evaluate_word, identity
from treeauto.freeness import (
    RelationReport,
    TrichotomyEvidence,
    find_relations,
    free_subgroup_certificate,
    germ_faithfulness_probe,
    kernel_witness_commutator,
    kernel_witness_power,
    stabilizer_search,
)
from treeauto.machine_io import dump_machine
from treeauto.nucleus import ball, nucleus
from treeauto.words import Word


def test_relations_grigorchuk_squares():
    gens = entry("grigorchuk").generators
    rep = find_relations(gens, 2)
    assert rep.complete
    assert [str(w) for w in rep.relators] == ["a a", "b b", "c c", "d d"]


def test_relations_grigorchuk_triples():
    gens = entry("grigorchuk").generators
    rep = find_relations(gens, 3)
    assert rep.complete
    assert [str(w) for w in rep.relators] == [
        "a a", "b b", "c c", "d d", "b c d", "b d c",
    ]
    for w in rep.relators:
        assert evaluate_word(gens, w).is_identity()


def test_relations_free_families_fast_path():
    rep = find_relations(entry("adding_machine").generators, 10)
    assert rep.complete
    assert rep.relators == ()
    rep2 = find_relations(entry("aleshin").generators, 10)
    assert rep2.complete
    assert rep2.relators == ()


def test_relations_order_three_generators():
    rep = find_relations(entry("gupta_sidki_3").generators, 3)
    assert rep.complete
    assert [str(w) for w in rep.relators] == ["a a a", "t t t"]


def test_relations_trivial_generator():
    rep = find_relations({"x": identity(2)}, 2)
    assert rep.complete
    assert [str(w) for w in rep.relators] == ["x"]


def test_relations_budget():
    with pytest.raises(BudgetExceeded) as info:
        find_relations(entry("grigorchuk").generators, 4, budget=30)
    partial = info.value.partial
    assert partial.complete is False
    # 30 finishes half-length 1 but not 2, so the relators up to length 2
    assert [str(w) for w in partial.relators] == ["a a", "b b", "c c", "d d"]

    # aleshin takes the fast path, which reports no relators when cut short
    with pytest.raises(BudgetExceeded) as info:
        find_relations(entry("aleshin").generators, 10, budget=20)
    assert info.value.partial == RelationReport(10, (), False)


def test_relations_argument_checks():
    with pytest.raises(ValueError):
        find_relations({}, 3)
    with pytest.raises(ValueError):
        find_relations(entry("adding_machine").generators, 0)


def test_stabilizer_search_powers():
    gens = {"b": entry("tullio").generators["b"]}
    sample = stabilizer_search(gens, BoundaryPoint((), (0,)), 3)
    assert [str(w) for w in sample.words] == [
        "b", "b^-1", "b b", "b^-1 b^-1", "b b b", "b^-1 b^-1 b^-1",
    ]
    # the walk along 0 0 0 ... never leaves the active states
    assert sample.germ_trivial == (False,) * 6
    assert not sample.complete


def test_stabilizer_search_trivial_germs_marked():
    gens = entry("grigorchuk").generators
    sample = stabilizer_search(gens, BoundaryPoint((), (0,)), 1)
    assert [str(w) for w in sample.words] == ["d"]
    assert sample.germ_trivial == (True,)


def test_faithfulness_probe_abelian_stabilizer():
    gens = {"b": entry("tullio").generators["b"]}
    probe = germ_faithfulness_probe(gens, BoundaryPoint((), (0,)), max_len=3)
    assert probe.pairs_tested == 15
    assert probe.has_free_like is False
    assert probe.witness is None


def test_faithfulness_probe_klein_stabilizer():
    gens = entry("grigorchuk").generators
    probe = germ_faithfulness_probe(gens, BoundaryPoint((), (1,)), max_len=2)
    assert probe.has_free_like is False


def test_kernel_witness_power():
    w = kernel_witness_power("x x", "x x x")
    assert str(w) == "x x x x x x"
    assert kernel_witness_power("x y", "y x") is None
    # inverse powers share the root
    w2 = kernel_witness_power("x x", "x^-4")
    assert w2 is not None
    assert str(w2) == "x x x x"
    with pytest.raises(ValueError):
        kernel_witness_power("x x^-1", "y")


def test_kernel_witness_power_conjugated_roots():
    u = Word.parse("z x x z^-1")
    v = Word.parse("z x x x z^-1")
    w = kernel_witness_power(u, v)
    assert w == Word.parse("z x^6 z^-1")


def test_kernel_witness_commutator():
    c = kernel_witness_commutator("x", "y")
    assert str(c) == "x y x^-1 y^-1"
    with pytest.raises(ValueError):
        kernel_witness_commutator("x x", "x x x")


def test_witnesses_are_complementary():
    import random

    rng = random.Random(5)
    names = ["x", "y"]
    for _ in range(100):
        u = Word([(rng.choice(names), rng.choice((1, -1))) for _ in range(rng.randint(1, 6))])
        v = Word([(rng.choice(names), rng.choice((1, -1))) for _ in range(rng.randint(1, 6))])
        if u.is_identity() or v.is_identity():
            continue
        power = kernel_witness_power(u, v)
        if power is None:
            assert not kernel_witness_commutator(u, v).is_identity()
        else:
            with pytest.raises(ValueError):
                kernel_witness_commutator(u, v)


def test_free_certificate_relation_found():
    gens = entry("tullio").generators
    ev = free_subgroup_certificate(gens, "a", "a a", max_len=4)
    assert ev.status == "relation_found"
    gu = evaluate_word(gens, "a")
    gv = evaluate_word(gens, "a a")
    assert evaluate_word({"U": gu, "V": gv}, ev.relation).is_identity()


def test_free_certificate_involution_pair():
    gens = entry("grigorchuk").generators
    ev = free_subgroup_certificate(gens, "b", "c", max_len=4)
    assert ev.status == "relation_found"


def test_free_certificate_trivial_input():
    gens = entry("grigorchuk").generators
    ev = free_subgroup_certificate(gens, "b b", "c", max_len=4)
    assert ev.status == "trivial_input"
    assert ev.relation == "U"


def test_free_certificate_budget():
    # U, V and their inverses give 4 + 12 compositions up to length 2, so
    # the 21st extends a word of length 2
    with pytest.raises(BudgetExceeded) as info:
        free_subgroup_certificate(entry("aleshin").generators, "a", "b", 6, budget=20)
    assert info.value.partial == TrichotomyEvidence("free_up_to", ("a", "b"), 2)


def test_free_certificate_free_pair():
    gens = entry("aleshin").generators
    ev = free_subgroup_certificate(gens, "a", "b", max_len=6)
    assert ev.status == "free_up_to"
    assert ev.checked_len == 6
    assert ev.relation is None


def test_free_certificate_rejects_negative_max_len():
    gens = entry("aleshin").generators
    with pytest.raises(ValueError, match="max_len must be nonnegative"):
        free_subgroup_certificate(gens, "a", "b", -1)
    assert free_subgroup_certificate(gens, "a", "b", 0) == TrichotomyEvidence("free_up_to", ("a", "b"), 0)


@pytest.mark.parametrize(
    "call",
    [
        lambda gens: find_relations(gens, 4),
        lambda gens: ball(gens, 2),
        lambda gens: free_subgroup_certificate(gens, "a", "b", 3),
        lambda gens: nucleus(gens, max_size=2),
        lambda gens: nucleus(gens),
        lambda gens: dump_machine(gens),
    ],
    ids=[
        "find_relations",
        "ball",
        "free_subgroup_certificate",
        "nucleus_exceeded",
        "nucleus",
        "dump_machine",
    ],
)
def test_word_walks_reject_mixed_alphabets(call):
    binary, ternary = entry("aleshin").generators, entry("gupta_sidki_3").generators
    # the binary generator sorting first, then second
    for gens in ({"a": binary["a"], "b": ternary["t"]}, {"a": ternary["a"], "b": binary["b"]}):
        with pytest.raises(ValueError, match="generators act on different alphabets"):
            call(gens)


@pytest.fixture
def compose_calls(monkeypatch):
    """The list that every core.compose call appends to, from any module."""
    compose = core.compose
    calls = []

    def counting_compose(g, h):
        calls.append(None)
        return compose(g, h)

    monkeypatch.setattr(core, "compose", counting_compose)
    monkeypatch.setattr(freeness, "compose", counting_compose)
    return calls


def test_relation_fast_path_tells_words_apart_without_products(compose_calls):
    assert find_relations(entry("aleshin").generators, 8) == RelationReport(8, (), True)
    # composing once per word took 939 products here; the letters alone
    # tell that no generator is trivial or an involution
    assert len(compose_calls) == 0


def test_free_pair_certificate_tells_words_apart_without_products(compose_calls):
    evidence = free_subgroup_certificate(entry("aleshin").generators, "a", "b", 4)
    assert evidence == TrichotomyEvidence("free_up_to", ("a", "b"), 4)
    # composing once per word took 162 products here
    assert len(compose_calls) <= 10


def test_free_pair_certificate_keys_a_radius_over_the_cap(compose_calls):
    # level 12 has more than 256 vertices, so the walk keys on level 8
    evidence = free_subgroup_certificate(entry("aleshin").generators, "a", "b", 6)
    assert evidence == TrichotomyEvidence("free_up_to", ("a", "b"), 6)
    # skipping straight to the exact walk took 1,458 products here
    assert len(compose_calls) <= 10


def test_free_pair_certificate_at_the_default_length_stays_keyed(monkeypatch):
    # the walk settles repeated keys in place; a walk that handed over to
    # the exact walk here, after 3,505 of 13,120 words, took minutes and
    # gigabytes
    def no_exact_walk(*args):
        raise AssertionError("the keyed walk called _reduced_words")

    monkeypatch.setattr(core, "_reduced_words", no_exact_walk)
    evidence = free_subgroup_certificate(entry("aleshin").generators, "a", "b")
    assert evidence == TrichotomyEvidence("free_up_to", ("a", "b"), 8)

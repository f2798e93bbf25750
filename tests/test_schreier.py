from fractions import Fraction

import pytest

from treeauto.activity import theta, theta_relative
from treeauto import schreier
from treeauto.catalog import entry
from treeauto.cli import main
from treeauto.core import Automorphism, BoundaryPoint, BudgetExceeded, evaluate_word
from treeauto.schreier import (
    folner_candidate,
    gamma_prime_components,
    isoperimetric_profile,
    orbit,
    schreier_graph,
    symmetrize,
)


def test_symmetrize():
    adding = symmetrize(entry("adding_machine").generators)
    assert list(adding) == ["a", "a^-1"]
    grig = symmetrize(entry("grigorchuk").generators)
    # all four generators are involutions, nothing to add
    assert list(grig) == ["a", "b", "c", "d"]


def test_orbit_transitive_level():
    gens = entry("adding_machine").generators
    got = orbit(gens, (0, 0, 0))
    assert len(got) == 8
    assert got == tuple(sorted(got))


def test_orbit_proper_suborbit():
    b = {"b": entry("grigorchuk").generators["b"]}
    assert orbit(b, (0, 0, 0)) == ((0, 0, 0), (0, 1, 0))
    assert orbit(b, (1, 1, 1)) == ((1, 1, 1),)


def test_orbit_budget():
    gens = entry("adding_machine").generators
    with pytest.raises(BudgetExceeded) as info:
        orbit(gens, (0,) * 10, budget=100)
    assert len(info.value.partial) == 100


def test_orbit_rejects_bad_letters():
    with pytest.raises(ValueError):
        orbit(entry("adding_machine").generators, (0, 2))


def test_schreier_graph_adding():
    gr = schreier_graph(entry("adding_machine").generators, (0, 0, 0))
    assert gr.labels == ("a", "a^-1")
    assert len(gr.vertices) == 8
    assert len(gr.edges) == 16
    nontrivial = [e for e in gr.edges if not e[3]]
    assert len(nontrivial) == 2
    carry = {gr.vertices[e[0]] for e in nontrivial}
    assert carry == {(1, 1, 1), (0, 0, 0)}
    # the increment wraps the all-ones vertex around to all-zeros
    (i, _, t, _) = next(e for e in nontrivial if gr.vertices[e[0]] == (1, 1, 1))
    assert gr.vertices[t] == (0, 0, 0)


def test_gamma_prime_single_component():
    comps = gamma_prime_components(entry("adding_machine").generators, 3)
    assert len(comps) == 1
    assert len(comps[0]) == 8


def test_gamma_prime_splits_without_the_rooted_generator():
    b = {"b": entry("grigorchuk").generators["b"]}
    comps = gamma_prime_components(b, 3)
    sizes = sorted(len(c) for c in comps)
    assert sizes == [1, 1, 2, 2, 2]


def test_folner_adding_machine_exact():
    gens = entry("adding_machine").generators
    for n in range(1, 7):
        rep = folner_candidate(gens, n)
        assert rep.size == 2 ** n
        assert rep.boundary == 2
        assert rep.ratio == Fraction(2, 2 ** n)
        assert rep.bound == Fraction(2, 2 ** n)


def test_folner_tie_breaking():
    b = {"b": entry("grigorchuk").generators["b"]}
    rep = folner_candidate(b, 3)
    # several zero-boundary components exist; the larger wins, then lex order
    assert rep.ratio == 0
    assert rep.size == 2
    assert rep.candidate == ((0, 0, 0), (0, 1, 0))
    assert rep.bound == Fraction(1, 8)


def test_folner_respects_activity_bound():
    for name in ("adding_machine", "tullio", "grigorchuk", "basilica"):
        gens = entry(name).generators
        for rep in isoperimetric_profile(gens, 6):
            assert rep.ratio <= rep.bound
            assert sum(c.size for c in rep.components) == 2 ** rep.level


def test_folner_budget_and_args():
    gens = entry("grigorchuk").generators
    with pytest.raises(BudgetExceeded):
        folner_candidate(gens, 8, budget=100)
    with pytest.raises(ValueError):
        folner_candidate(gens, 0)


def test_theta_relative_rejects_negative_levels():
    gens = entry("grigorchuk").generators
    with pytest.raises(ValueError, match="level must be nonnegative"):
        theta_relative(gens, gens["b"], BoundaryPoint.parse(":1"), -1)
    with pytest.raises(ValueError, match="prefix length must be nonnegative"):
        BoundaryPoint.parse(":1").prefix(-1)


def test_isoperimetric_profile_rejects_negative_levels():
    gens = entry("grigorchuk").generators
    assert isoperimetric_profile(gens, 0) == ()
    with pytest.raises(ValueError, match="level must be nonnegative"):
        isoperimetric_profile(gens, -2)


def test_theta_relative_counts_active_orbit_vertices():
    gens = entry("tullio").generators
    zero = BoundaryPoint((), (0,))
    assert theta_relative(gens, gens["b"], zero, 2) == 3
    assert theta_relative(gens, gens["b"], zero, 0) == 1
    assert theta_relative(gens, gens["a"], zero, 4) == 1
    # relative to the sub-family {b} the orbit of 00 stays small
    assert theta_relative({"b": gens["b"]}, gens["b"], zero, 2) <= 3


def _no_level_sweep(g, n):
    raise AssertionError("level_action called on level %d" % n)


def test_orbit_on_a_deep_level_walks_only_the_orbit(monkeypatch):
    # a sweep of level 40 would hold 2^40 vertices; the orbit has one
    monkeypatch.setattr(schreier, "level_action", _no_level_sweep)
    b = {"b": entry("grigorchuk").generators["b"]}
    assert orbit(b, (1,) * 40) == ((1,) * 40,)


def test_deep_level_is_refused_before_any_sweep(monkeypatch):
    monkeypatch.setattr(schreier, "level_action", _no_level_sweep)
    monkeypatch.setattr(schreier, "_reduced_levels", lambda *args: pytest.fail("recursion run"))
    with pytest.raises(BudgetExceeded, match="level 40 has"):
        folner_candidate(entry("grigorchuk").generators, 40)


def test_level_graphs_sweep_no_level(monkeypatch):
    # components, candidates and profiles are read off the generators'
    # tables from the root down, never off whole-level rows
    monkeypatch.setattr(schreier, "level_action", _no_level_sweep)
    gens = entry("grigorchuk").generators
    assert len(gamma_prime_components(gens, 6)) == 1
    assert folner_candidate(gens, 6).size == 2 ** 6
    assert [rep.level for rep in isoperimetric_profile(gens, 6)] == [1, 2, 3, 4, 5, 6]


def _counted_recursions(monkeypatch) -> list:
    """The levels of a list of _reduced_levels calls, each with its result."""
    calls = []
    recursion = schreier._reduced_levels

    def counted(syms, level, *start):
        levels = recursion(syms, level, *start)
        calls.append((level, levels))
        return levels

    monkeypatch.setattr(schreier, "_reduced_levels", counted)
    return calls


def test_a_profile_runs_one_recursion(monkeypatch):
    calls = _counted_recursions(monkeypatch)
    gens = entry("basilica").generators
    profile = isoperimetric_profile(gens, 8)
    assert [level for level, _ in calls] == [8]
    assert profile == tuple(folner_candidate(gens, n) for n in range(1, 9))


def test_a_profile_over_the_budget_names_its_first_level(monkeypatch):
    monkeypatch.setattr(schreier, "_reduced_levels", lambda *args: pytest.fail("recursion run"))
    with pytest.raises(BudgetExceeded, match="level 7 has 128 vertices") as info:
        isoperimetric_profile(entry("grigorchuk").generators, 10, budget=100)
    assert (info.value.spent, info.value.limit) == (128, 100)


def test_negative_level_is_refused_before_any_sweep(monkeypatch):
    monkeypatch.setattr(schreier, "level_action", _no_level_sweep)
    gens = entry("grigorchuk").generators
    with pytest.raises(ValueError, match="level must be nonnegative"):
        gamma_prime_components(gens, -1)
    # the budget is checked first, so both bad together keep its message
    with pytest.raises(ValueError, match="budget must be at least 1"):
        gamma_prime_components(gens, -1, budget=0)


def test_theta_relative_checks_alphabets_before_any_orbit_work(monkeypatch):
    # a ternary g read against a binary orbit would count the wrong vertices
    monkeypatch.setattr(schreier, "level_action", _no_level_sweep)
    monkeypatch.setattr(schreier, "orbit", lambda *args, **kwargs: pytest.fail("orbit called"))
    monkeypatch.setattr(schreier, "_reduced_levels", lambda *args: pytest.fail("recursion run"))
    gens = entry("grigorchuk").generators
    ternary = entry("gupta_sidki_3").generators["a"]
    with pytest.raises(ValueError, match="^g and the generators act on different alphabets$"):
        theta_relative(gens, ternary, BoundaryPoint.parse(":0"), 3)
    # generators on mixed alphabets are their own fault, whatever g is
    mixed = {"a": gens["a"], "t": ternary}
    for g in (gens["a"], ternary):
        with pytest.raises(ValueError, match="^generators act on different alphabets$"):
            theta_relative(mixed, g, BoundaryPoint.parse(":0"), 3)


def test_a_small_orbit_on_a_level_that_fits_is_read_off_the_recursion(monkeypatch):
    # 2^19 vertices fit the default budget; the orbit has one, and every
    # level of the recursion keeps only the component of the prefix (the
    # two pieces below it are built, the one off the orbit dropped)
    monkeypatch.setattr(schreier, "level_action", _no_level_sweep)
    calls = _counted_recursions(monkeypatch)
    b = {"b": entry("grigorchuk").generators["b"]}
    assert orbit(b, (1,) * 19) == ((1,) * 19,)
    [(level, levels)] = calls
    assert level == 19
    assert [sizes for sizes, _, _ in levels] == [{2 ** m - 1: 1} for m in range(20)]


def test_which_entries_carry_gluing_ends():
    # B, the components of g(u), glues pieces only below a trivial section:
    # with no start vertex Aleshin's generators, which have none, never
    # carry it, and Grigorchuk's always do; an orbit joins components by any
    # nontrivial section, so with a start vertex every entry carries B
    def ends(family, start=None):
        syms = list(symmetrize(entry(family).generators).values())
        levels = schreier._reduced_levels(syms, 8, start)
        return [B for _, entries, _ in levels for _, B in entries.values()]

    aleshin, grigorchuk = ends("aleshin"), ends("grigorchuk")
    assert aleshin and all(B is None for B in aleshin)
    assert grigorchuk and all(B is not None for B in grigorchuk)
    assert all(B is not None for B in ends("aleshin", (0,) * 8))


def test_theta_relative_on_a_one_orbit_level_runs_one_recursion(monkeypatch):
    monkeypatch.setattr(schreier, "level_action", _no_level_sweep)
    calls = _counted_recursions(monkeypatch)
    gens = entry("grigorchuk").generators
    g = evaluate_word(gens, "a b a c")
    assert theta_relative(gens, g, BoundaryPoint.parse(":0"), 12) == theta(g, 12)
    assert [level for level, _ in calls] == [12]


@pytest.fixture
def walks(monkeypatch):
    """The vertices Automorphism._walk is called on, in call order."""
    calls = []
    walk = Automorphism._walk

    def counted(self, v):
        calls.append(v)
        return walk(self, v)

    monkeypatch.setattr(Automorphism, "_walk", counted)
    return calls


def test_a_level_that_fits_the_budget_is_swept_not_walked(walks):
    gens = entry("grigorchuk").generators
    assert len(schreier_graph(gens, (0,) * 10).vertices) == 2 ** 10
    assert walks == []
    # the orbit is the whole level, so every active vertex of b counts
    assert theta_relative(gens, gens["b"], BoundaryPoint.parse(":0"), 12) == theta(gens["b"], 12)
    assert walks == []


def test_a_level_over_the_budget_walks_each_vertex_once(walks):
    b = {"b": entry("grigorchuk").generators["b"]}
    assert orbit(b, (1,) * 40) == ((1,) * 40,)
    assert walks == [(1,) * 40]


def test_schreier_budget_report_is_unchanged(capsys):
    assert main(["schreier", "-f", "adding_machine", "000", "--budget", "3"]) == 2
    assert capsys.readouterr().out == (
        "{\n"
        '  "budget": "vertices",\n'
        '  "detail": "orbit budget of 3 vertices exhausted",\n'
        '  "error": "budget exceeded",\n'
        '  "limit": 3,\n'
        '  "partial": [\n'
        '    "000",\n'
        '    "100",\n'
        '    "111"\n'
        "  ],\n"
        '  "spent": 4\n'
        "}\n"
    )


LEVEL_ENTRY_POINTS = (
    lambda gens: orbit(gens, (0, 0)),
    lambda gens: schreier_graph(gens, (0, 0)),
    lambda gens: gamma_prime_components(gens, 2),
    lambda gens: folner_candidate(gens, 2),
    lambda gens: isoperimetric_profile(gens, 2),
    lambda gens: isoperimetric_profile(gens, 0),
)


@pytest.mark.parametrize(
    "call",
    LEVEL_ENTRY_POINTS,
    ids=("orbit", "schreier_graph", "gamma_prime_components", "folner", "profile", "profile_0"),
)
def test_level_entry_points_reject_bad_generator_sets(call):
    binary = entry("adding_machine").generators["a"]
    ternary = entry("gupta_sidki_3").generators["a"]
    with pytest.raises(ValueError, match="need at least one generator"):
        call({})
    # the binary generator sorting first, then second
    for gens in ({"a": binary, "b": ternary}, {"a": ternary, "b": binary}):
        with pytest.raises(ValueError, match="generators act on different alphabets"):
            call(gens)

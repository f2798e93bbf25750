"""Every BudgetExceeded names its budget, what the search spent and the limit.

Limits that mean nothing are refused with ValueError before any search:
relation, certificate and orbit budgets below 0 (an orbit never charges
its start vertex), element and level budgets and germ group orders
below 1.  A ball that stops at its budget stops at
the same element, with the same partial map, whatever its walk computed
ahead.
"""

import hashlib
import json

import pytest

from treeauto.activity import theta_relative
from treeauto.catalog import entry
from treeauto.cli import main
from treeauto.core import BoundaryPoint, BudgetExceeded
from treeauto.freeness import (
    RelationReport,
    find_relations,
    free_subgroup_certificate,
    germ_faithfulness_probe,
    stabilizer_search,
)
from treeauto.nucleus import ball, germ_group, is_self_similar
from treeauto.schreier import (
    folner_candidate,
    gamma_prime_components,
    isoperimetric_profile,
    orbit,
    schreier_graph,
)


def gens(family):
    return entry(family).generators


@pytest.mark.parametrize(
    "call, budget, spent, limit",
    [
        # aleshin takes the fast path, grigorchuk the exact search
        (lambda: find_relations(gens("aleshin"), 10, budget=20), "relations", 21, 20),
        (lambda: find_relations(gens("grigorchuk"), 5, budget=30), "relations", 31, 30),
        (lambda: free_subgroup_certificate(gens("aleshin"), "a", "b", 6, budget=20), "certificate", 21, 20),
        # a ball and an orbit stop at the first element or vertex that does not fit
        (lambda: ball(gens("aleshin"), 8, budget=50), "ball", 51, 50),
        (lambda: orbit(gens("adding_machine"), (0,) * 10, budget=100), "vertices", 101, 100),
        # a level graph is refused by its vertex count
        (lambda: folner_candidate(gens("grigorchuk"), 12, budget=1000), "vertices", 4096, 1000),
    ],
    ids=["relations_fast_path", "relations_exact", "certificate", "ball", "orbit", "level"],
)
def test_budget_exceeded_names_budget_spent_and_limit(call, budget, spent, limit):
    with pytest.raises(BudgetExceeded) as info:
        call()
    assert (info.value.budget, info.value.spent, info.value.limit) == (budget, spent, limit)


def test_cli_budget_payload_carries_the_details(capsys):
    assert main(["relations", "-f", "grigorchuk", "--max-len", "5", "--budget", "30"]) == 2
    payload = json.loads(capsys.readouterr().out)
    assert sorted(payload) == ["budget", "detail", "error", "limit", "partial", "spent"]
    assert (payload["budget"], payload["spent"], payload["limit"]) == ("relations", 31, 30)
    assert payload["error"] == "budget exceeded"
    assert payload["detail"] == "relation search budget exhausted"
    assert payload["partial"]["complete"] is False


def test_cli_fast_path_payload_carries_the_details(capsys):
    # aleshin takes the fast path
    assert main(["relations", "-f", "aleshin", "--max-len", "10", "--budget", "20"]) == 2
    payload = json.loads(capsys.readouterr().out)
    assert payload["detail"] == "relation search budget exhausted"
    assert (payload["budget"], payload["spent"], payload["limit"]) == ("relations", 21, 20)
    assert payload["partial"]["relators"] == []
    assert payload["partial"]["complete"] is False


def test_budget_details_default_to_none():
    exc = BudgetExceeded("stopped", partial=RelationReport(1, (), False))
    assert (exc.budget, exc.spent, exc.limit) == (None, None, None)
    assert str(exc) == "stopped"


# -- limits refused at the boundary --------------------------------------------

RAY = BoundaryPoint.parse(":1")


@pytest.mark.parametrize(
    "call",
    [
        lambda: find_relations(gens("grigorchuk"), 3, budget=-1),
        lambda: free_subgroup_certificate(gens("aleshin"), "a", "b", 2, budget=-1),
        lambda: ball(gens("grigorchuk"), 2, budget=0),
        lambda: is_self_similar(gens("grigorchuk"), 2, budget=0),
        lambda: germ_group(gens("grigorchuk"), RAY, 2, budget=0),
        lambda: germ_group(gens("grigorchuk"), RAY, 2, max_order=0),
        lambda: stabilizer_search(gens("grigorchuk"), RAY, 2, budget=0),
        lambda: germ_faithfulness_probe(gens("grigorchuk"), RAY, 2, budget=0),
        lambda: orbit(gens("adding_machine"), "000", budget=-1),
        lambda: schreier_graph(gens("adding_machine"), "000", budget=-1),
        lambda: gamma_prime_components(gens("grigorchuk"), 3, budget=0),
        lambda: folner_candidate(gens("grigorchuk"), 3, budget=0),
        lambda: isoperimetric_profile(gens("grigorchuk"), 0, budget=0),
        lambda: theta_relative(gens("grigorchuk"), gens("grigorchuk")["b"], RAY, 3, budget=-1),
    ],
    ids=[
        "find_relations", "free_subgroup_certificate", "ball", "is_self_similar",
        "germ_group", "germ_group_max_order", "stabilizer_search",
        "germ_faithfulness_probe", "orbit", "schreier_graph",
        "gamma_prime_components", "folner_candidate", "isoperimetric_profile",
        "theta_relative",
    ],
)
def test_meaningless_limits_are_refused(call):
    with pytest.raises(ValueError, match="must be"):
        call()


def test_least_limits_are_accepted():
    # a relation budget of 0 runs out at the first word instead
    with pytest.raises(BudgetExceeded) as info:
        find_relations(gens("grigorchuk"), 3, budget=0)
    assert (info.value.spent, info.value.limit) == (1, 0)
    assert len(ball(gens("grigorchuk"), 0, budget=1)[0]) == 1
    # an orbit never charges its start vertex, so 0 admits a fixed one
    assert orbit(gens("adding_machine"), "", budget=0) == ((),)
    # the closure stops at the first class past max_order: the stabilizer's
    # second class here (finishing the round would list e b c d)
    rep = germ_group(gens("grigorchuk"), RAY, 2, max_order=1)
    assert (rep.order, rep.representatives, rep.complete, rep.table) == (2, ("e", "b"), False, ())


@pytest.mark.parametrize(
    "argv", [["relations", "-f", "grigorchuk", "--budget", "-1"],
             ["schreier", "-f", "adding_machine", "000", "--budget", "-5"]],
    ids=["relations", "schreier"],
)
def test_cli_refuses_meaningless_budgets(argv, capsys):
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: budget must be")


# -- a ball stopped at its budget ------------------------------------------------


def digest(elements: dict) -> str:
    h = hashlib.sha256()
    for value, word in elements.items():
        h.update(repr((str(word), value.perms, value.trans, value.initial)).encode())
    return h.hexdigest()[:16]


# (family, max_len, ray, ball size, digest of the whole ball, digest of the
# map that stops one element short), frozen from the walk that composed
# once per word
BALLS = [
    ("grigorchuk", 4, ":1", 40, "6869c1ba444d5426", "5e569794096f98dc"),
    ("aleshin", 3, ":0", 187, "7eb94f574418df8c", "4f3c607dacf8210c"),
]
STABILIZERS = {
    "grigorchuk": (
        ("b", "c", "d", "a d a", "a d a b", "a d a c", "a d a d", "b a d a", "c a d a"),
        (False, False, False, True, False, False, False, False, False),
    ),
    "aleshin": (("a c b^-1", "b a^-1 c^-1", "b c^-1 a^-1", "c a b^-1"), (False,) * 4),
}


@pytest.mark.parametrize("family, max_len, ray, size, whole, short", BALLS, ids=[b[0] for b in BALLS])
def test_budget_boundaries(family, max_len, ray, size, whole, short):
    g, point = gens(family), BoundaryPoint.parse(ray)
    elements, closed = ball(g, max_len, size)
    assert (len(elements), digest(elements), closed) == (size, whole, False)
    sample = stabilizer_search(g, point, max_len, size)
    assert (tuple(map(str, sample.words)), sample.germ_trivial) == STABILIZERS[family]
    calls = [ball, stabilizer_search]
    if family == "grigorchuk":
        report = germ_group(g, point, max_len, size)
        assert (report.order, report.representatives) == (4, ("e", "b", "c", "d"))
        calls.append(germ_group)
    for call in calls:
        args = (g, max_len, size - 1) if call is ball else (g, point, max_len, size - 1)
        with pytest.raises(BudgetExceeded) as info:
            call(*args)
        exc = info.value
        assert (exc.budget, exc.spent, exc.limit) == ("ball", size, size - 1)
        assert (len(exc.partial), digest(exc.partial)) == (size - 1, short)

"""Every BudgetExceeded names its budget, what the search spent and the limit."""

import json

import pytest

from treeauto.catalog import entry
from treeauto.cli import main
from treeauto.core import BudgetExceeded
from treeauto.freeness import RelationReport, find_relations, free_subgroup_certificate
from treeauto.nucleus import ball
from treeauto.schreier import folner_candidate, orbit


def gens(family):
    return entry(family).generators


@pytest.mark.parametrize(
    "call, budget, spent, limit",
    [
        # aleshin takes the fast path, grigorchuk the exact search
        (lambda: find_relations(gens("aleshin"), 10, budget=20), "relations", 21, 20),
        (lambda: find_relations(gens("grigorchuk"), 5, budget=600), "relations", 601, 600),
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
    assert main(["relations", "-f", "grigorchuk", "--max-len", "5", "--budget", "600"]) == 2
    payload = json.loads(capsys.readouterr().out)
    assert sorted(payload) == ["budget", "detail", "error", "limit", "partial", "spent"]
    assert (payload["budget"], payload["spent"], payload["limit"]) == ("relations", 601, 600)
    assert payload["error"] == "budget exceeded"
    assert payload["detail"] == "relation search budget exhausted"
    assert payload["partial"]["complete"] is False


def test_budget_details_default_to_none():
    exc = BudgetExceeded("stopped", partial=RelationReport(1, (), False))
    assert (exc.budget, exc.spent, exc.limit) == (None, None, None)
    assert str(exc) == "stopped"

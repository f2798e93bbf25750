import json
import subprocess
import sys
from importlib import import_module

from treeauto.catalog import entry
from treeauto.cli import main
from treeauto.core import BoundaryPoint, identity
from treeauto.freeness import stabilizer_search
from treeauto.machine_io import parse_machine


def run(*args):
    proc = subprocess.run(
        [sys.executable, "-m", "treeauto", *args],
        capture_output=True,
        text=True,
    )
    return proc.returncode, proc.stdout, proc.stderr


def run_json(*args):
    code, out, err = run(*args)
    assert code == 0, err
    return json.loads(out)


def test_eval_vertex_and_ray():
    assert run_json("eval", "-f", "adding_machine", "a", "011") == "111"
    assert run_json("eval", "-f", "adding_machine", "a", ":10") == "01:10"
    assert run_json("eval", "-f", "grigorchuk", "a a", "110") == "110"


def test_classify_includes_directions():
    out = run_json("classify", "-f", "grigorchuk", "b")
    assert out["class"] == "bounded"
    assert out["directions"] == [":1"]
    assert out["finitary_depth"] == 1
    out2 = run_json("classify", "-f", "tullio", "b")
    assert (out2["class"], out2["degree"]) == ("polynomial", 1)
    assert "directions" not in out2


def test_theta_and_relative():
    out = run_json("theta", "-f", "tullio", "b", "--levels", "5")
    assert out["theta"] == [1, 2, 3, 4, 5, 6]
    rel = run_json("theta", "-f", "tullio", "b", "--levels", "2", "--point", ":0")
    assert rel["theta_relative"] == [1, 2, 3]


def test_measure():
    out = run_json("measure", "-f", "grigorchuk", "b", "--levels", "6")
    assert out["singular_measure"] == {"num": 0, "den": 1}
    fracs = [x["num"] / x["den"] for x in out["empirical"]]
    assert all(a >= b for a, b in zip(fracs, fracs[1:]))


def test_nucleus_elements_parse_back():
    out = run_json("nucleus", "-f", "grigorchuk")
    assert out["status"] == "found"
    assert out["size"] == 5
    assert out["self_similar"] == "yes"
    parsed = set()
    for i, text in enumerate(out["elements"]):
        gens = parse_machine(text)
        parsed.add(gens["n%d" % i])
    grig = entry("grigorchuk").generators
    assert parsed == {identity(2)} | {grig[n] for n in "abcd"}


def test_nucleus_reports_divergence():
    out = run_json("nucleus", "-f", "tullio", "--max-size", "30")
    assert out["status"] == "exceeded"
    assert out["reason"] == "size limit"


def test_nucleus_self_similarity_under_a_small_budget():
    # the whole ball of radius 4 exceeds 5 elements, but the witnesses of
    # every section come first, so the check answers
    out = run_json("nucleus", "-f", "basilica", "--budget", "5")
    assert out["status"] == "found"
    assert out["self_similar"] == "yes"


def test_germs_command():
    out = run_json("germs", "-f", "grigorchuk", "--point", ":1", "--max-len", "4")
    assert out["order"] == 4
    assert out["complete"] is True
    table = out["table"]
    for i in range(4):
        assert table[i][i] == 0


def test_schreier_json_and_dot():
    out = run_json("schreier", "-f", "adding_machine", "00")
    assert out["vertices"] == ["00", "01", "10", "11"]
    assert out["labels"] == ["a", "a^-1"]
    assert len(out["edges"]) == 8
    code, dot, _ = run("schreier", "-f", "adding_machine", "00", "--dot")
    assert code == 0
    assert dot.startswith("digraph schreier {")
    assert 'v0 [label="00"];' in dot
    assert "style=bold" in dot


def test_folner_command():
    out = run_json("folner", "-f", "adding_machine", "--level", "3")
    assert out["ratio"] == {"num": 1, "den": 4}
    assert out["bound"] == {"num": 1, "den": 4}
    assert out["size"] == 8
    prof = run_json("folner", "-f", "adding_machine", "--profile", "4")
    assert [r["level"] for r in prof["profile"]] == [1, 2, 3, 4]


def test_folner_profile_zero_is_an_empty_profile():
    assert run_json("folner", "-f", "adding_machine", "--profile", "0") == {"profile": []}


def test_negative_level_counts_are_input_errors():
    for args in (
        ("theta", "-f", "tullio", "b", "--levels", "-1"),
        ("theta", "-f", "tullio", "b", "--levels", "-1", "--point", ":0"),
        ("measure", "-f", "tullio", "b", "--levels", "-1"),
        ("folner", "-f", "adding_machine", "--profile", "-2"),
        ("trichotomy", "-f", "adding_machine", "--levels", "-1", "--max-len", "1"),
    ):
        assert run(*args) == (1, "", "error: level must be nonnegative\n"), args


def test_nucleus_limits_below_one_are_input_errors():
    for flag in ("--max-depth", "--max-size"):
        code, out, err = run("nucleus", "-f", "grigorchuk", flag, "0")
        assert (code, out) == (1, "")
        assert "must be at least 1" in err


def test_relations_command():
    out = run_json("relations", "-f", "grigorchuk", "--max-len", "2")
    assert out == {
        "complete": True,
        "max_len": 2,
        "relators": ["a a", "b b", "c c", "d d"],
    }


def test_stabilizer_command():
    out = run_json("stabilizer", "-f", "tullio", "--point", ":0", "--max-len", "2")
    assert out["words"] == ["b", "b^-1", "b b", "b^-1 b^-1"]
    assert out["germ_trivial"] == [False, False, False, False]


def test_negative_max_len_is_an_input_error():
    code, out, err = run("stabilizer", "-f", "grigorchuk", "--point", ":1", "--max-len", "-1")
    assert (code, out) == (1, "")
    assert "max_len must be nonnegative" in err


def test_trichotomy_command():
    out = run_json(
        "trichotomy", "-f", "grigorchuk", "--point", ":1", "--max-len", "2", "--levels", "3"
    )
    assert out["relations"]["relators"] == ["a a", "b b", "c c", "d d"]
    assert len(out["folner_ratios"]) == 3
    assert out["points"][0]["germ_order"] == 4
    assert out["free_certificate"]["status"] == "relation_found"


def test_a_certificate_partial_is_the_report_it_stands_for(capsys):
    argv = ["trichotomy", "-f", "aleshin", "--max-len", "4", "--budget", "100", "--levels", "1"]
    assert main(argv) == 2
    payload = json.loads(capsys.readouterr().out)
    evidence = {"checked_len": 3, "pair": ["a", "b"], "relation": None, "status": "free_up_to"}
    assert payload["partial"] == evidence
    assert (payload["budget"], payload["spent"]) == ("certificate", 101)
    # the same report from a run that completes, printed the same way
    assert main(["trichotomy", "-f", "aleshin", "--max-len", "3", "--levels", "1"]) == 0
    assert json.loads(capsys.readouterr().out)["free_certificate"] == evidence


def test_trichotomy_builds_one_ball_per_point(monkeypatch, capsys):
    # the package re-exports a function named nucleus, so look modules up by name
    nucleus = import_module("treeauto.nucleus")
    reduced_words = nucleus._reduced_words
    calls = []

    def counting_walk(*args):
        calls.append(args)
        return reduced_words(*args)

    # every walk of the ball's words, for ball itself or for the stabilizers
    monkeypatch.setattr(nucleus, "_reduced_words", counting_walk)
    argv = ["trichotomy", "-f", "grigorchuk", "--point", ":1", "--max-len", "3"]
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["points"][0]["germ_order"] == 4
    assert len(calls) == 1


def test_trichotomy_builds_one_ball_per_run(monkeypatch, capsys):
    cli = import_module("treeauto.cli")
    stabilizers = cli._stabilizers
    calls = []

    def counting_stabilizers(*args, **kwargs):
        calls.append(args)
        return stabilizers(*args, **kwargs)

    monkeypatch.setattr(cli, "_stabilizers", counting_stabilizers)
    argv = ["trichotomy", "-f", "grigorchuk", "--point", ":1", "--point", ":0", "--max-len", "3"]
    assert main(argv) == 0
    points = json.loads(capsys.readouterr().out)["points"]
    assert [p["point"] for p in points] == [":1", ":0"]
    assert points[0]["germ_order"] == 4
    assert len(calls) == 1
    # without --point no ball is needed at all
    assert main(["trichotomy", "-f", "grigorchuk", "--max-len", "3", "--levels", "2"]) == 0
    assert json.loads(capsys.readouterr().out)["points"] == []
    assert len(calls) == 1


def test_trichotomy_walks_each_ray_once_per_point(monkeypatch, capsys):
    """Each ball element's ray is walked once per point, for the germ group
    and the faithfulness probe together: on the ball walk's rows from the
    element's block (the identity's on its own tables), and for an element
    that fixes the ray once more on its value, for its germ key in the
    value's numbering.  The germ closure walks one more ray per product,
    order squared of them."""
    core, nucleus = import_module("treeauto.core"), import_module("treeauto.nucleus")
    gens = entry("grigorchuk").generators
    size = len(nucleus.ball(gens, 3)[0])
    hits = [len(stabilizer_search(gens, BoundaryPoint.parse(p), 3).words) for p in (":1", ":0")]
    ray_walk = core._ray_walk
    calls = []

    def counting_ray_walk(*args):
        calls.append(args)
        return ray_walk(*args)

    # Automorphism._ray walks through core's binding, the ball walk through nucleus'
    monkeypatch.setattr(core, "_ray_walk", counting_ray_walk)
    monkeypatch.setattr(nucleus, "_ray_walk", counting_ray_walk)
    argv = ["trichotomy", "-f", "grigorchuk", "--point", ":1", "--point", ":0", "--max-len", "3"]
    assert main(argv) == 0
    orders = [p["germ_order"] for p in json.loads(capsys.readouterr().out)["points"]]
    assert len(calls) == sum(size + hit + order * order for hit, order in zip(hits, orders))


def test_gens_restricts_the_generating_set():
    out = run_json("relations", "-f", "grigorchuk", "--gens", "a,b", "--max-len", "6")
    assert out["relators"] == ["a a", "b b"]
    orb = run_json("schreier", "-f", "grigorchuk", "000", "--gens", "b")
    assert orb["vertices"] == ["000", "010"]
    assert orb["labels"] == ["b"]

    code, _, err = run("nucleus", "-f", "grigorchuk", "--gens", "x")
    assert code == 1
    assert "no generator 'x'" in err


def test_empty_gens_names_no_generator(capsys):
    for picked in ("", ",", " "):
        assert main(["nucleus", "-f", "grigorchuk", "--gens", picked]) == 1, picked
        assert capsys.readouterr() == ("", "error: no generator '' (have: a, b, c, d)\n"), picked


def test_catalog_list_and_dump():
    out = run_json("catalog", "list")
    names = [f["name"] for f in out["families"]]
    assert names == sorted(names)
    assert "grigorchuk" in names

    code, text, _ = run("catalog", "dump", "basilica")
    assert code == 0
    assert parse_machine(text) == dict(entry("basilica").generators)


def test_exit_codes():
    code, out, err = run("schreier", "-f", "adding_machine", "0000000000", "--budget", "50")
    assert code == 2
    payload = json.loads(out)
    assert payload["error"] == "budget exceeded"
    assert len(payload["partial"]) == 50

    code, _, err = run("eval", "-f", "nonexistent", "a", "0")
    assert code == 1
    assert "no catalog entry" in err

    code, _, _ = run("eval")
    assert code == 1

    code, _, _ = run("catalog", "dump")
    assert code == 1

    code, _, err = run("eval", "-f", "adding_machine", "zz", "01")
    assert code == 1
    assert "zz" in err

    code, out, err = run("eval", "-f", "adding_machine", "a^0", "011")
    assert (code, out) == (1, "")
    assert err == "error: bad exponent in token 'a^0'\n"

    for target, text in (("0x1", "0x1"), (":0x", "0x")):
        code, out, err = run("eval", "-f", "adding_machine", "a", target)
        assert (code, out) == (1, "")
        assert err == "error: non-digit character 'x' in vertex %r\n" % text, target

    for target in ("05", ":05"):
        code, _, err = run("eval", "-f", "adding_machine", "a", target)
        assert code == 1
        assert err == "error: letter 5 is out of range for an alphabet of size 2\n"


def test_output_is_deterministic():
    for args in (
        ("nucleus", "-f", "basilica"),
        ("folner", "-f", "grigorchuk", "--level", "4"),
        ("trichotomy", "-f", "adding_machine", "--point", ":1", "--max-len", "3"),
    ):
        first = run(*args)
        second = run(*args)
        assert first == second
        assert first[0] == 0


_HEAVY = ("treeauto.activity", "treeauto.schreier", "treeauto.freeness")


def _modules_after(argv, watched=_HEAVY):
    """The watched modules (treeauto's heavy ones by default) loaded after
    main(argv) in a fresh interpreter."""
    code = (
        "import contextlib, io, sys\n"
        "from treeauto.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert main(%r) == 0\n"
        "print(' '.join(sorted(sys.modules)))\n"
    ) % (list(argv),)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return set(watched).intersection(proc.stdout.split())


def test_each_command_loads_only_what_it_runs():
    assert _modules_after(["catalog", "list"]) == set()
    assert _modules_after(["eval", "-f", "grigorchuk", "a b", "0110"]) == set()
    assert _modules_after(["classify", "-f", "grigorchuk", "b"]) == {"treeauto.activity"}


def test_printing_a_report_loads_no_fractions():
    # the encoder tells a Fraction by its denominator, so commands whose
    # reports hold none never load fractions, or the decimal module it pulls in
    for argv in (
        ["relations", "-f", "grigorchuk", "--max-len", "3"],
        ["germs", "-f", "grigorchuk", "--point", ":1", "--max-len", "4"],
        ["stabilizer", "-f", "tullio", "--point", ":0", "--max-len", "2"],
    ):
        assert _modules_after(argv, ("fractions", "decimal")) == set(), argv

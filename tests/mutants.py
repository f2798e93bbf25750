"""Mutation gate: every mutant of the package must make its named tests fail.

Run from anywhere, with pytest and hypothesis installed:

    python tests/mutants.py

A mutant names a file under src/, an exact old text that occurs there
once, the new text that replaces it and the ids of the tests that must
catch it.  The script first runs every named test on an unmutated copy of
src/ and requires them all to pass; then it applies each mutant to a fresh
temporary copy of src/, runs only that mutant's tests on it and requires a
test failure.  A mutant whose tests still pass survives; so does one whose
tests cannot run (a collection error is not a failing test).  It prints
"killed n of m", appends that line to the file named by
$GITHUB_STEP_SUMMARY when it is set, and exits 1 unless every mutant was
killed.  The script uses the standard library only and sits outside the
test_*.py files that pytest collects.

A mutant that survives is a finding: strengthen the tests that should
have caught it, never drop the mutant or change what it expects.
"""

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    path: str  # relative to src/
    old: str
    new: str
    tests: tuple  # pytest ids, relative to the repository root


KERNEL = "tests/test_kernel_properties.py::"
RECORDS = "tests/test_records.py::"

MUTANTS = [
    Mutant(
        "right machine: a value's edges to the identity land on the union's state base",
        "treeauto/core.py",
        "t and t + base for t in row",
        "t + base for t in row",
        (KERNEL + "test_right_machine_against_the_reference", KERNEL + "test_right_machine_on_the_catalog"),
    ),
    Mutant(
        "right machine: starts are union states, not their blocks",
        "treeauto/core.py",
        "[ids[u] for u in roots]",
        "[u for u in roots]",
        (KERNEL + "test_right_machine_against_the_reference", KERNEL + "test_right_machine_on_the_catalog"),
    ),
    Mutant(
        "binary pair walk: the two letters' columns swapped",
        "treeauto/core.py",
        "c0, c1 = cols",
        "c1, c0 = cols",
        (KERNEL + "test_binary_bodies_on_drawn_machines", KERNEL + "test_from_states_and_compose"),
    ),
    Mutant(
        "binary read-off: the two letters' successors taken in reverse",
        "treeauto/core.py",
        "a, b = trans[t]",
        "b, a = trans[t]",
        (KERNEL + "test_read_off_against_the_dict_read_off", KERNEL + "test_binary_bodies_on_drawn_machines"),
    ),
    Mutant(
        "read-off: the last state met left marked in the shared mark list",
        "treeauto/core.py",
        "        mark[t] = -1\n",
        "        mark[t] = -1 if t != order[-1] else mark[t]\n",
        (KERNEL + "test_read_off_against_the_dict_read_off", KERNEL + "test_read_off_on_every_ball_layer"),
    ),
    Mutant(
        "keyed seed: a pair keyed as the product in the wrong order, the left key through the right",
        "treeauto/core.py",
        "hkeys[pair % m].translate(gkeys[pair // m])",
        "gkeys[pair // m][: len(hkeys[0])].translate(hkeys[pair % m].ljust(256))",
        (KERNEL + "test_keyed_walks_on_drawn_machines", KERNEL + "test_keyed_walks_on_every_ball_layer"),
    ),
    Mutant(
        "keyed seed: the identity pair keyed apart from the pairs that act trivially",
        "treeauto/core.py",
        "seeds = [hkeys[0], *[",
        "seeds = [bytes(len(hkeys[0])), *[",
        (KERNEL + "test_keyed_walks_on_drawn_machines", KERNEL + "test_keyed_walks_on_every_ball_layer"),
    ),
    Mutant(
        "level recursion: the gluing flag never set by a start",
        "treeauto/schreier.py",
        "carry = [start is not None or any(",
        "carry = [any(",
        (KERNEL + "test_orbits_on_both_paths_on_drawn_machines", KERNEL + "test_orbits_on_both_paths_on_a_mixed_machine"),
    ),
    Mutant(
        "level recursion: whole-level keys kept across a split level",
        "treeauto/schreier.py",
        "            seen.clear()\n",
        "            pass\n",
        (KERNEL + "test_a_split_level_between_two_equal_whole_levels", KERNEL + "test_level_graphs_on_drawn_pairs"),
    ),
    Mutant(
        "germ closure: the class bound checked only between rounds of products",
        "treeauto/nucleus.py",
        "                if len(reps) > max_order:\n                    break\n",
        "",
        (KERNEL + "test_germ_keys_on_drawn_pairs", KERNEL + "test_germ_keys_on_catalog_balls"),
    ),
    Mutant(
        "singular measure: the initial state solved first, not last",
        "treeauto/activity.py",
        "R = sorted(s for s in canreach if s not in (0, g.initial)) + [g.initial]",
        "R = [g.initial] + sorted(s for s in canreach if s not in (0, g.initial))",
        (
            "tests/test_activity.py::test_singular_measure_against_the_fraction_solve_on_drawn_machines",
            "tests/test_activity.py::test_singular_measure_strictly_between",
        ),
    ),
    Mutant(
        "records: equal across classes, the class check dropped",
        "treeauto/core.py",
        "        if other.__class__ is not self.__class__:\n            return NotImplemented\n",
        "",
        (RECORDS + "test_equal_only_within_a_class",),
    ),
    Mutant(
        "records: a dict default shared between records, not copied",
        "treeauto/core.py",
        "dict(default) if type(default) is dict else default",
        "default",
        (RECORDS + "test_a_dict_default_is_fresh_for_each_record",),
    ),
    Mutant(
        "records: assignment to a field goes through",
        "treeauto/core.py",
        'raise AttributeError("cannot assign to field %r" % name)',
        "object.__setattr__(self, name, value)",
        (RECORDS + "test_records_are_immutable",),
    ),
]


def run_tests(src: Path, tests) -> int:
    """pytest's exit code for `tests` with the package imported from `src`:
    0 when they pass, 1 when some test failed, anything else when they
    could not run."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join([str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    return subprocess.run(command, cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode


def copy_of_src(into: str) -> Path:
    src = Path(into) / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    return src


def main() -> int:
    for m in MUTANTS:
        count = (ROOT / "src" / m.path).read_text().count(m.old)
        if count != 1:
            print("mutant %r: its old text occurs %d times in src/%s" % (m.name, count, m.path))
            return 1
    tests = sorted({t for m in MUTANTS for t in m.tests})
    with tempfile.TemporaryDirectory() as tmp:
        code = run_tests(copy_of_src(tmp), tests)
    if code != 0:
        print("the unmutated package fails its mutants' tests (pytest exit code %d)" % code)
        return 1
    killed = 0
    for m in MUTANTS:
        with tempfile.TemporaryDirectory() as tmp:
            src = copy_of_src(tmp)
            target = src / m.path
            target.write_text(target.read_text().replace(m.old, m.new))
            code = run_tests(src, m.tests)
        verdict = "killed" if code == 1 else "SURVIVED" if code == 0 else "SURVIVED (pytest exit code %d)" % code
        killed += code == 1
        print("%s: %s" % (verdict, m.name))
    line = "killed %d of %d mutants" % (killed, len(MUTANTS))
    print(line)
    if os.environ.get("GITHUB_STEP_SUMMARY"):
        with open(os.environ["GITHUB_STEP_SUMMARY"], "a") as summary:
            summary.write(line + "\n")
    return 0 if killed == len(MUTANTS) else 1


if __name__ == "__main__":
    sys.exit(main())

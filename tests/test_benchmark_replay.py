"""The benchmark's frozen results, replayed inside the test suite.

One seeded pass of each workload of perfbench runs through the
benchmark's own check: its independent oracles, the digests of canonical
results and the CLI stdouts frozen in perfbench/expected.json.  A change
to any canonical value, the exact state numbering included, or to one
byte of a command's output fails here and not only in a benchmark run.
The cli commands run in process through treeauto.cli.main (0.07 s for all
of them), not in the child interpreters the benchmark starts.
"""

import random

import pytest

@pytest.mark.parametrize("workload", ["free_words", "contracting", "levels", "cli"])
def test_one_seeded_pass_matches_the_frozen_results(workloads, workload):
    expected = workloads.load_expected()
    # the draw of pass 0 under seed 1, as perfbench/run.py makes it
    tasks = workloads.PASSES[workload](random.Random("%s:1:0" % workload))
    faults = []
    for task in tasks:
        result = workloads.run_cli_inprocess(task.argv) if task.argv else task.run()
        print_ = workloads.fingerprint(task, result) if task.frozen else None
        error = workloads.check(task, result, print_, expected)
        if error is not None:
            faults.append((task.key, error))
    assert tasks and faults == []

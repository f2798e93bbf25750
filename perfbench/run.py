"""The treeauto benchmark: seeded task lists, checked outputs, timed passes.

Run from the root of a checkout:

    python3 perfbench/run.py --workload levels --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

A run is a closed loop with one client on one thread: it draws a pass of
tasks from the seed, runs them back to back, checks every output, and
draws the next pass until --seconds have gone by (and at least
MIN_SAMPLES tasks have run, so the 90th percentile has ten samples above
it).  With --trace 0 it reports the end-to-end metrics; with --trace 1 it
runs each pass untraced and then traced (see spans.py) and reports the
per-layer metrics.  The last line of stdout is one JSON object; the lines
before it are for people.  --workload all runs every workload both ways,
each in its own process.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter
from typing import NoReturn

sys.dont_write_bytecode = True

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("free_words", "contracting", "levels", "cli")
MIN_SAMPLES = 100
SETUP_REPEATS = 15
SETUP_CODE = "import treeauto; treeauto.builtin(); print('ready', flush=True)"
BUILTIN_CODE = (
    "import time, treeauto.catalog as c; t = time.perf_counter(); c.builtin(); "
    "print(time.perf_counter() - t)"
)


def fail(message: str) -> NoReturn:
    print("perfbench: %s" % message, file=sys.stderr)
    raise SystemExit(2)


# -- a reference for the interpreter's speed ---------------------------------------

# Best time of reference_loop() on the machine that defined the benchmark
# (2-vCPU Intel Xeon VM at 2.0 GHz, CPython 3.11.7).  End-to-end times are
# reported at this speed; see SpeedGauge.
REFERENCE_S = 0.0011


def reference_loop() -> int:
    """Fixed pure-Python work, independent of treeauto."""
    d: dict[int, int] = {}
    for i in range(8000):
        d[i & 1023] = d.get(i & 1023, 0) + i
    return sum(sorted(d.values()))


class SpeedGauge:
    """Scales measured times to the interpreter speed at which REFERENCE_S was taken.

    Other tenants of this kind of machine slow every instruction by up to
    1.8x for seconds to minutes at a time, which no statistic over raw times
    of one run can undo.  The gauge times reference_loop() (best of two)
    between consecutive measurements and scales each measurement by
    REFERENCE_S over the mean of the reference times taken just before and
    just after it.  A change to treeauto moves the measurement and never the
    reference, so a saving shows in full.
    """

    def __init__(self):
        self.last = self.sample()

    @staticmethod
    def sample() -> float:
        best = float("inf")
        for _ in range(2):
            t0 = perf_counter()
            reference_loop()
            best = min(best, perf_counter() - t0)
        return best

    def scale(self, seconds: float) -> float:
        now = self.sample()
        factor = REFERENCE_S / ((self.last + now) / 2)
        self.last = now
        return seconds * factor


# -- child interpreters -----------------------------------------------------------


def time_child(code: str, until_ready: bool = False) -> float:
    """Seconds from spawning `python -c code` to its exit, or to its first line."""
    from workloads import CHILD_TIMEOUT, child_env

    t0 = perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-c", code], env=child_env(),
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
    )
    try:
        line = proc.stdout.readline() if until_ready else b"ready"
        ready = perf_counter() - t0
        proc.communicate(timeout=CHILD_TIMEOUT)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        fail("child `%s` did not finish within %d s" % (code, CHILD_TIMEOUT))
    if proc.returncode != 0 or line.strip() != b"ready":
        fail("child `%s` failed (exit %d, first line %r)" % (code, proc.returncode, line))
    return ready if until_ready else perf_counter() - t0


def child_output(code: str) -> str:
    from workloads import CHILD_TIMEOUT, child_env

    return subprocess.run(
        [sys.executable, "-c", code], env=child_env(), check=True, timeout=CHILD_TIMEOUT,
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
    ).stdout.decode()


def median_of(fn, repeats: int = SETUP_REPEATS) -> float:
    return statistics.median(fn() for _ in range(repeats))


def setup_seconds(workload: str, gauge: SpeedGauge) -> float:
    """Fresh process to first task ready: interpreter, import, catalog build."""
    if workload == "cli":
        return median_of(lambda: gauge.scale(time_child("import treeauto.cli")))
    return median_of(lambda: gauge.scale(time_child(SETUP_CODE, until_ready=True)))


# -- passes -----------------------------------------------------------------------


def draw(workload: str, seed: int, index: int):
    import workloads

    return workloads.PASSES[workload](random.Random("%s:%d:%d" % (workload, seed, index)))


def run_tasks(tasks, tracer=None, runner=None, gauge=None):
    """Run one pass; returns per-task seconds (scaled by the gauge, if given)
    and (result, error) pairs."""
    seconds, outcomes = [], []
    for i, task in enumerate(tasks):
        call = task.run if runner is None else (lambda task=task: runner(task.argv))
        if tracer is not None:
            tracer.task = i
        t0 = perf_counter()
        try:
            result, error = call(), None
        except Exception:  # a task that raises counts as failed, the run goes on
            result, error = None, traceback.format_exc(limit=-3)
        elapsed = perf_counter() - t0
        seconds.append(elapsed if gauge is None else gauge.scale(elapsed))
        outcomes.append((result, error))
    return seconds, outcomes


class Tally:
    """Attempted and failed tasks, with the first few failures kept for the log."""

    def __init__(self, expected: dict):
        self.expected = expected
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def fault(self, key: str, message: str):
        self.failed += 1
        if len(self.messages) < 10:
            self.messages.append("%s: %s" % (key, message))

    def check(self, tasks, outcomes, fingerprints: bool = False) -> list:
        """Check a pass; with fingerprints, return them to compare two runs of it."""
        import workloads

        prints = []
        for task, (result, error) in zip(tasks, outcomes):
            self.attempted += 1
            print_ = None
            if error is None:
                if fingerprints or task.frozen or task.argv:
                    print_ = workloads.fingerprint(task, result)
                error = workloads.check(task, result, print_, self.expected)
            if error is not None:
                self.fault(task.key, error)
                print_ = None
            prints.append(print_)
        # one sampled level per pass: the Folner bound recounted vertex by vertex
        for task, (result, error) in zip(tasks, outcomes):
            if task.key.startswith("folner|") and error is None:
                if not workloads.folner_bound_by_brute_force(task, result):
                    self.fault(task.key, "activity bound differs from the brute-force count")
                break
        return prints


def add_pass(slots: list, seconds: list) -> list:
    """Append one pass's task seconds to the per-slot lists (slot i: i-th task)."""
    slots = slots or [[] for _ in seconds]
    for slot, sec in zip(slots, seconds):
        slot.append(sec)
    return slots


def median_pass(slots: list) -> float:
    """One pass with every task slot at its median time over the run's passes."""
    return sum(statistics.median(slot) for slot in slots)


def percentile(values, p: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def measure(workload: str, seed: int, seconds: float, tally: Tally) -> dict:
    """Untraced passes until the time is up; the end-to-end metrics."""
    gauge = SpeedGauge()
    setup = setup_seconds(workload, gauge)
    start = perf_counter()
    limit = start + min(3 * seconds, 150)
    slots: list[list[float]] = []
    task_seconds: list[float] = []
    index = 0
    while perf_counter() < start + seconds or (
        len(task_seconds) < MIN_SAMPLES and perf_counter() < limit
    ):
        tasks = draw(workload, seed, index)
        secs, outcomes = run_tasks(tasks, gauge=gauge)
        tally.check(tasks, outcomes)
        slots = add_pass(slots, secs)
        task_seconds.extend(secs)
        index += 1
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    peak_mb = resource.getrusage(who).ru_maxrss / 1024
    print("# passes %d, tasks %d (p90 has %d samples above it)" % (
        index, len(task_seconds), len(task_seconds) - int(0.9 * len(task_seconds))))
    return {
        "work_s": (median_pass(slots), "s"),
        "task_ms_p50": (1000 * statistics.median(task_seconds), "ms"),
        "task_ms_p90": (1000 * percentile(task_seconds, 90), "ms"),
        "setup_s": (setup, "s"),
        "peak_rss_mb": (peak_mb, "MB"),
    }


def measure_layers(workload: str, seed: int, seconds: float, tally: Tally) -> dict:
    """Each pass untraced, then traced; the per-layer metrics."""
    import spans
    import workloads

    interpreter = median_of(lambda: time_child("pass"))
    imported = median_of(lambda: time_child("import treeauto.cli"))
    built = median_of(lambda: float(child_output(BUILTIN_CODE)))
    runner = workloads.run_cli_inprocess if workload == "cli" else None

    tracer = spans.Tracer()
    gauge = SpeedGauge()
    start = perf_counter()
    layers, plain_slots, traced_slots, invocations = [], [], [], []
    index = 0
    while perf_counter() < start + seconds or not layers:
        tasks = draw(workload, seed, index)
        if workload == "cli":
            secs, outcomes = run_tasks(tasks)
            tally.check(tasks, outcomes)
            invocations.extend(secs)
        plain, outcomes = run_tasks(tasks, runner=runner, gauge=gauge)
        first = tally.check(tasks, outcomes, fingerprints=True)
        tracer.install()
        try:
            traced, outcomes = run_tasks(tasks, tracer=tracer, runner=runner, gauge=gauge)
        finally:
            tracer.uninstall()
        second = tally.check(tasks, outcomes, fingerprints=True)
        for task, a, b in zip(tasks, first, second):
            if a != b:
                tally.fault(task.key, "traced and untraced runs disagree")
        layers.append(spans.layer_numbers(tracer.take()))
        plain_slots = add_pass(plain_slots, plain)
        traced_slots = add_pass(traced_slots, traced)
        index += 1

    out = {}
    for name in layers[0]:
        if name in spans.COUNTS:
            out[name] = (layers[0][name], "count")  # pass 0: exact for the seed
        else:
            out[name] = (statistics.median(layer[name] for layer in layers), unit_of(name))
    command = statistics.median(invocations) - imported if invocations else 0.0
    out["cli.interpreter_s"] = (interpreter, "s")
    out["cli.import_s"] = (imported - interpreter, "s")
    out["cli.command_s"] = (command, "s")
    out["catalog.builtin_s"] = (built, "s")
    out["trace.overhead_s"] = (median_pass(traced_slots) - median_pass(plain_slots), "s")
    print("# traced passes %d" % index)
    print_layers(out)
    return out


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return {
        "core.compose.identity_operand_share": "share",
        "core.compose.us_per_state_out": "us",
        "nucleus.ball.elements_per_compose": "ratio",
    }[name]


def print_layers(out: dict):
    rows = sorted(
        (name[: -len(".self_s")] for name in out if name.endswith(".self_s")),
        key=lambda n: -out[n + ".self_s"][0],
    )
    total = sum(out[n + ".self_s"][0] for n in rows) or 1.0
    print("# %-40s %10s %10s %7s" % ("layer function", "calls", "self_s", "share"))
    for n in rows:
        calls, self_s = out[n + ".calls"][0], out[n + ".self_s"][0]
        if calls:
            print("# %-40s %10d %10.4f %6.1f%%" % (n, calls, self_s, 100 * self_s / total))
    for name, (value, unit) in sorted(out.items()):
        if not name.endswith((".calls", ".self_s")):
            print("# %-40s %14.6g %s" % (name, value, unit))


# -- provenance ---------------------------------------------------------------------


def commit() -> str:
    """The checked-out commit, read from .git without running git; "unknown" if none."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


# -- entry points -------------------------------------------------------------------


def run_one(workload: str, seed: int, seconds: float, trace: int) -> int:
    import workloads

    # one CPU for the run and its children, so the gauge times the CPU the
    # measured work runs on: the two CPUs of a shared VM slow down at
    # different moments
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    tally = Tally(workloads.load_expected())
    print("# workload %s seed %d trace %d python %s nproc %d commit %s" % (
        workload, seed, trace, platform.python_version(), os.cpu_count(), commit()))
    if trace:
        metrics = measure_layers(workload, seed, seconds, tally)
    else:
        metrics = measure(workload, seed, seconds, tally)
        for name, (value, unit) in metrics.items():
            print("# %-12s %12.6g %s" % (name, value, unit))
    print("# fail_rate %.6g (%d of %d tasks)" % (
        tally.failed / max(tally.attempted, 1), tally.failed, tally.attempted))
    for message in tally.messages:
        print("# FAILED %s" % message, file=sys.stderr)
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0


def run_all(seed: int, seconds: float) -> int:
    """Every workload untraced and traced, each run in a fresh process."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                stdout=subprocess.PIPE, text=True, check=True,
            )
            lines = proc.stdout.rstrip("\n").split("\n")
            print("\n".join(lines[:-1]))
            result = json.loads(lines[-1])
            combined["correct"] &= result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            for name, value in result["metrics"].items():
                combined["metrics"]["%s.%s" % (workload, name)] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "treeauto" / "__init__.py").is_file():
        fail("no treeauto sources at %s; run from the root of a checkout" % SRC)
    if not (HERE / "expected.json").is_file():
        fail("perfbench/expected.json is missing; run perfbench/freeze.py")
    # treeauto and the benchmark's own modules are imported only from here on
    sys.path[:0] = [str(SRC), str(HERE)]
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    return run_one(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())

"""Seeded task lists for the four workloads, and the oracle for each task.

A pass is one list of tasks, drawn from random.Random(f"{workload}:{seed}:{pass}")
so every pass brings fresh inputs and the same seed always brings the same
passes.  Each workload fixes how many tasks of each kind and size a pass
holds and lets the seed draw only the words, pairs, vertices and rays, so a
pass costs about the same under every seed.

Every task is checked.  Independent oracles are used where mathematics
gives one (free groups, odometer ratios, nucleus sizes, brute-force
activity counts); every other task compares a digest of its canonical
result with the digest frozen in expected.json by freeze.py, which runs
each task that a pass can draw once.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import itertools
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional

from importlib import import_module

import treeauto.cli
from treeauto.catalog import builtin
from treeauto.core import Automorphism, BoundaryPoint
from treeauto.freeness import TrichotomyEvidence
from treeauto.words import Word

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
EXPECTED = HERE / "expected.json"

# the package re-exports a function named `nucleus`, so look the modules up
activity, core, freeness, nucleus, schreier = (
    import_module("treeauto." + m) for m in ("activity", "core", "freeness", "nucleus", "schreier")
)


def gens(family: str):
    return builtin()[family].generators


# -- canonical results and digests ---------------------------------------------


def canon(x):
    """A JSON-able form of a result that two equal results share."""
    t = type(x)
    if x is None or t in (bool, int, str):
        return x
    if t in (tuple, list):
        if all(type(v) is int for v in x):  # vertices, permutations: the bulk of big results
            return list(x)
        return [canon(v) for v in x]
    if t is Automorphism:
        return ["aut", x.k, [list(p) for p in x.perms], [list(r) for r in x.trans], x.initial]
    if t in (Word, BoundaryPoint):
        return str(x)
    if t is Fraction:
        return "%d/%d" % (x.numerator, x.denominator)
    if dataclasses.is_dataclass(x):
        return {name: canon(getattr(x, name)) for name in x.__dataclass_fields__}
    if t is dict:
        return sorted(([canon(k), canon(v)] for k, v in x.items()), key=_dumps)
    if t in (set, frozenset):
        return sorted((canon(v) for v in x), key=_dumps)
    raise TypeError("no canonical form for %r" % t)


def _dumps(x) -> str:
    return json.dumps(x, sort_keys=True, separators=(",", ":"))


def digest(result) -> str:
    return hashlib.sha256(_dumps(canon(result)).encode()).hexdigest()[:20]


# -- tasks ----------------------------------------------------------------------


@dataclasses.dataclass
class Task:
    """One call into treeauto.

    run makes the call; the library functions are looked up on their modules
    at call time, so a traced pass sees the wrapped ones.  key names the
    inputs and, when frozen is set, the digest in expected.json the result
    must match.  oracle, when given, is an independent check.
    """

    key: str
    run: Callable[[], object]
    frozen: bool = True
    oracle: Optional[Callable[[object], bool]] = None
    argv: tuple = ()


def fingerprint(task: Task, result) -> str:
    """What two equal results of the task share: the stdout, or a digest."""
    return result if task.argv else digest(result)


def check(task: Task, result, print_: Optional[str], expected: dict) -> Optional[str]:
    """None when the result is right, else what is wrong with it.

    print_ is the result's fingerprint, or None when the task is not frozen
    and nobody asked for one.
    """
    if task.argv:
        if print_ != expected["cli_stdout"].get(task.key):
            return "stdout differs from the frozen text"
    elif task.frozen:
        want = expected["digests"].get(task.key)
        if want is None:
            return "no frozen result for %s" % task.key
        if print_ != want:
            return "result differs from the frozen one"
    if task.oracle is not None and not task.oracle(result):
        return "oracle rejects the result"
    return None


# -- input spaces -----------------------------------------------------------------


def letters_of(family: str) -> list[str]:
    return [x for name in sorted(gens(family)) for x in (name, name + "^-1")]


def random_word(rng, family: str, length: int) -> str:
    """A freely reduced word of exactly the given length."""
    letters = letters_of(family)
    out: list[str] = []
    while len(out) < length:
        x = rng.choice(letters)
        if out and Word.parse(out[-1] + " " + x).letters == ():
            continue
        out.append(x)
    return " ".join(out)


def rays(k: int) -> list[BoundaryPoint]:
    """Eventually periodic rays with preperiod at most 1 and period at most 2."""
    seen: dict[BoundaryPoint, None] = {}
    for pre_len in (0, 1):
        for pre in itertools.product(range(k), repeat=pre_len):
            for per_len in (1, 2):
                for per in itertools.product(range(k), repeat=per_len):
                    seen.setdefault(BoundaryPoint(pre, per))
    return sorted(seen, key=str)


def word_pool(family: str, size: int = 40) -> list[str]:
    """A fixed pool of products of lengths 2..8, the same on every run."""
    rng = random.Random("pool:" + family)
    return [random_word(rng, family, 2 + i % 7) for i in range(size)]


def brute_theta(g: Automorphism, n: int) -> int:
    """Level-n vertices under which g's section is nontrivial, one walk each."""
    count = 0
    for v in itertools.product(range(g.k), repeat=n):
        s = g.initial
        for x in v:
            s = g.trans[s][x]
        count += s != 0
    return count


# -- free_words ------------------------------------------------------------------

_ALESHIN_LETTERS = [(name, sign) for name in "abc" for sign in (1, -1)]
ALESHIN_WORDS = {
    n: [w for w in itertools.product(_ALESHIN_LETTERS, repeat=n) if Word(w).letters == w]
    for n in (1, 2)
}


def _root(w: tuple) -> tuple:
    return w[:1] if len(w) == 2 and w[0] == w[1] else w


def _commute(u: tuple, v: tuple) -> bool:
    """Do two reduced words of length <= 2 commute in the free group?"""
    ru, rv = _root(u), _root(v)
    return ru == rv or ru == tuple((n, -s) for n, s in reversed(rv))


def _wstr(w: tuple) -> str:
    return str(Word(w))


def _certificate(rng, len_u: int, len_v: int, max_len: int) -> Task:
    # Aleshin's group is free of rank 3, so two words that do not commute
    # generate a free group of rank 2 and no pattern can collapse
    while True:
        u = rng.choice(ALESHIN_WORDS[len_u])
        v = rng.choice(ALESHIN_WORDS[len_v])
        if not _commute(u, v):
            break
    us, vs = _wstr(u), _wstr(v)
    want = TrichotomyEvidence("free_up_to", (us, vs), max_len)
    return Task(
        "certificate|aleshin|%s|%s|%d" % (us, vs, max_len),
        lambda: freeness.free_subgroup_certificate(gens("aleshin"), us, vs, max_len),
        frozen=False,
        oracle=lambda r: r == want,
    )


def _relations(family: str, n: int, oracle=None) -> Task:
    return Task(
        "relations|%s|%d" % (family, n),
        lambda: freeness.find_relations(gens(family), n),
        oracle=oracle,
    )


def _ball(family: str, r: int, oracle=None) -> Task:
    return Task("ball|%s|%d" % (family, r), lambda: nucleus.ball(gens(family), r), oracle=oracle)


def _free_relations(r) -> bool:
    return r.relators == () and r.complete


def _aleshin_ball(r: int):
    # the ball of radius r in the free group of rank 3
    size = 1 + 6 * (5 ** r - 1) // 4
    return lambda res: len(res[0]) == size and res[1] is False


def free_words(rng) -> list[Task]:
    # slots in rising cost: three light ones, two pair certificates of 20 to
    # 60 ms, four fixed tasks of about 35 ms, two mid ones, and the two
    # heaviest tasks making the top tenth.  The median falls among the four
    # fixed tasks and the 90th percentile among the two heaviest, rather than
    # on the step between two groups or among seeded tasks whose cost varies
    # with the draw
    tasks = [_relations("tullio", n) for n in (5, 6, 7)]
    tasks += [_certificate(rng, 1, 2, 3), _certificate(rng, 2, 1, 3)]
    tasks += [
        _relations("aleshin", 5, _free_relations),
        _relations("aleshin", 6, _free_relations),
        _ball("aleshin", 3, _aleshin_ball(3)),
        _ball("tullio", 5),
    ]
    tasks += [_certificate(rng, 1, 1, 4), _ball("tullio", 6)]
    tasks += [_relations("aleshin", 7, _free_relations), _ball("aleshin", 4, _aleshin_ball(4))]
    return tasks


# -- contracting ------------------------------------------------------------------

NUCLEUS_SIZE = {"adding_machine": 3, "grigorchuk": 5, "basilica": 7}
EVERY_FAMILY = ("adding_machine", "aleshin", "basilica", "grigorchuk", "gupta_sidki_3", "tullio")


def _nucleus_oracle(family: str):
    if family in NUCLEUS_SIZE:
        return lambda r: r.status == "found" and r.size == NUCLEUS_SIZE[family]
    if family == "tullio":
        return lambda r: r.status == "exceeded"
    return None


def _activity(family: str, word: str) -> Task:
    def run():
        g = core.evaluate_word(gens(family), word)
        return (
            activity.classify_activity(g),
            activity.directions(g),
            activity.singular_measure(g),
        )

    return Task("activity|%s|%s" % (family, word), run)


def _germ_tasks(family: str, point: BoundaryPoint, with_probe: bool = True) -> list[Task]:
    tasks = [
        Task(
            "germs|%s|%s" % (family, point),
            lambda: nucleus.germ_group(gens(family), point, max_len=4),
        ),
        Task(
            "stabilizer|%s|%s" % (family, point),
            lambda: freeness.stabilizer_search(gens(family), point, 4),
        ),
    ]
    if with_probe:
        tasks.append(
            Task(
                "probe|%s|%s" % (family, point),
                lambda: freeness.germ_faithfulness_probe(gens(family), point, max_len=3),
            )
        )
    return tasks


# ten activity tasks of about a millisecond: with them the median falls in
# the middle of the germ and stabilizer tasks and the 90th percentile in the
# middle of the three relator and nucleus tasks of 100 to 200 ms
ACTIVITY_DRAWS = {"basilica": 3, "grigorchuk": 3, "gupta_sidki_3": 2, "adding_machine": 2}

# the probe's cost on basilica swings thirtyfold between rays, so a seeded
# basilica probe would make pass cost depend on the seed
GERM_FAMILIES = {"grigorchuk": True, "gupta_sidki_3": True, "basilica": False}


def contracting_fixed() -> list[Task]:
    tasks = [
        _relations("grigorchuk", 4),
        _relations("grigorchuk", 5),
        _relations("grigorchuk", 6),
        _relations("gupta_sidki_3", 5),
        _relations("gupta_sidki_3", 6),
        _relations("basilica", 7),
        Task(
            "germs|grigorchuk|:1",
            lambda: nucleus.germ_group(gens("grigorchuk"), BoundaryPoint((), (1,)), max_len=4),
            oracle=lambda r: r.order == 4 and r.complete,
        ),
    ]
    for family in EVERY_FAMILY:
        tasks.append(
            Task(
                "nucleus|%s" % family,
                lambda family=family: nucleus.nucleus(gens(family)),
                oracle=_nucleus_oracle(family),
            )
        )
        tasks.append(
            Task(
                "self_similar|%s" % family,
                lambda family=family: nucleus.is_self_similar(gens(family), max_len=4),
            )
        )
    return tasks


def contracting_pool() -> list[Task]:
    tasks = []
    for family, with_probe in GERM_FAMILIES.items():
        for point in rays(gens(family)["a"].k):
            tasks.extend(_germ_tasks(family, point, with_probe))
    for family in ACTIVITY_DRAWS:
        tasks.extend(_activity(family, w) for w in word_pool(family))
    return tasks


def contracting(rng) -> list[Task]:
    tasks = contracting_fixed()
    for family, with_probe in GERM_FAMILIES.items():
        for point in rng.sample(rays(gens(family)["a"].k), 2):
            tasks.extend(_germ_tasks(family, point, with_probe))
    for family, count in ACTIVITY_DRAWS.items():
        tasks.extend(_activity(family, w) for w in rng.sample(word_pool(family), count))
    return tasks


# -- levels -----------------------------------------------------------------------

TRANSITIVE = ("adding_machine", "basilica", "grigorchuk")


def _folner_oracle(family: str, level: int):
    def ok(r) -> bool:
        if r.ratio > r.bound:
            return False
        if family == "adding_machine":
            return r.ratio == Fraction(2, 2 ** level)
        return True

    return ok


def _schreier(family: str, v: tuple) -> Task:
    # every level of these groups is one orbit, so the graph from any start
    # vertex is the graph of the whole level and one digest serves the level
    n = len(v)
    k = gens(family)["a"].k
    return Task(
        "schreier|%s|%d" % (family, n),
        lambda: schreier.schreier_graph(gens(family), v),
        oracle=lambda r: len(r.vertices) == k ** n,
    )


def _theta_relative(rng, family: str, level: int) -> Task:
    word = random_word(rng, family, rng.randint(2, 6))
    g = core.evaluate_word(gens(family), word)
    point = rng.choice(rays(g.k))
    want = brute_theta(g, level)
    return Task(
        "theta_relative|%s|%s|%s|%d" % (family, word, point, level),
        lambda: activity.theta_relative(gens(family), g, point, level),
        frozen=False,
        oracle=lambda r: r == want,
    )


def levels_fixed() -> list[Task]:
    tasks = []
    for family, level in (
        ("grigorchuk", 11), ("grigorchuk", 12), ("basilica", 11),
        ("adding_machine", 11), ("adding_machine", 12), ("gupta_sidki_3", 7),
    ):
        tasks.append(
            Task(
                "folner|%s|%d" % (family, level),
                lambda family=family, level=level: schreier.folner_candidate(gens(family), level),
                oracle=_folner_oracle(family, level),
            )
        )
    for family in ("grigorchuk", "basilica"):
        tasks.append(
            Task(
                "profile|%s|8" % family,
                lambda family=family: schreier.isoperimetric_profile(gens(family), 8),
            )
        )
    return tasks


def levels_pool() -> list[Task]:
    return [_schreier(f, (0,) * n) for f in TRANSITIVE for n in (8, 10)]


def levels(rng) -> list[Task]:
    tasks = levels_fixed()
    for family in TRANSITIVE:
        for n in (8, 10):
            tasks.append(_schreier(family, tuple(rng.randrange(2) for _ in range(n))))
        for level in (10, 12):
            tasks.append(_theta_relative(rng, family, level))
    return tasks


def folner_bound_by_brute_force(task: Task, result) -> bool:
    """The activity bound of a Folner report, recounted vertex by vertex."""
    family = task.key.split("|")[1]
    syms = schreier.symmetrize(gens(family)).values()
    k = next(iter(syms)).k
    total = sum(brute_theta(s, result.level) for s in syms)
    return result.bound == Fraction(total, k ** result.level)


# -- cli --------------------------------------------------------------------------

CLI_COMMANDS = (
    ("eval", "-f", "adding_machine", "a", "011"),
    ("classify", "-f", "grigorchuk", "b"),
    ("theta", "-f", "tullio", "b", "--levels", "6"),
    ("measure", "-f", "grigorchuk", "b", "--levels", "8"),
    ("nucleus", "-f", "basilica"),
    ("germs", "-f", "grigorchuk", "--point", ":1", "--max-len", "4"),
    ("schreier", "-f", "adding_machine", "000"),
    ("folner", "-f", "grigorchuk", "--level", "4"),
    ("relations", "-f", "grigorchuk", "--max-len", "3"),
    ("stabilizer", "-f", "tullio", "--point", ":0", "--max-len", "2"),
    ("trichotomy", "-f", "adding_machine", "--point", ":1", "--max-len", "3"),
    ("catalog", "list"),
    ("catalog", "dump", "grigorchuk"),
    ("folner", "-f", "grigorchuk", "--level", "8"),
    ("relations", "-f", "aleshin", "--max-len", "6"),
)


def child_env() -> dict:
    """Environment for child interpreters: this checkout's src, no bytecode written."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


# no single command or child interpreter may hold a run past its time limit
CHILD_TIMEOUT = 60


def run_cli(argv: tuple) -> str:
    proc = subprocess.run(
        [sys.executable, "-m", "treeauto", *argv],
        env=child_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        check=True,
        timeout=CHILD_TIMEOUT,
    )
    return proc.stdout.decode()


def run_cli_inprocess(argv: tuple) -> str:
    """The same command through treeauto.cli.main in this process."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = treeauto.cli.main(list(argv))
    if code != 0:
        raise RuntimeError("exit code %d" % code)
    return out.getvalue()


def cli_key(argv: tuple) -> str:
    return "cli|" + " ".join(argv)


def cli(rng) -> list[Task]:
    # fixed commands with fixed output: the seed draws nothing here
    return [Task(cli_key(argv), lambda argv=argv: run_cli(argv), argv=argv) for argv in CLI_COMMANDS]


# -- the four workloads ---------------------------------------------------------------

PASSES = {"free_words": free_words, "contracting": contracting, "levels": levels, "cli": cli}


def frozen_tasks() -> list[Task]:
    """One task for every frozen key that any pass can draw."""
    tasks = free_words(random.Random(0)) + contracting_fixed() + contracting_pool()
    tasks += levels_fixed() + levels_pool() + cli(random.Random(0))
    return [t for t in tasks if t.frozen]


def load_expected() -> dict:
    with open(EXPECTED) as fh:
        return json.load(fh)

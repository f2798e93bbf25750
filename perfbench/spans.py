"""Spans around calls into treeauto's public functions, recorded from outside.

A Tracer replaces every module-level binding of each traced function with a
wrapper that appends one span (function, start, end, parent span, task id,
work count) to an in-memory list.  Every binding matters: a module that did
`from .core import compose` holds its own reference, and patching only
`treeauto.core.compose` would leave those calls invisible and their counts
at zero.  Spans are only turned into per-layer numbers after the pass, so
the wrapped call pays for two clock reads and two list appends.
"""

from __future__ import annotations

import sys
from time import perf_counter

# the public functions of each layer, by defining module
TRACED = {
    "core": ("compose", "section", "apply", "invert", "apply_boundary", "evaluate_word"),
    "words": ("Word.__mul__",),
    "activity": ("theta", "theta_relative", "classify_activity", "directions", "singular_measure"),
    "nucleus": (
        "limit_states", "nucleus", "ball", "is_self_similar", "stabilizes", "germ_is_trivial",
        "germ_group",
    ),
    "schreier": (
        "orbit", "schreier_graph", "gamma_prime_components", "folner_candidate",
        "isoperimetric_profile",
    ),
    "freeness": (
        "find_relations", "free_subgroup_certificate", "stabilizer_search",
        "germ_faithfulness_probe",
    ),
    "machine_io": ("dump_machine", "parse_machine"),
    "catalog": ("builtin", "entry"),
    "cli": ("main",),
}


def _metric_name(module: str, attr: str) -> str:
    return "%s.%s" % (module, attr.replace("__mul__", "mul"))


NAMES = tuple(_metric_name(m, a) for m, attrs in TRACED.items() for a in attrs)


# work counts taken from a call's arguments and result
def _compose_work(args, result):
    g, h = args[0], args[1]
    return (result.state_count, 1 if g.initial == 0 or h.initial == 0 else 0)


def _apply_work(args, result):
    return (len(args[1]),)


def _ball_work(args, result):
    return (len(result[0]),)


def _orbit_work(args, result):
    return (len(result),)


WORK = {
    "core.compose": _compose_work,
    "core.apply": _apply_work,
    "nucleus.ball": _ball_work,
    "schreier.orbit": _orbit_work,
}


class Tracer:
    """Installs span-recording wrappers; `spans` holds one pass of spans."""

    def __init__(self):
        self.spans: list = []
        self.task = -1
        self._stack: list[int] = []
        self._undo: list = []

    def _wrap(self, fid: int, fn, work):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            result = None
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = perf_counter()
                stack.pop()
                extra = work(args, result) if work is not None and result is not None else None
                spans[idx] = (fid, t0, t1, parent, self.task, extra)

        traced.__wrapped__ = fn
        return traced

    def install(self):
        modules = {
            name: mod for name, mod in sys.modules.items()
            if (name == "treeauto" or name.startswith("treeauto.")) and mod is not None
        }
        fid = 0
        for module, attrs in TRACED.items():
            home = modules["treeauto." + module]
            for attr in attrs:
                name = _metric_name(module, attr)
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(home, cls_name)
                    original = cls.__dict__[meth]
                    self._undo.append((cls, meth, original))
                    setattr(cls, meth, self._wrap(fid, original, WORK.get(name)))
                else:
                    original = getattr(home, attr)
                    wrapper = self._wrap(fid, original, WORK.get(name))
                    for mod in modules.values():
                        for key, value in list(vars(mod).items()):
                            if value is original:
                                self._undo.append((mod, key, original))
                                setattr(mod, key, wrapper)
                fid += 1

    def uninstall(self):
        for obj, key, original in reversed(self._undo):
            setattr(obj, key, original)
        self._undo.clear()

    def take(self) -> list:
        """Hand over the spans recorded so far and start an empty list."""
        if self._stack:
            raise RuntimeError("spans still open")
        out = list(self.spans)
        self.spans.clear()
        return out


def layer_numbers(spans: list) -> dict[str, float]:
    """Per-layer counts and self times of one pass of spans.

    Self time is a span's duration minus the durations of its direct child
    spans; calls run on one thread, so children nest inside their parent.
    """
    child = [0.0] * len(spans)
    for _fid, t0, t1, parent, _task, _extra in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    calls = [0] * len(NAMES)
    self_s = [0.0] * len(NAMES)
    work: dict[str, list] = {}
    fid_of = {name: i for i, name in enumerate(NAMES)}
    compose = fid_of["core.compose"]
    ball = fid_of["nucleus.ball"]
    relations = fid_of["freeness.find_relations"]
    compose_in_ball = compose_in_relations = 0
    for i, (fid, t0, t1, parent, _task, extra) in enumerate(spans):
        calls[fid] += 1
        self_s[fid] += (t1 - t0) - child[i]
        if extra is not None:
            acc = work.setdefault(NAMES[fid], [0] * len(extra))
            for j, x in enumerate(extra):
                acc[j] += x
        if fid == compose and parent >= 0:
            pfid = spans[parent][0]
            compose_in_ball += pfid == ball
            compose_in_relations += pfid == relations

    out: dict[str, float] = {}
    for i, name in enumerate(NAMES):
        out[name + ".calls"] = calls[i]
        out[name + ".self_s"] = self_s[i]
    n = calls[compose]
    states, with_identity = work.get("core.compose", [0, 0])
    out["core.compose.states_out"] = states
    out["core.compose.identity_operand_share"] = with_identity / n if n else 0.0
    out["core.compose.us_per_state_out"] = 1e6 * self_s[compose] / states if states else 0.0
    out["core.apply.letters"] = work.get("core.apply", [0])[0]
    elements = work.get("nucleus.ball", [0])[0]
    out["nucleus.ball.elements"] = elements
    out["nucleus.ball.elements_per_compose"] = elements / compose_in_ball if compose_in_ball else 0.0
    out["freeness.find_relations.compose_calls"] = compose_in_relations
    out["schreier.orbit.vertices"] = work.get("schreier.orbit", [0])[0]
    return out


# the per-layer numbers that are exact counts, as opposed to times and ratios
COUNTS = tuple(n + ".calls" for n in NAMES) + (
    "core.compose.states_out",
    "core.apply.letters",
    "nucleus.ball.elements",
    "freeness.find_relations.compose_calls",
    "schreier.orbit.vertices",
)

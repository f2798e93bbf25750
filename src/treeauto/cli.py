"""Command line front end.

Every command prints JSON (sorted keys, two-space indent) except
"schreier --dot" and "catalog dump", which print text formats meant to be
fed elsewhere.  Exit codes: 0 on success, 1 on bad usage or bad input,
2 when a budget ran out (the partial result, if any, is still printed, in
the JSON form of the result it stands for).

One encoder, _json, writes every report: its fields by name, fractions as
{"num", "den"}, words as text.  Vertices are written as digit strings
("011"), boundary rays as "preperiod:period" ("01:10", ":1"); alphabets
therefore need k <= 10, which covers every built-in family.

Each command imports what it runs: the module level holds only catalog,
core, machine_io and nucleus, and a handler imports activity, schreier or
freeness when it is called, so a light command never loads the heavy ones.
"""

from __future__ import annotations

import argparse
import json
import sys

from .catalog import builtin, entry
from .core import (
    Automorphism,
    BoundaryPoint,
    BudgetExceeded,
    Word,
    apply,
    apply_boundary,
    evaluate_word,
)
from .machine_io import MachineParseError, dump_machine, parse_machine_file
from .nucleus import _germ_group_in, _stabilizer, ball, germ_group, is_self_similar, nucleus


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print("%s: error: %s" % (self.prog, message), file=sys.stderr)
        raise SystemExit(1)


def _emit(data) -> int:
    print(json.dumps(_json(data), sort_keys=True, indent=2))
    return 0


def _vstr(v) -> str:
    return "".join(str(x) for x in v)


# report fields that hold a vertex or a tuple of vertices
_VERTEX_FIELDS = frozenset({"candidate", "least_vertex", "vertices"})


def _json(x, vertices=False):
    """The JSON form of a report, or of anything a report holds.

    A report is written as its fields by name, a Fraction as {"num", "den"},
    a word or a ray as its text and a tuple as a list; a vertex, in a vertex
    field or wherever vertices is set, is a digit string.
    """
    if x is None or isinstance(x, (int, str)):
        return x
    if hasattr(x, "denominator"):  # a Fraction; ints have one too, so they go first
        return {"num": x.numerator, "den": x.denominator}
    if isinstance(x, (Word, BoundaryPoint)):
        return str(x)
    if isinstance(x, (tuple, list)):
        if all(isinstance(i, int) for i in x):  # letters, table rows, edges
            return _vstr(x) if vertices else list(x)
        return [_json(v, vertices) for v in x]
    fields = x if isinstance(x, dict) else vars(x)  # a report: its fields by name
    return {name: _json(v, name in _VERTEX_FIELDS) for name, v in fields.items()}


def _load_gens(args) -> dict[str, Automorphism]:
    if args.family:
        gens = dict(entry(args.family).generators)
    else:
        gens = parse_machine_file(args.machine)
    if args.gens is None:
        return gens
    picked = {}
    for name in args.gens.split(","):
        name = name.strip()
        if name not in gens:
            raise ValueError(
                "no generator %r (have: %s)" % (name, ", ".join(sorted(gens)))
            )
        picked[name] = gens[name]
    return picked


def _add_source(p: argparse.ArgumentParser):
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("-f", "--family", help="built-in family name (see: catalog list)")
    src.add_argument("-m", "--machine", help="machine file to load generators from")
    p.add_argument("--gens", help="comma-separated generator names to keep, in order")


def _partial_json(partial):
    """What a budget left, in the JSON form of what it stands for."""
    if isinstance(partial, dict):  # the ball's {element: word} map
        return sorted(str(w) for w in partial.values())
    return _json(partial, vertices=True)  # a report, orbit vertices or None


# -- commands -------------------------------------------------------------------


def _cmd_eval(args) -> int:
    g = evaluate_word(_load_gens(args), args.word)
    if ":" in args.target:
        return _emit(apply_boundary(g, BoundaryPoint.parse(args.target)))
    return _emit(_vstr(apply(g, args.target)))


def _cmd_classify(args) -> int:
    from .activity import classify_activity, directions

    gens = _load_gens(args)
    g = evaluate_word(gens, args.word)
    cls = classify_activity(g)
    out = cls.to_json()
    out["witness"] = cls.witness
    if cls.kind in ("finitary", "bounded"):
        d = directions(g)
        out["directions"] = d.points
        out["finitary_depth"] = d.finitary_depth
    return _emit(out)


def _cmd_theta(args) -> int:
    from .activity import theta_relative, theta_sequence

    gens = _load_gens(args)
    g = evaluate_word(gens, args.word)
    if args.point:
        if args.levels < 0:
            raise ValueError("level must be nonnegative")
        point = BoundaryPoint.parse(args.point)
        counts = [
            theta_relative(gens, g, point, n, budget=args.budget)
            for n in range(args.levels + 1)
        ]
        return _emit({"point": point, "theta_relative": counts})
    return _emit({"theta": theta_sequence(g, args.levels)})


def _cmd_measure(args) -> int:
    from .activity import empirical_measure_sequence, singular_measure

    gens = _load_gens(args)
    g = evaluate_word(gens, args.word)
    return _emit(
        {
            "singular_measure": singular_measure(g),
            "empirical": empirical_measure_sequence(g, args.levels),
        }
    )


def _cmd_nucleus(args) -> int:
    gens = _load_gens(args)
    res = nucleus(gens, max_size=args.max_size, max_depth=args.max_depth)
    similar = is_self_similar(gens, max_len=4, budget=args.budget)
    out = {
        "status": res.status,
        "size": res.size,
        "generations": res.generations,
        "self_similar": similar.verdict,
        "elements": [dump_machine({"n%d" % i: g}) for i, g in enumerate(res.elements)],
    }
    if res.reason:
        out["reason"] = res.reason
    return _emit(out)


def _cmd_germs(args) -> int:
    gens = _load_gens(args)
    return _emit(
        germ_group(gens, BoundaryPoint.parse(args.point), max_len=args.max_len, budget=args.budget)
    )


def _cmd_schreier(args) -> int:
    from .schreier import schreier_graph

    gens = _load_gens(args)
    gr = schreier_graph(gens, args.vertex, budget=args.budget)
    if args.dot:
        lines = ["digraph schreier {", "  rankdir=LR;"]
        for i, v in enumerate(gr.vertices):
            lines.append('  v%d [label="%s"];' % (i, _vstr(v) or "ε"))
        for (i, j, t, trivial) in gr.edges:
            style = "" if trivial else ", style=bold"
            lines.append('  v%d -> v%d [label="%s"%s];' % (i, t, gr.labels[j], style))
        lines.append("}")
        print("\n".join(lines))
        return 0
    return _emit(gr)


def _cmd_folner(args) -> int:
    from .schreier import folner_candidate, isoperimetric_profile

    gens = _load_gens(args)
    if args.profile is not None:
        return _emit({"profile": isoperimetric_profile(gens, args.profile, budget=args.budget)})
    return _emit(folner_candidate(gens, args.level, budget=args.budget))


def _cmd_relations(args) -> int:
    from .freeness import find_relations

    gens = _load_gens(args)
    return _emit(find_relations(gens, args.max_len, budget=args.budget))


def _cmd_stabilizer(args) -> int:
    from .freeness import stabilizer_search

    gens = _load_gens(args)
    return _emit(
        stabilizer_search(gens, BoundaryPoint.parse(args.point), args.max_len, budget=args.budget)
    )


def _cmd_trichotomy(args) -> int:
    from .freeness import _faithfulness_probe_in, find_relations, free_subgroup_certificate
    from .schreier import isoperimetric_profile

    gens = _load_gens(args)
    relations = find_relations(gens, args.max_len, budget=args.budget)
    profile = isoperimetric_profile(gens, args.levels, budget=args.budget)
    points = []
    if args.point:  # the ball does not depend on the point
        elements, _ = ball(gens, args.max_len, budget=args.budget)
    for text in args.point or []:
        p = BoundaryPoint.parse(text)
        stab = _stabilizer(elements, p)
        germs = _germ_group_in(stab, p)
        probe = _faithfulness_probe_in(stab, p, args.max_len)
        points.append(
            {
                "point": p,
                "germ_order": germs.order,
                "germ_complete": germs.complete,
                "free_like_stabilizer": probe.has_free_like,
            }
        )
    names = sorted(gens)
    certificate = None
    if len(names) >= 2:
        certificate = free_subgroup_certificate(
            gens, names[0], names[1], max_len=args.max_len, budget=args.budget
        )
    return _emit(
        {
            "relations": relations,
            "folner_ratios": [r.ratio for r in profile],
            "points": points,
            "free_certificate": certificate,
        }
    )


def _cmd_catalog(args) -> int:
    if args.what == "list":
        return _emit(
            {
                "families": [
                    {"name": name, "alphabet": ent.alphabet, "summary": ent.summary}
                    for name, ent in sorted(builtin().items())
                ]
            }
        )
    ent = entry(args.name)
    sys.stdout.write(dump_machine(ent.generators))
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(prog="treeauto", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def cmd(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        return p

    p = cmd("eval", _cmd_eval, "apply a word to a vertex or boundary ray")
    _add_source(p)
    p.add_argument("word")
    p.add_argument("target", help='vertex "011" or ray "pre:per"')

    p = cmd("classify", _cmd_classify, "activity class of a word")
    _add_source(p)
    p.add_argument("word")

    p = cmd("theta", _cmd_theta, "activity counts per level")
    _add_source(p)
    p.add_argument("word")
    p.add_argument("--levels", type=int, default=8)
    p.add_argument("--point", help="count only over the orbit of this ray's prefixes")
    p.add_argument("--budget", type=int, default=10 ** 6)

    p = cmd("measure", _cmd_measure, "singular measure, exact and empirical")
    _add_source(p)
    p.add_argument("word")
    p.add_argument("--levels", type=int, default=12)

    p = cmd("nucleus", _cmd_nucleus, "nucleus closure and self-similarity check")
    _add_source(p)
    p.add_argument("--max-size", type=int, default=64)
    p.add_argument("--max-depth", type=int, default=16)
    p.add_argument("--budget", type=int, default=10 ** 5)

    p = cmd("germs", _cmd_germs, "germ group at an eventually periodic ray")
    _add_source(p)
    p.add_argument("--point", required=True)
    p.add_argument("--max-len", type=int, default=6)
    p.add_argument("--budget", type=int, default=10 ** 5)

    p = cmd("schreier", _cmd_schreier, "orbit graph of a vertex")
    _add_source(p)
    p.add_argument("vertex")
    p.add_argument("--dot", action="store_true", help="emit Graphviz instead of JSON")
    p.add_argument("--budget", type=int, default=10 ** 6)

    p = cmd("folner", _cmd_folner, "reduced-graph component with least boundary ratio")
    _add_source(p)
    p.add_argument("--level", type=int, default=4)
    p.add_argument("--profile", type=int, help="report levels 1..N instead of one level")
    p.add_argument("--budget", type=int, default=10 ** 6)

    p = cmd("relations", _cmd_relations, "relators up to a length")
    _add_source(p)
    p.add_argument("--max-len", type=int, default=6)
    p.add_argument("--budget", type=int, default=2 * 10 ** 5)

    p = cmd("stabilizer", _cmd_stabilizer, "short words fixing a ray, with germ flags")
    _add_source(p)
    p.add_argument("--point", required=True)
    p.add_argument("--max-len", type=int, default=4)
    p.add_argument("--budget", type=int, default=10 ** 5)

    p = cmd("trichotomy", _cmd_trichotomy, "relations, Folner ratios, and germ evidence")
    _add_source(p)
    p.add_argument("--point", action="append", help="repeatable: rays to inspect")
    p.add_argument("--max-len", type=int, default=4)
    p.add_argument("--levels", type=int, default=5)
    p.add_argument("--budget", type=int, default=10 ** 5)

    p = cmd("catalog", _cmd_catalog, "list built-in families or dump one as a machine file")
    p.add_argument("what", choices=("list", "dump"))
    p.add_argument("name", nargs="?")

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "catalog" and args.what == "dump" and not args.name:
        parser.error("catalog dump needs a family name")
    try:
        return args.func(args)
    except BudgetExceeded as exc:
        _emit(
            {
                "error": "budget exceeded",
                "detail": str(exc),
                "partial": _partial_json(exc.partial),
                "budget": exc.budget,
                "spent": exc.spent,
                "limit": exc.limit,
            }
        )
        return 2
    except MachineParseError as exc:
        print("machine file error: %s" % exc, file=sys.stderr)
        return 1
    except (ValueError, LookupError, OSError) as exc:
        message = exc.args[0] if exc.args else exc
        print("error: %s" % message, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""Tree automorphisms as finite-state machines, and what groups of them do.

The core value type is Automorphism, a minimized canonical-form machine;
equal behavior means equal value.  Everything else builds on that: word
evaluation, activity growth, singular measures, nucleus closures, germs
at rays, level graphs with Folner candidates, and relator searches.

Importing the package loads nucleus and the core and words modules it
needs; every other module loads the first time one of its names is read
(PEP 562), so a caller pays only for what it uses.

`treeauto.nucleus` is the function nucleus, bound at import, and never
the submodule of that name, which a lazy export would turn into once
anything imported it.  So setting an attribute on treeauto.nucleus
patches nothing the module reads; the submodule is
`importlib.import_module("treeauto.nucleus")`.
"""

from importlib import import_module

from .nucleus import nucleus  # the function (module docstring)

# the public names, by defining module
_EXPORTS = {
    "activity": (
        "ActivityClass", "BoundedClosureReport", "DirectionSet", "classify_activity", "directions",
        "empirical_measure_sequence", "is_bounded_closed_under_product", "singular_measure",
        "theta", "theta_relative", "theta_sequence",
    ),
    "catalog": (
        "CatalogEntry", "builtin", "decode_integer", "encode_integer", "entry",
        "integer_tree_crosscheck", "tullio_integer_action",
    ),
    "core": (
        "Automorphism", "BoundaryPoint", "BudgetExceeded", "apply", "apply_boundary", "compose",
        "evaluate_word", "identity", "invert", "is_identity", "minimize", "section", "vertex",
    ),
    "freeness": (
        "FaithfulnessProbe", "RelationReport", "StabilizerSample", "TrichotomyEvidence",
        "find_relations", "free_subgroup_certificate", "germ_faithfulness_probe",
        "kernel_witness_commutator", "kernel_witness_power", "stabilizer_search",
    ),
    "machine_io": ("MachineParseError", "dump_machine", "parse_machine", "parse_machine_file"),
    "nucleus": (
        "GermGroupReport", "NucleusResult", "SelfSimilarityReport", "ball", "germ_group",
        "germ_is_trivial", "is_self_similar", "limit_states", "nucleus", "stabilizes",
    ),
    "schreier": (
        "FolnerReport", "SchreierGraph", "folner_candidate", "gamma_prime_components",
        "isoperimetric_profile", "orbit", "schreier_graph", "symmetrize",
    ),
    "words": ("Word", "commutator"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name in _EXPORTS:  # a submodule, read as an attribute before its first import
        return import_module("." + name, __name__)
    if name not in _HOME:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    value = getattr(import_module("." + _HOME[name], __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return list(__all__)

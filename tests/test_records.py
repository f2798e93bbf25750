"""The report records: construction, equality, hashing, immutability, repr,
copies, and the field order that perfbench's canon reads."""

import copy
import dataclasses
import pickle
from fractions import Fraction

import pytest

from treeauto.activity import ActivityClass, BoundedClosureReport, DirectionSet, classify_activity, directions
from treeauto.catalog import CatalogEntry, entry
from treeauto.core import BoundaryPoint, Record, compose
from treeauto.freeness import (
    FaithfulnessProbe,
    RelationReport,
    StabilizerSample,
    TrichotomyEvidence,
    find_relations,
    stabilizer_search,
)
from treeauto.nucleus import GermGroupReport, NucleusResult, SelfSimilarityReport, germ_group, nucleus
from treeauto.schreier import ComponentSummary, FolnerReport, SchreierGraph, folner_candidate, schreier_graph

# every report class with its fields in declaration order, as the
# dataclasses these records replaced listed them
FIELDS = {
    ActivityClass: ("kind", "degree", "depth", "witness"),
    DirectionSet: ("points", "finitary_depth"),
    BoundedClosureReport: (
        "input_kinds", "depth_bound", "product_kind", "product_depth", "inverse_kind", "inverse_depth", "ok",
    ),
    RelationReport: ("max_len", "relators", "complete"),
    StabilizerSample: ("point", "max_len", "words", "germ_trivial", "complete"),
    FaithfulnessProbe: ("point", "pairs_tested", "has_free_like", "witness"),
    TrichotomyEvidence: ("status", "pair", "checked_len", "relation"),
    SchreierGraph: ("level", "labels", "vertices", "edges"),
    ComponentSummary: ("size", "boundary", "ratio", "least_vertex"),
    FolnerReport: ("level", "candidate", "size", "boundary", "ratio", "bound", "components"),
    CatalogEntry: ("name", "alphabet", "generators", "summary", "expected"),
    NucleusResult: ("status", "elements", "generations", "reason"),
    SelfSimilarityReport: ("verdict", "witnesses"),
    GermGroupReport: ("point", "order", "representatives", "complete", "table"),
}


class Pair(Record):
    a: int
    b: str = "x"
    c: dict = {}


class Twin(Record):  # Pair's fields and defaults, another class
    a: int
    b: str = "x"
    c: dict = {}


def reports():
    grig = entry("grigorchuk").generators
    ray = BoundaryPoint.parse(":1")
    return [
        classify_activity(compose(grig["b"], grig["a"])),
        directions(grig["b"]),
        find_relations(grig, 2),
        stabilizer_search(grig, ray, 2),
        TrichotomyEvidence("free_up_to", ("a", "b"), 3),
        schreier_graph(grig, "01"),
        folner_candidate(grig, 3),
        nucleus(entry("basilica").generators),
        germ_group(grig, ray, 2),
    ]


def test_every_report_class_is_a_record_in_declaration_order():
    for cls, names in FIELDS.items():
        assert issubclass(cls, Record), cls
        assert cls._fields == names, cls


def test_the_benchmarks_canon_sees_every_report_by_its_fields(workloads):
    # perfbench's canon takes a report for a dataclass and reads its field
    # names, in order, from __dataclass_fields__
    for cls, names in FIELDS.items():
        assert dataclasses.is_dataclass(cls), cls
        assert tuple(cls.__dataclass_fields__) == names, cls
    for report in reports():
        assert dataclasses.is_dataclass(report)
        form = workloads.canon(report)
        assert tuple(form) == FIELDS[type(report)]
        assert form == {name: workloads.canon(getattr(report, name)) for name in FIELDS[type(report)]}


def test_construction_by_position_and_keyword():
    assert vars(Pair(1)) == {"a": 1, "b": "x", "c": {}}
    assert vars(Pair(1, "y", {2: 3})) == {"a": 1, "b": "y", "c": {2: 3}}
    assert Pair(1, c={2: 3}) == Pair(a=1, b="x", c={2: 3}) == Pair(c={2: 3}, a=1)
    assert list(vars(Pair(c={}, b="y", a=1))) == ["a", "b", "c"]
    assert ComponentSummary(4, 2, Fraction(1, 2), (0, 1)) == ComponentSummary(
        least_vertex=(0, 1), ratio=Fraction(1, 2), boundary=2, size=4
    )
    for args, kwargs in (
        ((), {}),  # a field with no default missing
        ((), {"b": "y"}),
        ((1,), {"d": 2}),  # an unknown field
        ((1, "y", {}, 4), {}),  # more positions than fields
        ((1,), {"a": 2}),  # a field given twice
    ):
        with pytest.raises(TypeError):
            Pair(*args, **kwargs)
    with pytest.raises(TypeError):
        ActivityClass(degree=1)


def test_equal_only_within_a_class():
    assert Pair(1) == Pair(1) and Pair(1) != Pair(2) and Pair(1) != Pair(1, "y")
    assert Pair(1) != Twin(1) and Twin(1) != Pair(1)
    assert Pair.__eq__(Pair(1), Twin(1)) is NotImplemented
    assert Pair(1) != (1, "x", {}) and Pair(1) != {"a": 1, "b": "x", "c": {}}
    evidence = TrichotomyEvidence("free_up_to", ("a", "b"), 3)

    class Lookalike(Record):
        status: str
        pair: tuple
        checked_len: int
        relation: object = None

    assert evidence == TrichotomyEvidence("free_up_to", ("a", "b"), 3)
    assert evidence != Lookalike("free_up_to", ("a", "b"), 3)
    assert vars(evidence) == vars(Lookalike("free_up_to", ("a", "b"), 3))
    for report in reports():
        assert report == copy.copy(report) and not report != copy.copy(report)


def test_hash_is_the_hash_of_the_fields():
    summary = ComponentSummary(4, 2, Fraction(1, 2), (0, 1))
    assert hash(summary) == hash(ComponentSummary(4, 2, Fraction(1, 2), (0, 1)))
    assert hash(summary) == hash((4, 2, Fraction(1, 2), (0, 1)))  # as the dataclass hashed
    assert len({summary, ComponentSummary(4, 2, Fraction(1, 2), (0, 1)), ComponentSummary(4, 1, 0, ())}) == 2
    assert hash(find_relations(entry("grigorchuk").generators, 2)) == hash(
        find_relations(entry("grigorchuk").generators, 2)
    )
    grig = entry("grigorchuk").generators
    for holding_a_dict in (Pair(1), classify_activity(grig["b"]), SelfSimilarityReport("no", {}), entry("grigorchuk")):
        with pytest.raises(TypeError):
            hash(holding_a_dict)


def test_records_are_immutable():
    for record in (Pair(1), ComponentSummary(4, 2, Fraction(1, 2), (0, 1)), *reports()):
        before = dict(vars(record))
        name = type(record)._fields[0]
        for attempt in (
            lambda: setattr(record, name, 7),
            lambda: setattr(record, "other", 7),
            lambda: delattr(record, name),
            lambda: delattr(record, "other"),
        ):
            with pytest.raises(AttributeError):
                attempt()
        assert vars(record) == before


def test_repr_is_the_dataclass_repr():
    grig = entry("grigorchuk").generators
    # the README's line
    assert repr(classify_activity(compose(grig["b"], grig["a"]))) == (
        "ActivityClass(kind='bounded', degree=None, depth=None, "
        "witness={'cycles': [[2, 4, 5]], 'chain': [[2, 4, 5]]})"
    )
    assert repr(ComponentSummary(4, 2, Fraction(1, 2), (0, 1))) == (
        "ComponentSummary(size=4, boundary=2, ratio=Fraction(1, 2), least_vertex=(0, 1))"
    )
    assert repr(find_relations(grig, 2)) == (
        "RelationReport(max_len=2, relators=(Word('a a'), Word('b b'), Word('c c'), Word('d d')), complete=True)"
    )
    assert repr(TrichotomyEvidence("free_up_to", ("a", "b"), 3)) == (
        "TrichotomyEvidence(status='free_up_to', pair=('a', 'b'), checked_len=3, relation=None)"
    )
    assert repr(directions(grig["b"])) == "DirectionSet(points=(BoundaryPoint(':1'),), finitary_depth=1)"
    assert repr(folner_candidate(grig, 3)) == (
        "FolnerReport(level=3, candidate=((0, 0, 0), (0, 0, 1), (0, 1, 0), (0, 1, 1), (1, 0, 0), (1, 0, 1), "
        "(1, 1, 0), (1, 1, 1)), size=8, boundary=0, ratio=Fraction(0, 1), bound=Fraction(5, 8), "
        "components=(ComponentSummary(size=8, boundary=0, ratio=Fraction(0, 1), least_vertex=(0, 0, 0)),))"
    )
    assert repr(CatalogEntry("x", 2, {}, "s")) == (
        "CatalogEntry(name='x', alphabet=2, generators={}, summary='s', expected={})"
    )
    assert repr(SelfSimilarityReport("no", {})) == "SelfSimilarityReport(verdict='no', witnesses={})"
    assert repr(germ_group(grig, BoundaryPoint.parse(":1"), 2)) == (
        "GermGroupReport(point=BoundaryPoint(':1'), order=4, representatives=('e', 'b', 'c', 'd'), "
        "complete=True, table=((0, 1, 2, 3), (1, 0, 3, 2), (2, 3, 0, 1), (3, 2, 1, 0)))"
    )
    assert repr(Pair(1)) == "Pair(a=1, b='x', c={})"


def test_a_dict_default_is_fresh_for_each_record():
    first, second = CatalogEntry("x", 2, {}, "s"), CatalogEntry("y", 2, {}, "s")
    assert first.expected == {} and second.expected == {}
    assert first.expected is not second.expected
    first.expected["seen"] = True
    assert second.expected == {} and CatalogEntry("z", 2, {}, "s").expected == {}
    assert Pair(1).c is not Pair(1).c
    given = {1: 2}
    assert Pair(1, c=given).c is given  # a given dict is kept, not copied


def test_pickle_and_deepcopy_round_trip():
    for record in (Pair(1, "y", {2: 3}), entry("grigorchuk"), *reports()):
        for twin in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record), copy.copy(record)):
            assert type(twin) is type(record) and twin == record
            assert list(vars(twin)) == list(type(record)._fields)
            assert repr(twin) == repr(record)
            with pytest.raises(AttributeError):
                twin.extra = 1

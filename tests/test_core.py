import random

import pytest

from treeauto import core
from treeauto.catalog import builtin
from treeauto.core import (
    Automorphism,
    BoundaryPoint,
    apply,
    apply_boundary,
    compose,
    evaluate_word,
    identity,
    invert,
    is_identity,
    minimize,
    section,
    vertex,
)
from treeauto.machine_io import MachineParseError, dump_machine, parse_machine
from treeauto.words import Word

ADDING = builtin()["adding_machine"].generators
TULLIO = builtin()["tullio"].generators
A = TULLIO["a"]
B = TULLIO["b"]


def test_vertex_coercion():
    assert vertex("011") == (0, 1, 1)
    assert vertex([1, 0]) == (1, 0)
    assert vertex(()) == ()
    with pytest.raises(ValueError, match="negative letter -1"):
        vertex((0, -1))


@pytest.mark.parametrize(
    "text, char",
    [("0x1", "x"), ("\u0663", "\u0663"), ("1 0", " "), ("+1", "+"), ("\u00b2", "\u00b2")],
    ids=["hex", "arabic-indic", "space", "sign", "superscript"],
)
def test_vertex_strings_take_ascii_digits_only(text, char):
    # int() would read the Arabic-Indic three as letter 3 and the others with
    # a message that names neither the vertex nor its character
    with pytest.raises(ValueError) as info:
        vertex(text)
    assert str(info.value) == "non-digit character %r in vertex %r" % (char, text)


def test_vertex_items_must_be_integers():
    # int() would truncate a float letter and read a non-ASCII digit string as
    # its digit, so each of these once acted as another vertex with no error
    cases = [
        (lambda: vertex([1.7, 0]), 1.7),
        (lambda: vertex(["٣"]), "٣"),
        (lambda: ADDING["a"].apply([1.9, 0.2]), 1.9),
        (lambda: BoundaryPoint([0.5], [1.2]), 0.5),
    ]
    for call, item in cases:
        with pytest.raises(ValueError, match="non-integer letter %r in vertex" % item):
            call()
    assert vertex((True, 0)) == (1, 0) and vertex(iter([1, 0])) == (1, 0)


def test_bad_letters_are_rejected():
    a = ADDING["a"]
    with pytest.raises(ValueError):
        apply(a, (-1,))
    with pytest.raises(ValueError):
        BoundaryPoint((), (-1,))
    message = "letter 5 is out of range for an alphabet of size 2"
    with pytest.raises(ValueError, match=message):
        apply(a, (0, 5))
    with pytest.raises(ValueError, match=message):
        section(a, (1, 5))
    with pytest.raises(ValueError, match=message):
        a.state_at((5,))
    with pytest.raises(ValueError, match=message):
        apply_boundary(a, BoundaryPoint((0,), (5,)))


def test_state_at_is_zero_exactly_at_trivial_sections():
    # minimized machines have no nonzero state acting trivially
    for g in (A, B, invert(A) * B):
        for v in ("", "0", "1", "0110", "111"):
            assert (g.state_at(v) == 0) == section(g, v).is_identity()


# -- boundary points --------------------------------------------------------


def test_boundary_point_canonical_period():
    assert BoundaryPoint("", "1010") == BoundaryPoint("", "10")
    assert BoundaryPoint("", "111").period == (1,)


def test_boundary_point_absorbs_preperiod_into_period():
    # 0,1,1,0,1,0,... written two ways
    assert BoundaryPoint("011", "01") == BoundaryPoint("01", "10")
    # full absorption down to a purely periodic ray
    assert BoundaryPoint("1", "1") == BoundaryPoint("", "1")
    assert BoundaryPoint("01", "1").preperiod == (0,)


def test_boundary_point_parse_str():
    w = BoundaryPoint.parse("1:10")
    assert w.preperiod == (1,) and w.period == (1, 0)
    assert str(BoundaryPoint.parse(":0")) == ":0"
    assert BoundaryPoint.parse("011:01") == BoundaryPoint.parse("01:10")
    with pytest.raises(ValueError):
        BoundaryPoint.parse("010")
    with pytest.raises(ValueError):
        BoundaryPoint("", "")


def test_boundary_point_prefix_tail():
    w = BoundaryPoint("1", "10")
    assert w.prefix(5) == (1, 1, 0, 1, 0)
    assert w.tail(1) == BoundaryPoint("", "10")
    assert w.tail(2) == BoundaryPoint("", "01")
    assert w.tail(0) == w
    for n in (-1, -2):
        with pytest.raises(ValueError, match="nonnegative"):
            w.tail(n)


# -- the adding machine acting on vertices ----------------------------------


def test_adding_machine_action():
    a = ADDING["a"]
    assert apply(a, "011") == (1, 1, 1)
    assert apply(a, "111") == (0, 0, 0)
    assert a("0") == (1,)
    # LSB-first increment on every 4-bit value
    for n in range(15):
        v = tuple((n >> i) & 1 for i in range(4))
        img = apply(a, v)
        assert sum(bit << i for i, bit in enumerate(img)) == n + 1


def test_sections_of_the_catalog_generators():
    assert section(B, "0") == B
    assert section(B, "1") == A
    assert section(A, "0").is_identity()
    assert section(A, "1") == A
    assert section(A, "11") == A


def test_compose_of_a_with_itself():
    a2 = compose(A, A)
    assert section(a2, "0") == A
    assert section(a2, "1") == A
    assert apply(a2, "00") == (0, 1)  # 0 + 2 = 2
    assert not a2.is_identity()


def test_invert():
    ainv = invert(A)
    assert apply(ainv, "000") == (1, 1, 1)
    assert compose(A, ainv).is_identity()
    assert compose(ainv, A).is_identity()
    assert invert(identity(2)).is_identity()
    assert invert(ainv) == A


def test_power_operator():
    assert A ** 3 == compose(A, compose(A, A))
    assert A ** 0 == identity(2)
    assert A ** -1 == invert(A)
    assert (A ** 8)(vertex("0000")) == (0, 0, 0, 1)


def test_power_squares_only_while_bits_remain(monkeypatch):
    a = ADDING["a"]
    a8 = evaluate_word(ADDING, "a a a a a a a a")
    product = core._product
    calls = []

    def counting_product(*args):
        calls.append(None)
        return product(*args)

    monkeypatch.setattr(core, "_product", counting_product)
    assert a ** 1 == a
    assert calls == []  # a ** 1 used to compose a a as well
    assert a ** 8 == a8
    assert len(calls) == 3  # a^2, a^4, a^8 and no a^16


def test_evaluate_word():
    ba = evaluate_word(TULLIO, "b a")
    assert section(ba, "1") == ba  # (ba)|_1 = b|_{a(1)} a|_1 = b a
    aaa = evaluate_word(ADDING, "a a a")
    assert apply(aaa, "110") == (0, 1, 1)  # 3 + 3 = 6, LSB first
    assert evaluate_word(TULLIO, "a a^-1").is_identity()
    with pytest.raises(ValueError):
        evaluate_word(TULLIO, "z")


def test_apply_boundary():
    a = ADDING["a"]
    assert apply_boundary(a, BoundaryPoint.parse(":1")) == BoundaryPoint.parse(":0")
    assert apply_boundary(a, BoundaryPoint.parse(":10")) == BoundaryPoint.parse("01:10")
    assert apply_boundary(B, BoundaryPoint.parse(":0")) == BoundaryPoint.parse(":0")
    assert apply_boundary(B, BoundaryPoint.parse(":1")) == BoundaryPoint.parse("1:0")
    assert apply_boundary(identity(2), BoundaryPoint.parse("1:10")) == BoundaryPoint.parse("1:10")


def test_apply_boundary_matches_prefixes():
    rng = random.Random(5)
    gens = list(TULLIO.values()) + [invert(g) for g in TULLIO.values()]
    for _ in range(50):
        g = rng.choice(gens)
        w = BoundaryPoint(
            [rng.randrange(2) for _ in range(rng.randrange(3))],
            [rng.randrange(2) for _ in range(rng.randint(1, 3))],
        )
        img = apply_boundary(g, w)
        assert img.prefix(40) == apply(g, w.prefix(40))


# -- canonical form ----------------------------------------------------------


def test_trivial_machines_collapse_to_the_identity_state():
    g = Automorphism.from_states(2, {"p": ((0, 1), ("e", "p"))}, "p")
    assert g.is_identity()
    assert g == identity(2)
    assert g.state_count == 1


def test_equal_behavior_gives_equal_values():
    # two copies of the odometer through differently shaped tables
    g = Automorphism.from_states(
        2, {"x": ((1, 0), ("e", "y")), "y": ((1, 0), ("e", "x"))}, "x"
    )
    assert g == A
    assert hash(g) == hash(A)


def test_mirror_involution():
    g = Automorphism.from_states(2, {"g": ((1, 0), ("g", "g"))}, "g")
    assert compose(g, g).is_identity()
    assert invert(g) == g
    assert apply(g, "0101") == (1, 0, 1, 0)


def test_minimize_is_idempotent_on_canonical_values():
    for g in (A, B, compose(A, B), invert(B)):
        assert minimize(g) == g


def test_is_identity():
    assert is_identity(identity(3))
    assert not is_identity(A)
    assert is_identity(compose(A, invert(A)))


def test_alphabet_mismatch_rejected():
    with pytest.raises(ValueError):
        compose(A, identity(3))


# -- the section calculus, randomized ----------------------------------------


def random_element(rng, gens, max_len):
    names = sorted(gens)
    letters = [(rng.choice(names), rng.choice((1, -1))) for _ in range(rng.randint(0, max_len))]
    return evaluate_word(gens, Word(letters))


def test_restriction_identities():
    rng = random.Random(99)
    entries = [builtin()["tullio"], builtin()["grigorchuk"], builtin()["gupta_sidki_3"]]
    for _ in range(120):
        entry = rng.choice(entries)
        gens = entry.generators
        g = random_element(rng, gens, 4)
        h = random_element(rng, gens, 4)
        v = tuple(rng.randrange(entry.alphabet) for _ in range(rng.randint(0, 6)))
        gh = compose(g, h)
        assert section(gh, v) == compose(section(g, apply(h, v)), section(h, v))
        assert invert(section(g, v)) == section(invert(g), apply(g, v))
        cut = rng.randint(0, len(v))
        assert section(g, v) == section(section(g, v[:cut]), v[cut:])
        assert apply(gh, v) == apply(g, apply(h, v))


# -- machine files ------------------------------------------------------------


ADDING_FILE = """\
# the odometer
alphabet 2
state a
perm 1 0
on 0 -> e
on 1 -> a
initial a
"""


def test_from_states_refusals():
    flip = {"a": ((1, 0), ("e", "a"))}
    cases = [
        ((1, flip, "a"), "alphabet needs at least two letters"),
        ((2, {"e": ((0, 1), ("e", "e"))}, "e"), '"e" is reserved for the identity state'),
        ((2, flip, "b"), "initial state 'b' is not declared"),
        ((2, {"a": ((1, 1), ("e", "a"))}, "a"), "state 'a': (1, 1) is not a permutation of 0..1"),
        ((2, {"a": ((1, 0, 2), ("e", "a"))}, "a"), "state 'a': (1, 0, 2) is not a permutation of 0..1"),
        ((2, {"a": ((1, 0), ("e",))}, "a"), "state 'a' needs 2 successors, got 1"),
        ((2, {"a": ((1, 0), ("e", "b"))}, "a"), "state 'a': unknown successor 'b'"),
    ]
    for args, message in cases:
        with pytest.raises(ValueError) as err:
            Automorphism.from_states(*args)
        assert str(err.value) == message, args


def test_from_states_initial_e_is_the_identity():
    assert Automorphism.from_states(2, {"a": ((1, 0), ("e", "a"))}, "e") == identity(2)
    assert Automorphism.from_states(3, {}, "e") == identity(3)


def test_parse_machine():
    gens = parse_machine(ADDING_FILE)
    assert list(gens) == ["a"]
    assert gens["a"] == A


def test_dump_parse_round_trip():
    names = ("adding_machine", "tullio", "grigorchuk", "basilica", "gupta_sidki_3", "aleshin")
    inputs = [builtin()[name].generators for name in names]
    # a generator named e, and a generator named like the first fresh state name
    inputs.append(parse_machine(ADDING_FILE + "initial e\n"))
    inputs.append({"q1": builtin()["grigorchuk"].generators["b"]})
    for gens in inputs:
        again = parse_machine(dump_machine(gens))
        assert list(again) == list(gens)
        assert again == dict(gens)


def test_dump_is_deterministic():
    gens = builtin()["grigorchuk"].generators
    assert dump_machine(gens) == dump_machine(gens)


def test_parse_errors_carry_line_numbers():
    cases = [
        ("state a\n", 1, "alphabet"),
        # a digit that str.isdigit accepts and int refuses
        ("alphabet \u00b2\n", 1, "alphabet"),
        ("alphabet 2\nstate e\n", 2, "reserved"),
        ("alphabet 2\nstate a\nperm 1 0\non 0 -> e\ninitial a\n", 2, "missing transitions"),
        ("alphabet 2\nstate a\nperm 1 1\n", 3, "permutation"),
        ("alphabet 2\nstate a\nperm 1 0\non 0 -> e\non 0 -> a\n", 5, "duplicate"),
        ("alphabet 2\nstate a\nperm 1 0\non 0 -> e\non 1 -> zz\ninitial a\n", 2, "unknown target"),
        ("alphabet 2\n", 1, "no initial"),
        ("alphabet 2\ninitial zz\n", 2, "names no state"),
    ]
    for text, line, hint in cases:
        with pytest.raises(MachineParseError) as err:
            parse_machine(text)
        assert err.value.line == line, (text, hint)


@pytest.mark.parametrize("name", ["a#", "a b", "", "a\tb"])
def test_dump_refuses_names_the_format_cannot_hold(name):
    with pytest.raises(ValueError, match="empty or holds whitespace or '#'"):
        dump_machine({"b": B, name: A})


def test_dump_refuses_a_nontrivial_generator_named_e():
    with pytest.raises(ValueError, match='generator "e" is not the identity'):
        dump_machine({"e": A})


def test_identity_generator_round_trips():
    gens = {"x": identity(2), "a": A}
    again = parse_machine(dump_machine(gens))
    assert again["x"].is_identity()
    assert again["a"] == A

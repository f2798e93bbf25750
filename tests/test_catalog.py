import pytest

from treeauto.catalog import (
    builtin,
    decode_integer,
    encode_integer,
    entry,
    integer_tree_crosscheck,
    tullio_integer_action,
)
from treeauto.activity import classify_activity
from treeauto.core import apply, evaluate_word, section
from treeauto.freeness import find_relations
from treeauto.nucleus import nucleus


def test_builtin_listing():
    names = sorted(builtin())
    assert names == [
        "adding_machine",
        "aleshin",
        "basilica",
        "grigorchuk",
        "gupta_sidki_3",
        "tullio",
    ]
    with pytest.raises(KeyError):
        entry("nope")


def test_structure_spot_checks():
    grig = entry("grigorchuk").generators
    assert section(grig["b"], "1") == grig["c"]
    assert section(grig["c"], "1") == grig["d"]
    assert section(grig["d"], "1") == grig["b"]
    assert section(grig["b"], "0") == grig["a"]
    assert section(grig["d"], "0").is_identity()

    tullio = entry("tullio").generators
    assert section(tullio["b"], "0") == tullio["b"]
    assert section(tullio["b"], "1") == tullio["a"]

    gupta = entry("gupta_sidki_3").generators
    assert gupta["a"].k == 3
    assert section(gupta["t"], "2") == gupta["t"]


def test_integer_encoding_round_trip():
    assert encode_integer(6, 4) == (0, 1, 1, 0)
    assert decode_integer((0, 1, 1, 0)) == 6
    for n in range(64):
        assert decode_integer(encode_integer(n, 7)) == n
    with pytest.raises(ValueError):
        encode_integer(16, 4)
    with pytest.raises(ValueError):
        encode_integer(-1, 4)
    for not_binary in ((2,), "12", (0, 1, 3)):
        with pytest.raises(ValueError, match="not binary"):
            decode_integer(not_binary)


# Frozen values, worked out from the recursions by hand:
#   a(n) = n + 1
#   b(n) = n + 2 * (lowest set bit of n), b(0) = 0
# so b(12) = 12 + 2*4 = 20 and the word "b a" maps 1 to b(2) = 2 + 2*2 = 6.
def test_integer_action_frozen_values():
    assert tullio_integer_action("a", 7) == 8
    assert tullio_integer_action("b", 12) == 20
    assert tullio_integer_action("b", 0) == 0
    assert tullio_integer_action("b a", 1) == 6
    assert tullio_integer_action("b^-1", 20) == 12
    assert tullio_integer_action("a^-1 a", 5) == 5


def test_integer_action_is_a_left_action():
    for n in (0, 1, 5, 12, 100):
        lhs = tullio_integer_action("b a", n)
        rhs = tullio_integer_action("b", tullio_integer_action("a", n))
        assert lhs == rhs


def test_crosscheck_matches_tree_action():
    gens = entry("tullio").generators
    words = ["a", "b", "a b", "b a", "a a b", "b b a^-1", "a^-1 b a"]
    for word in words:
        for n in (0, 1, 2, 3, 7, 12, 100, 1000):
            assert integer_tree_crosscheck(word, n, depth=16)
            g = evaluate_word(gens, word)
            img = apply(g, encode_integer(n, 16))
            assert decode_integer(img) == tullio_integer_action(word, n)


def test_crosscheck_depth_overflow():
    # 2^4 - 1 maps to 2^4 under a, which no 4-letter vertex can encode
    with pytest.raises(ValueError, match="depth overflow"):
        integer_tree_crosscheck("a", 15, depth=4)
    with pytest.raises(ValueError):
        integer_tree_crosscheck("b", -1, depth=4)


def test_negative_depth_is_rejected():
    with pytest.raises(ValueError, match="depth must be nonnegative"):
        encode_integer(3, -1)
    with pytest.raises(ValueError, match="depth must be nonnegative"):
        integer_tree_crosscheck("a", 3, -1)


def test_expected_metadata_is_present():
    for name, ent in builtin().items():
        assert ent.generators, name
        assert ent.summary
        for g in ent.generators.values():
            assert g.k == ent.alphabet


def _class_label(g) -> str:
    """An activity class as the expected blocks write it: the kind, with
    the depth of a finitary and the degree of a polynomial one."""
    cls = classify_activity(g)
    extra = {"finitary": cls.depth, "polynomial": cls.degree}.get(cls.kind)
    return cls.kind if extra is None else "%s:%d" % (cls.kind, extra)


def test_expected_blocks_are_rederived():
    for name, ent in builtin().items():
        want = ent.expected
        assert set(want) <= {
            "classes", "contracting", "nucleus_size", "relators", "relators_max_len"
        }, name
        gens = ent.generators
        for g_name, label in want["classes"].items():
            assert _class_label(gens[g_name]) == label, (name, g_name)
        res = nucleus(gens)
        assert (res.status == "found") is want["contracting"], name
        if "nucleus_size" in want:
            assert res.size == want["nucleus_size"], name
        if "relators" in want:
            rep = find_relations(gens, want["relators_max_len"])
            assert rep.complete, name
            assert [str(w) for w in rep.relators] == want["relators"], name

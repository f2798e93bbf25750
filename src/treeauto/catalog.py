"""Built-in machines, and the integer model of the two-generator entry.

Every entry records the properties the rest of the suite expects of it
(activity classes, contracting behavior, short relators).  Tests re-derive
these from the machines; nothing in the library trusts the `expected`
blocks, they exist so regressions have a single place to point at.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Union

from .core import Automorphism, apply, evaluate_word, vertex
from .words import Word


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    alphabet: int
    generators: Mapping[str, Automorphism]
    summary: str
    expected: dict = field(default_factory=dict)


def _adding_machine() -> CatalogEntry:
    a = Automorphism.from_states(2, {"a": ((1, 0), ("e", "a"))}, "a")
    return CatalogEntry(
        name="adding_machine",
        alphabet=2,
        generators={"a": a},
        summary="binary odometer: adds one to an LSB-first binary integer",
        expected={
            "classes": {"a": "bounded"},
            "contracting": True,
            "nucleus_size": 3,
            "relators": [],
            "relators_max_len": 10,
        },
    )


def _tullio() -> CatalogEntry:
    a = Automorphism.from_states(2, {"a": ((1, 0), ("e", "a"))}, "a")
    b = Automorphism.from_states(
        2, {"a": ((1, 0), ("e", "a")), "b": ((0, 1), ("b", "a"))}, "b"
    )
    return CatalogEntry(
        name="tullio",
        alphabet=2,
        generators={"a": a, "b": b},
        summary="odometer a with the linear-activity companion b = (b, a)",
        expected={
            "classes": {"a": "bounded", "b": "polynomial:1"},
            "contracting": False,
        },
    )


def _grigorchuk() -> CatalogEntry:
    table = {
        "a": ((1, 0), ("e", "e")),
        "b": ((0, 1), ("a", "c")),
        "c": ((0, 1), ("a", "d")),
        "d": ((0, 1), ("e", "b")),
    }
    gens = {n: Automorphism.from_states(2, table, n) for n in "abcd"}
    return CatalogEntry(
        name="grigorchuk",
        alphabet=2,
        generators=gens,
        summary="the four-generator torsion group of intermediate growth",
        expected={
            "classes": {"a": "finitary:1", "b": "bounded", "c": "bounded", "d": "bounded"},
            "contracting": True,
            "nucleus_size": 5,
            "relators": ["a a", "b b", "c c", "d d"],
            "relators_max_len": 2,
        },
    )


def _basilica() -> CatalogEntry:
    table = {
        "a": ((0, 1), ("b", "e")),
        "b": ((1, 0), ("a", "e")),
    }
    gens = {n: Automorphism.from_states(2, table, n) for n in "ab"}
    return CatalogEntry(
        name="basilica",
        alphabet=2,
        generators=gens,
        summary="the three-state torsion-free group a = (b, 1), b = (a, 1) swap",
        expected={
            "classes": {"a": "bounded", "b": "bounded"},
            "contracting": True,
            "nucleus_size": 7,
        },
    )


def _gupta_sidki_3() -> CatalogEntry:
    table = {
        "a": ((1, 2, 0), ("e", "e", "e")),
        "a2": ((2, 0, 1), ("e", "e", "e")),
        "t": ((0, 1, 2), ("a", "a2", "t")),
    }
    gens = {
        "a": Automorphism.from_states(3, table, "a"),
        "t": Automorphism.from_states(3, table, "t"),
    }
    return CatalogEntry(
        name="gupta_sidki_3",
        alphabet=3,
        generators=gens,
        summary="ternary torsion group: rotation a with t = (a, a^-1, t)",
        expected={
            "classes": {"a": "finitary:1", "t": "bounded"},
            "contracting": True,
        },
    )


def _aleshin() -> CatalogEntry:
    table = {
        "a": ((1, 0), ("b", "c")),
        "b": ((1, 0), ("c", "b")),
        "c": ((0, 1), ("a", "a")),
    }
    gens = {n: Automorphism.from_states(2, table, n) for n in "abc"}
    return CatalogEntry(
        name="aleshin",
        alphabet=2,
        generators=gens,
        summary="three-state machine whose states generate a free group of rank 3",
        expected={
            "classes": {"a": "exponential", "b": "exponential", "c": "exponential"},
            "contracting": False,
            "relators": [],
            "relators_max_len": 10,
        },
    )


_BUILDERS = (
    _adding_machine,
    _tullio,
    _grigorchuk,
    _basilica,
    _gupta_sidki_3,
    _aleshin,
)
_CACHE: dict[str, CatalogEntry] | None = None


def builtin() -> dict[str, CatalogEntry]:
    """All built-in entries, keyed by name."""
    global _CACHE
    if _CACHE is None:
        _CACHE = {}
        for build in _BUILDERS:
            entry = build()
            _CACHE[entry.name] = entry
    return _CACHE


def entry(name: str) -> CatalogEntry:
    try:
        return builtin()[name]
    except KeyError:
        raise KeyError(
            "no catalog entry %r (have: %s)" % (name, ", ".join(sorted(builtin())))
        ) from None


# -- the integer model of the tullio entry ---------------------------------
#
# On binary integers written LSB first, a is the odometer n -> n + 1 and b
# fixes 0 and shifts the odd part: 2^k (2m+1) -> 2^k (2m+3).  Both satisfy
# the same per-letter recursions as the machines above, compatibly with
# truncation to any fixed depth, so the tree action at depth d computes the
# integer map mod 2^d.


def _int_a(n: int) -> int:
    return n + 1


def _int_b(n: int) -> int:
    if n == 0:
        return 0
    return n + ((n & -n) << 1)


def _int_b_inv(n: int) -> int:
    if n == 0:
        return 0
    return n - ((n & -n) << 1)


def tullio_integer_action(word: Union[Word, str], n: int) -> int:
    """Apply a word in a, b to an integer; the rightmost letter acts first."""
    if isinstance(word, str):
        word = Word.parse(word)
    for name, sign in reversed(word.letters):
        if name == "a":
            n = _int_a(n) if sign > 0 else n - 1
        elif name == "b":
            n = _int_b(n) if sign > 0 else _int_b_inv(n)
        else:
            raise ValueError("the integer action only knows a and b, got %r" % name)
    return n


def encode_integer(n: int, depth: int) -> tuple[int, ...]:
    """The LSB-first binary vertex of length `depth` for 0 <= n < 2**depth."""
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    if not 0 <= n < (1 << depth):
        raise ValueError("%d does not fit in %d bits" % (n, depth))
    return tuple((n >> i) & 1 for i in range(depth))


def decode_integer(v) -> int:
    bits = vertex(v)
    if any(bit > 1 for bit in bits):
        raise ValueError("vertex %r is not binary" % (v,))
    return sum(bit << i for i, bit in enumerate(bits))


def integer_tree_crosscheck(word: Union[Word, str], n: int, depth: int) -> bool:
    """Check the tree action against the integer action on one input.

    Requires 0 <= n < 2**depth; raises a depth overflow error when the
    integer image escapes the range, which is the caller's cue to raise
    `depth`.  Negative inputs are out of scope.
    """
    v, image = encode_integer(n, depth), tullio_integer_action(word, n)
    if not 0 <= image < (1 << depth):
        raise ValueError(
            "depth overflow: %d maps to %d, outside %d bits" % (n, image, depth)
        )
    g = evaluate_word(builtin()["tullio"].generators, word)
    return decode_integer(apply(g, v)) == image

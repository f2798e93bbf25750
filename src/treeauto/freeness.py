"""Relator search, stabilizer sampling, and freeness evidence.

Words here live over the symmetrized generator set: one letter per
generator, plus a formal inverse letter for each generator that is not an
involution.  Only opposite signs cancel, so for an involution b the word
b b is a legitimate (and typically the first) relator.

find_relations has a fast path and one exact path.  When no generator is
trivial or an involution, injectivity of evaluation on all words of half
the requested length already rules out every relator: a cyclically
reduced relator w = u v would force the distinct half-words u and the
formal inverse of v to evaluate equally.  Involutions break that argument
(u and the inverse respelling of v can be the same word), so their
presence forces the exact path.

The fast path and free_subgroup_certificate only ask whether two words
collide, so they walk core._distinct_words: words are told apart by their
action on a level of the tree with at most 256 vertices, a homomorphism to
a finite symmetric group, so distinct level actions prove distinct
elements.  The words on a repeated level action are valued by
evaluate_word, so a collision is reported only when the values are equal,
and the walk reports the same words, in the same order, as one that
composed once per word.  It holds one key of at most 256 bytes per word of the layer it
extends, and a value per word whose key repeats.

The exact path reads the relators off half-length value classes: a
reduced word of length l is trivial exactly when its first ceil(l/2)
letters u and the formal inverse v of the rest evaluate equally.  It
extends the reduced words one letter at a time, groups each length m by
value and forms the trivial words of length 2m - 1 and 2m as pairs (u, v)
in one class, against the previous length and this one.  A trivial word
is not extended: a listed relator, and every trivial cyclic factor with
no trivial proper factor, has no trivial proper prefix or suffix, so both
of its halves are still reached.  A trivial word is listed when it is
cyclically reduced and no rotation has a trivial proper prefix, read off
the trivial words formed, with no products.  Each half-length is one
core._pair_quotient walk of the last length's quotient with the letters,
from each class by each letter and one seed (class, identity) per class
of the last length.  In one walk a block is a value, so classes are keyed
by block, seeds pair them with the last length's and block 0 is the
identity; no value is built.

Budgets: find_relations counts one per word extension and one per trivial
word formed, one count shared by the fast path and the exact path and
charged in one place; without the second, pairing would be quadratic in
the class sizes and unbounded.  When the count runs out the partial
report lists every relator up to length 2j, j the last half-length
finished.  free_subgroup_certificate
counts words reached, which equalled its compositions when it composed
once per word.
stabilizer_search and germ_faithfulness_probe hand their budget to the
walk of ball's words that reads off only the elements fixing the ray
(nucleus._stabilizers); it counts distinct elements as ball does.
"""

from __future__ import annotations

from math import lcm
from typing import Mapping, Optional, Union

from .core import (
    Automorphism,
    BoundaryPoint,
    BudgetExceeded,
    Record,
    _distinct_words,
    _letter_machine,
    _pair_quotient,
    _quotient_rows,
    compose,
    evaluate_word,
    invert,
    symmetric_letters,
)
from .nucleus import _stabilizers
from .words import Word, commutator

WordLike = Union[str, Word]


def _as_word(w: WordLike) -> Word:
    return Word.parse(w) if isinstance(w, str) else w


def _display_key(letters):
    return tuple((n, 0 if s > 0 else 1) for n, s in letters)


class RelationReport(Record):
    """Relators of length at most max_len, up to rotation and inversion.

    A listed relator is cyclically reduced and contains no shorter relator
    as a cyclic factor (words like c b b c, trivial only by way of the
    inner b b, are left out).  complete means the search space was fully
    covered, so the list is exhaustive under those conventions.  The
    partial report of a budget that ran out lists every relator up to an
    even length, the last one the budget covered, and none longer.
    """

    max_len: int
    relators: tuple[Word, ...]
    complete: bool


class _RelatorSet:
    def __init__(self):
        self.by_class: dict[tuple, Word] = {}

    def add(self, letters: tuple):
        variants = []
        for base in (letters, tuple((n, -s) for n, s in reversed(letters))):
            for r in range(len(base)):
                variants.append(base[r:] + base[:r])
        key = min(variants)
        if key not in self.by_class:
            self.by_class[key] = Word(min(variants, key=_display_key))

    def sorted(self) -> tuple[Word, ...]:
        return tuple(
            sorted(self.by_class.values(), key=lambda w: (len(w.letters), _display_key(w.letters)))
        )


def find_relations(
    gens: Mapping[str, Automorphism],
    max_len: int,
    budget: int = 200000,
) -> RelationReport:
    steps = symmetric_letters(gens)
    if max_len < 1:
        raise ValueError("max_len must be at least 1")
    if budget < 0:
        raise ValueError("budget must be nonnegative")
    spent = 0
    found = _RelatorSet()

    def charge(n: int):
        nonlocal spent
        spent += n
        if spent > budget:
            raise BudgetExceeded(
                "relation search budget exhausted",
                partial=RelationReport(max_len, found.sorted(), False),
                budget="relations", spent=budget + 1, limit=budget,
            )

    # the fast path needs every generator neither trivial nor an involution:
    # exactly the generators that symmetric_letters gives two letters
    if len(steps) == 2 * len(gens):
        for _, known in _distinct_words(steps, (max_len + 1) // 2):
            charge(1)
            if known is not None:
                break
        else:
            return RelationReport(max_len, (), True)

    # the exact path reads the relators off the classes of words of half the
    # length: a reduced word u v^-1 is trivial exactly when u and v are equal
    letters = [letter for letter, _ in steps]
    inverse = {x: (x[0], -x[1]) if (x[0], -x[1]) in letters else x for x in letters}
    hperms, htrans, hstarts, hkeys = _letter_machine(steps)
    # length 0: the identity row, and its key
    perms, cols, ids, keys = hperms[:1], [[0]] * len(hperms[0]), [0], hkeys and hkeys[:1]
    previous = {0: [()]}  # the last length's words by block
    trivial = set()
    for m in range(1, (max_len + 1) // 2 + 1):
        # every class by every letter, but a trivial word is not extended
        # (module docstring), then one seed per class, its block its value
        children = [(b, x, s) for b in previous if m == 1 or b for x, s in zip(letters, hstarts)]
        starts = [(b, s) for b, _, s in children] + [(b, 0) for b in previous]
        gperms, gtrans = _quotient_rows(perms, cols, ids)  # length m - 1's quotient
        perms, cols, ids, firsts, keys = _pair_quotient(
            gperms, gtrans, hperms, htrans, starts, hkeys and (keys, hkeys)
        )
        classes: dict[int, list] = {}  # this length's words by block
        for (b, x, _), f in zip(children, firsts):
            grown = [w + (x,) for w in previous[b] if not w or w[-1] != (x[0], -x[1])]
            charge(len(grown))
            if grown:
                classes.setdefault(ids[f], []).extend(grown)
        shorter = {ids[f]: words for words, f in zip(previous.values(), firsts[len(children):])}

        # each trivial reduced word of length 2m - 1 or 2m splits once as
        # u v^-1 with |u| = m and |v| = m - 1 or m; past m = 1, a trivial u
        # is a trivial proper prefix
        new = []
        for b, us in classes.items():
            if m > 1 and b == 0:
                continue
            # by last letter, so the work on u v^-1 that does not reduce is
            # one lookup per v, not one per pair, and the budget bounds it
            by_end: dict[tuple, list] = {}
            for u in us:
                by_end.setdefault(u[-1], []).append(u)
            for v in shorter.get(b, []) + (us if 2 * m <= max_len else []):
                tail = tuple(inverse[x] for x in reversed(v))
                cancels = tail and (tail[0][0], -tail[0][1])
                charge(len(us) - len(by_end.get(cancels, ())))
                new.extend(u + tail for end, group in by_end.items() if end != cancels for u in group)
        previous = classes

        # the listing rule on reduced words: cyclically reduced, and no
        # rotation with a trivial proper prefix of a length trivial words have
        trivial.update(new)
        lengths = sorted({len(w) for w in trivial})
        for word in new:
            n = len(word)
            twice = word + word
            if word[0] != (word[-1][0], -word[-1][1]) and not any(
                twice[r:r + i] in trivial for i in lengths if i < n for r in range(n)
            ):
                found.add(word)
    return RelationReport(max_len, found.sorted(), True)


# -- stabilizers and germs as freeness probes ----------------------------------


class StabilizerSample(Record):
    """Nontrivial elements of word length <= max_len fixing the ray.

    words are shortest representatives, length-lex ordered; germ_trivial
    runs parallel and marks the elements acting trivially near the ray.
    complete is True when the ball enumeration closed, i.e. the whole
    group was inspected.
    """

    point: BoundaryPoint
    max_len: int
    words: tuple[Word, ...]
    germ_trivial: tuple[bool, ...]
    complete: bool


def stabilizer_search(
    gens: Mapping[str, Automorphism],
    point: BoundaryPoint,
    max_len: int,
    budget: int = 100000,
) -> StabilizerSample:
    [stab], closed = _stabilizers(gens, max_len, budget, [point])
    hits = stab[1:]  # the ball's identity comes first
    return StabilizerSample(
        point=point,
        max_len=max_len,
        words=tuple(w for w, _, _ in hits),
        germ_trivial=tuple(germ == (0,) for _, _, germ in hits),
        complete=closed,
    )


class FaithfulnessProbe(Record):
    """Heuristic commutator probe on the stabilizer of a ray.

    For each pair of stabilizer elements the iterated commutator chain
    c1 = [u, v], c2 = [c1, u], c3 = [c2, v], ... is followed for up to
    4 * max_len steps.  A chain that never collapses to the identity is
    free-like behavior; every chain collapsing is weak evidence against a
    free subgroup inside this stabilizer.  No proof either way.
    """

    point: BoundaryPoint
    pairs_tested: int
    has_free_like: bool
    witness: Optional[tuple[str, str]] = None


def germ_faithfulness_probe(
    gens: Mapping[str, Automorphism],
    point: BoundaryPoint,
    max_len: int = 4,
    budget: int = 100000,
) -> FaithfulnessProbe:
    [stab], _ = _stabilizers(gens, max_len, budget, [point])
    return _faithfulness_probe_in(stab, point, max_len)


def _faithfulness_probe_in(stab: list, point: BoundaryPoint, max_len: int) -> FaithfulnessProbe:
    """germ_faithfulness_probe over one nucleus._stabilizers list."""
    hits = stab[1:]  # the ball's identity comes first
    elems = [elem for _, elem, _ in hits]

    def comm(x: Automorphism, y: Automorphism) -> Automorphism:
        return compose(compose(x, y), compose(invert(x), invert(y)))

    pairs = 0
    for i in range(len(elems)):
        for j in range(i + 1, len(elems)):
            pairs += 1
            u, v = elems[i], elems[j]
            c = comm(u, v)
            steps = 0
            while not c.is_identity() and steps < 4 * max_len:
                c = comm(c, u if steps % 2 == 0 else v)
                steps += 1
            if not c.is_identity():
                return FaithfulnessProbe(
                    point, pairs, True,
                    (str(hits[i][0]), str(hits[j][0])),
                )
    return FaithfulnessProbe(point, pairs, False)


# -- word-level kernel witnesses -----------------------------------------------


def kernel_witness_power(u: WordLike, v: WordLike) -> Optional[Word]:
    """A common power of u and v when they share a primitive root, else None.

    Two elements of a free group commute exactly when they are powers of
    one primitive word; in that case the returned word is a power of both
    (up to inversion) and witnesses that any evaluation killing one power
    relation kills this word too.
    """
    uw, vw = _as_word(u), _as_word(v)
    if uw.is_identity() or vw.is_identity():
        raise ValueError("kernel witnesses need nontrivial words")
    ru, nu = uw.primitive_root()
    rv, nv = vw.primitive_root()
    if ru == rv or ru == rv.inverse():
        return ru ** lcm(nu, nv)
    return None


def kernel_witness_commutator(u: WordLike, v: WordLike) -> Word:
    """The commutator [u, v], a kernel witness candidate for non-commuting words.

    Raises when the words commute as free words, since the commutator is
    then trivially trivial and witnesses nothing.
    """
    uw, vw = _as_word(u), _as_word(v)
    c = commutator(uw, vw)
    if c.is_identity():
        raise ValueError("words commute freely; the commutator is empty")
    return c


# -- pairwise freeness certificates --------------------------------------------


class TrichotomyEvidence(Record):
    """Outcome of testing one pair of elements for free behavior.

    status is "free_up_to" (no relation among words in the pair up to
    checked_len), "relation_found" (relation holds the collapsing pattern,
    written in the stand-in letters U and V), or "trivial_input".
    """

    status: str
    pair: tuple[str, str]
    checked_len: int
    relation: Optional[str] = None


def free_subgroup_certificate(
    gens: Mapping[str, Automorphism],
    u: WordLike,
    v: WordLike,
    max_len: int = 8,
    budget: int = 100000,
) -> TrichotomyEvidence:
    """Search for relations between two elements, as evidence of freeness.

    Walks all reduced patterns in the pair (as letters U, V) up to
    max_len, telling them apart by value; a collision or a trivial value
    is a relation, and a clean sweep certifies the pair generates a free
    group at least to that pattern length.
    """
    if max_len < 0:
        raise ValueError("max_len must be nonnegative")
    if budget < 0:
        raise ValueError("budget must be nonnegative")
    uw, vw = _as_word(u), _as_word(v)
    pair = (str(uw), str(vw))
    gu = evaluate_word(gens, uw)
    gv = evaluate_word(gens, vw)
    if gu.is_identity():
        return TrichotomyEvidence("trivial_input", pair, 0, "U")
    if gv.is_identity():
        return TrichotomyEvidence("trivial_input", pair, 0, "V")

    letters = symmetric_letters({"U": gu, "V": gv})
    for spent, (word, known) in enumerate(_distinct_words(letters, max_len), 1):
        if spent > budget:
            raise BudgetExceeded(
                "freeness certificate budget exhausted",
                partial=TrichotomyEvidence("free_up_to", pair, len(word) - 1),
                budget="certificate", spent=spent, limit=budget,
            )
        if known is not None:
            return TrichotomyEvidence(
                "relation_found", pair, max_len, str(word * known.inverse())
            )
    return TrichotomyEvidence("free_up_to", pair, max_len)

"""Nucleus computation, self-similarity checks, and germs at fixed rays.

The deep sections of one automorphism are easy to read off its machine:
a state holds a section at arbitrarily large depths exactly when it is
reachable from a state lying on a directed cycle (state 0 counts, via its
self-loops, as soon as it is reachable).  limit_states finds them by
peeling: one breadth-first walk counts the in-degree of every reachable
state, self-loops included, and states of in-degree 0 are removed, with
their out-edges, until none is left.  A peeled state has only peeled
predecessors, so it lies on no cycle and below none; the states that
survive are exactly the limit states.

The nucleus closure starts from the identity and the deep sections of the
generators and their inverses, then repeatedly folds in the deep sections
of pairwise products.  When the family is contracting this stabilizes on
the minimal closed set; when it is not, the set keeps growing and the
search reports it exceeded its bounds instead of looping forever.  The
set is closed under sections, so its members are the states of one
machine, and a sweep runs over pairs of that machine with itself: rows
of left members in batches of 1, 2, 4, ..., each batch one pair walk
from its products (pairs of two members known before the last sweep
skipped) and from the seeds (s, 0), one per member s.  After one
refinement the seed's block is member s; the products' limit states are
peeled on the blocks, and a value is built only for a block that is no
member.  A product whose limit blocks are all known adds nothing and is
skipped; any other has its limit-state set built exactly as
limit_states(compose(g, h)) would build it, the same values inserted in
the same order, and iterated.  Which new members come first in those
iterations, which follow the values' hashes and not their state
numbers, decides which of them make up an exceeded partial set.

ball, the self-similarity check and the ray stabilizers read one walk
of reduced words (core._reduced_words), one pair walk per layer, which
hands over a block and its layer's quotient rows for each new element.
ball and the self-similarity check take the values through _ball_walk,
which reads every one of them off.  ball drains it; is_self_similar
stops as soon as every first-level section of every generator has its
first word, so a "yes" costs the layers and values up to its last
witness, while "no" and "inconclusive" still need the whole ball.  The
stabilizers of germ_group, stabilizer_search, germ_faithfulness_probe
and the trichotomy command (_stabilizers) walk each ray on the rows from
the element's block and read off only the elements that fix it.  The
budget counts the distinct elements the walk has reached.

Germs at a ray w are keyed (_germ): one walk of w gives g's states at the
starts of the period sweeps, and for g fixing w their cycle, rotated so the
state at a sweep index divisible by its length comes first, is the key.
Elements fixing w share a germ exactly when their sections agree at some
vertex of w, and then at every later one; the cycle's distinct states are
distinct values, so it is primitive and equal germs give equal cycles.
"""

from __future__ import annotations

import itertools
from typing import Mapping, Optional

from .core import (
    Automorphism,
    BoundaryPoint,
    BudgetExceeded,
    Record,
    _alphabet,
    _level_keys,
    _marks,
    _pair_quotient,
    _quotient_rows,
    _ray_walk,
    _reduced_words,
    _renumbered,
    _right_machine,
    compose,
    identity,
    invert,
    symmetric_letters,
)
from .words import Word


def limit_states(g: Automorphism) -> set[Automorphism]:
    """Sections of g that occur at arbitrarily large depths (module docstring)."""
    mark = _marks(g.state_count)
    return {g._with_initial(s, mark) for s in _deep_states(g.trans, g.initial)}


def _deep_states(trans, start: int) -> list[int]:
    """The states of a minimal machine's rows `trans` that are deep below
    `start`, peeled as in the module docstring: the identity state 0 first
    when it is reached, then the others breadth-first from start, letters
    in order, the order of their canonical numbers in the machine of
    start.  limit_states inserts its values in that order, but a set is
    iterated in the order of their hashes: the first members met there
    are what make up an exceeded nucleus partial (NucleusResult)."""
    indegree = {start: 0}
    order = [start]
    for s in order:  # the list grows while it is walked
        for t in trans[s]:
            if t in indegree:
                indegree[t] += 1
            else:
                indegree[t] = 1
                order.append(t)
    peel = [s for s in order if indegree[s] == 0]
    while peel:
        for t in trans[peel.pop()]:
            indegree[t] -= 1
            if indegree[t] == 0:
                peel.append(t)
    return [0] * (0 in indegree) + [s for s in order if s and indegree[s]]


class NucleusResult(Record):
    """Outcome of the nucleus closure.

    status is "found" when the closure stabilized, "exceeded" when it blew
    past max_size or max_depth (reason says which); elements then hold the
    partial set accumulated so far.  Past max_size that set is the members
    met first while iterating each product's limit-state set in sweep
    order, and that iteration follows the values' hashes (module
    docstring).  generations counts closure sweeps, the stabilizing sweep
    included.
    """

    status: str
    elements: tuple[Automorphism, ...]
    generations: int
    reason: Optional[str] = None

    @property
    def size(self) -> int:
        return len(self.elements)


def nucleus(
    gens: Mapping[str, Automorphism],
    max_size: int = 64,
    max_depth: int = 16,
) -> NucleusResult:
    k = _alphabet(gens)
    if max_size < 1 or max_depth < 1:
        raise ValueError("max_size and max_depth must be at least 1")
    N: set[Automorphism] = {identity(k)}
    for g in gens.values():
        N |= limit_states(g)
        N |= limit_states(invert(g))

    def done(status, gen, reason=None):
        return NucleusResult(status, tuple(sorted(N, key=Automorphism.sort_key)), gen, reason)

    if len(N) > max_size:
        return done("exceeded", 0, "size limit")

    # N is closed under sections, so its members are exactly the states of
    # one machine, the identity as state 0; each sweep appends its new members
    members = sorted(N, key=Automorphism.sort_key)
    mperms, mtrans, states = _right_machine(members)
    mkeys = _level_keys(mperms, mtrans)  # carried as the machine grows
    state = dict(zip(members, states))
    value = sorted(state, key=state.get)  # state -> member
    generations = 0
    swept = 0  # states below this were members of the last sweep, all pairs composed
    while True:
        generations += 1
        fresh: dict[Automorphism, tuple] = {}  # new member -> its root perm, sections and key
        rows = [state[g] for g in sorted(N, key=Automorphism.sort_key)]
        seeds = [(s, 0) for s in range(len(mperms))]
        lo, size = 0, 1
        while lo < len(rows):
            # rows in batches of 1, 2, 4, ...: a sweep that stops early pays
            # only for the rows it reached
            batch = rows[lo : lo + size]
            lo, size = lo + size, 2 * size
            starts = [(p, q) for p in batch for q in rows if p >= swept or q >= swept]
            perms, cols, ids, firsts, keys = _pair_quotient(
                mperms, mtrans, mperms, mtrans, starts + seeds, mkeys and (mkeys, mkeys)
            )
            bperms, btrans = _quotient_rows(perms, cols, ids)
            mark = _marks(len(bperms))
            # the seed (s, 0) is member s; any other block's value is built once
            built = {ids[f]: value[s] for s, f in enumerate(firsts[len(starts) :])}
            settled = set(built)  # blocks whose sections all lie in N or fresh
            block = {}  # built value -> its block
            for f in firsts[: len(starts)]:
                if ids[f] in settled:
                    continue
                deep = _deep_states(btrans, ids[f])
                if settled.issuperset(deep):
                    continue
                limits = set()  # limit_states(compose(g, h)), inserted in its order
                for b in deep:
                    if b not in built:
                        built[b] = _renumbered(k, bperms, btrans, mark, b)
                        block[built[b]] = b
                    limits.add(built[b])
                settled.update(deep)
                for g in limits:
                    if g not in N and g not in fresh:
                        b = block[g]
                        fresh[g] = bperms[b], [built[t] for t in btrans[b]], keys and keys[b]
                        if len(N) + len(fresh) > max_size:
                            N.update(fresh)
                            return done("exceeded", generations, "size limit")
        if not fresh:
            return done("found", generations)
        swept = len(mperms)
        for g, (perm, _, key) in fresh.items():
            state[g] = len(value)
            value.append(g)
            mperms.append(perm)
            if mkeys:
                mkeys.append(key)
        mtrans += [tuple([state[t] for t in sections]) for _, sections, _ in fresh.values()]
        N.update(fresh)
        if generations >= max_depth:
            return done("exceeded", generations, "generation limit")


# -- ball enumeration ----------------------------------------------------------


def ball(
    gens: Mapping[str, Automorphism],
    max_len: int,
    budget: int = 100000,
) -> tuple[dict[Automorphism, Word], bool]:
    """Group elements of word length <= max_len, each with a shortest word.

    Words are explored in length order, appending generators and their
    inverses on the right, and deduplicated by value, so the stored word is
    a shortest one (first in the exploration order among those).  Returns
    the element-to-word map and a flag that is True when the ball closed
    (no new elements at some length), i.e. the whole group was listed.

    Raises BudgetExceeded (with the partial map attached) past budget
    distinct elements.
    """
    elements: dict[Automorphism, Word] = {}
    for _ in _ball_walk(gens, max_len, budget, elements):
        pass
    return elements, max(map(len, elements.values())) < max_len


def _ball_walk(gens: Mapping[str, Automorphism], max_len: int, budget: int, elements: dict):
    """Yield each new (value, word) of ball(gens, max_len, budget), the
    identity first, while `elements` fills up as ball's map.

    The word yielded is the one ball stores; a value reaches `elements`
    only once the consumer asks for the next one.
    """
    letters = _ball_letters(gens, max_len, budget)
    k = letters[0][1].k
    value, word = identity(k), Word(())
    yield value, word
    elements[value] = word
    for word, b, tables in _reduced_words(letters, max_len):
        if len(elements) >= budget:
            raise BudgetExceeded(
                "ball budget of %d elements exhausted" % budget,
                partial=elements, budget="ball", spent=len(elements) + 1, limit=budget,
            )
        value = _renumbered(k, *tables, b)
        yield value, word
        elements[value] = word


def _ball_letters(gens: Mapping[str, Automorphism], max_len: int, budget: int) -> list:
    """symmetric_letters(gens), once max_len and budget are checked as ball checks them."""
    letters = symmetric_letters(gens)
    if max_len < 0:
        raise ValueError("max_len must be nonnegative")
    if budget < 1:
        raise ValueError("budget must be at least 1")
    return letters


# -- self-similarity -----------------------------------------------------------


class SelfSimilarityReport(Record):
    """verdict "yes", "no" or "inconclusive", with per-section witnesses.

    witnesses maps (generator name, letter) to the word that evaluates to
    that section, the first one in ball's order, or None when the ball
    search did not find one.  "no" is only reported when the whole group
    was enumerated, so absence is proof.
    """

    verdict: str
    witnesses: dict

    @property
    def is_self_similar(self) -> Optional[bool]:
        return {"yes": True, "no": False}.get(self.verdict)


def is_self_similar(
    gens: Mapping[str, Automorphism],
    max_len: int = 8,
    budget: int = 100000,
) -> SelfSimilarityReport:
    """Do all first-level sections of the generators lie in the group?

    Reads ball(gens, max_len, budget)'s walk and stops once every section
    has its word, so the budget bounds the distinct elements enumerated
    until then: a "yes" whose witnesses all come before the budget runs
    out is returned even when the whole ball would exceed it.  "no" and
    "inconclusive" enumerate the whole ball, and raise as ball would.
    """
    witnesses = {}
    pending: dict[Automorphism, list] = {}
    for name in sorted(gens):
        g = gens[name]
        for x in range(g.k):
            witnesses[(name, x)] = None
            pending.setdefault(g._with_initial(g.trans[g.initial][x]), []).append((name, x))
    elements: dict[Automorphism, Word] = {}
    for value, word in _ball_walk(gens, max_len, budget, elements):
        for key in pending.pop(value, ()):
            witnesses[key] = str(word)
        if not pending:
            return SelfSimilarityReport("yes", witnesses)
    closed = max(map(len, elements.values())) < max_len
    return SelfSimilarityReport("no" if closed else "inconclusive", witnesses)


# -- germs at eventually periodic rays -----------------------------------------


def _germ(g: Automorphism, point: BoundaryPoint) -> Optional[tuple[int, ...]]:
    """None when g moves the ray, else g's germ key there (module docstring)."""
    return _germ_of(*g._ray(point), point)


def _germ_of(out: list, starts: list, c: int, point: BoundaryPoint) -> Optional[tuple[int, ...]]:
    """_germ from one walk of the ray: None when its letters leave the ray,
    else the key, in the numbering of the tables walked."""
    if out != list(point.preperiod + point.period * len(starts)):
        return None
    n = len(starts) - c  # the state at sweep j >= c is starts[c + (j - c) % n]
    return tuple(starts[c + (j - c) % n] for j in range(n))


def stabilizes(g: Automorphism, point: BoundaryPoint) -> bool:
    return _germ(g, point) is not None


def germ_is_trivial(g: Automorphism, point: BoundaryPoint) -> bool:
    """Is g the identity on some neighborhood of the fixed ray?

    True exactly when the state walk along the ray falls into the identity
    state, i.e. g restricted below some finite prefix of the ray is trivial.
    Raises if g does not fix the ray, since the germ is undefined there.
    """
    germ = _germ(g, point)
    if germ is None:
        raise ValueError("germ is only defined at a fixed ray")
    return germ == (0,)


class GermGroupReport(Record):
    """The group generated by germs of short stabilizer words at the ray.

    representatives[i] is a word whose germ class is i (class 0 is the
    trivial germ); table[i][j] is the class of the product of classes i
    and j.  complete is False only when the class count passed max_order:
    the search stops at that class (order max_order + 1, the classes met
    first, no table), and the germ group might be larger.  Longer
    stabilizer words than max_len could in principle also generate more
    germs; for contracting families small radii already see them all.
    """

    point: BoundaryPoint
    order: int
    representatives: tuple[str, ...]
    complete: bool
    table: tuple[tuple[int, ...], ...]


def germ_group(
    gens: Mapping[str, Automorphism],
    point: BoundaryPoint,
    max_len: int = 6,
    budget: int = 100000,
    max_order: int = 64,
) -> GermGroupReport:
    if max_order < 1:
        raise ValueError("max_order must be at least 1")
    [stab], _ = _stabilizers(gens, max_len, budget, [point])
    return _germ_group_in(stab, point, max_order)


def _stabilizers(gens: Mapping[str, Automorphism], max_len: int, budget: int, points) -> tuple[list, bool]:
    """For each point, the (word, element, germ key) of the elements of
    ball(gens, max_len, budget) that fix it, in ball order (by length, then
    letter by letter in symmetric_letters order), and ball's closed flag.

    One walk of the ball's words serves every point: each new element's
    ray is walked on the quotient rows from its block, and a value is read
    off only for an element that fixes some point.  Past the budget this
    raises what ball raises, the same partial map included.
    """
    letters = _ball_letters(gens, max_len, budget)
    k = letters[0][1].k
    e = identity(k)
    stabs = [[(Word(()), e, _germ(e, p))] for p in points]  # checks the points' letters
    size, longest = 1, 0  # the elements met, the identity first, and their longest word
    for word, b, (perms, trans, mark) in _reduced_words(letters, max_len):
        if size >= budget:  # raises as ball does, with the partial map of the values it read
            ball(gens, max_len, budget)
        size += 1
        longest = len(word)
        value = None
        for p, stab in zip(points, stabs):
            if _germ_of(*_ray_walk(perms, trans, b, p), p) is not None:
                if value is None:
                    value = _renumbered(k, perms, trans, mark, b)
                stab.append((word, value, _germ(value, p)))
    return stabs, longest < max_len


def _germ_group_in(stab: list, point: BoundaryPoint, max_order: int = 64) -> GermGroupReport:
    """germ_group over one _stabilizers list."""
    stab = sorted(stab, key=lambda p: (len(p[0].letters), p[0].letters))
    classes: dict[tuple[Automorphism, ...], int] = {}  # germ key read as values -> class
    reps: list[tuple[Word, Automorphism]] = []  # a new class is represented by word()

    def class_of(elem: Automorphism, germ: tuple[int, ...], word) -> int:
        key = tuple(map(elem._with_initial, germ))
        if key not in classes:
            classes[key] = len(reps)
            reps.append((word(), elem))
        return classes[key]

    for word, elem, germ in stab:  # the ball's identity sorts first, so class 0 is trivial
        if len(reps) > max_order:
            break
        class_of(elem, germ, lambda: word)

    # close the classes under products (a finite set of germs closed under products is a group)
    table: dict[tuple[int, int], int] = {}  # (i, j) -> the class of reps[i] reps[j]
    n = 0
    while n < len(reps) <= max_order:
        n = len(reps)
        for i, j in itertools.product(range(n), repeat=2):
            if (i, j) not in table:
                prod = compose(reps[i][1], reps[j][1])
                table[i, j] = class_of(prod, _germ(prod, point), lambda: reps[i][0] * reps[j][0])
                if len(reps) > max_order:
                    break
    complete = len(reps) <= max_order

    return GermGroupReport(
        point=point,
        order=len(reps),
        representatives=tuple(str(w) for w, _ in reps),
        complete=complete,
        table=tuple(tuple(table[i, j] for j in range(n)) for i in range(n)) if complete else (),
    )

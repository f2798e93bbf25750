"""Automorphisms of the rooted tree over letters 0..k-1, as finite-state machines.

An automorphism g is stored as a Mealy machine: every state carries a
permutation of the alphabet (how the corresponding section acts on the
first letter) together with one successor state per letter (the section
below that letter).  The action unfolds by

    g(x v) = g(x) . (g|_x)(v)

and sections multiply through products by (g h)|_v = g|_{h(v)} h|_v.

Values are immutable and every constructor returns the canonical minimized
form: behaviorally equivalent states are merged, states unreachable from
the initial state are dropped, and the remaining states are numbered
breadth-first from the initial state.  State 0 of every machine is the
reserved identity state (trivial permutation, all transitions to itself),
so the word problem collapses to checking `initial == 0` and equality of
automorphisms is tuple equality.

The numbering is a function of the behavior alone: a minimal machine
numbered breadth-first from its initial state (identity state 0, initial
state 1, then states in order of first discovery, letters taken in order)
already is the canonical one.  compose builds its product in exactly that
numbering, so a product that turns out minimal, the usual case, is
returned without renumbering.  A sub-machine of a canonical machine (the
states one state reaches, with state 0) is minimal too, since its states
still act pairwise differently; renumbered breadth-first it is canonical,
so a section is read off its parent's tables with no minimization.  The
same holds for the inverse: inverting every state of a minimal machine
keeps its states pairwise different and reaching the same states, so only
the numbering has to be redone.

Minimizing is one pair walk and one refinement (_pair_quotient): the
state pairs of a left and a right machine reachable from a list of start
pairs form one machine, and Moore refinement of that machine gives its
minimal quotient, one row per block (_quotient_rows).  The blocks one
start reaches, with the identity block, are a sub-machine of that
quotient, so they are minimal by the same argument; renumbered
breadth-first from the start's block they are the canonical form of that
one product, whatever the other starts added to the walk.  compose reads
its one product off a walk with a single start (_product).  The ball
takes one walk per layer (_reduced_words), the relator search one per
half-length, the nucleus closure one per batch of rows of its members'
machine.  Like the relator search and the closure, the ball's walk also
starts from one seed (b, 0) per value it already holds, and (b, 0)
behaves as b: a child in the block of a seed, or of an earlier child, is
a value met before, known without reading it off.  So a layer reads
nothing for the children it merges, and hands its consumers a block and
the quotient rows for each new value; ball reads every one of them off,
the ray stabilizers only those that fix the ray.

Those three seed refinement with level keys (_level_keys), not root
permutations: a pair's key is its action on one level, its right
state's key translated through its left state's, and a layer's left
keys are the last layer's block keys.  Equal values act alike on every
level, so the blocks and their first-met numbers are the same; the keys
only save rounds.  compose keeps the root permutations, as do alphabets
over _SEED_POINTS letters.

Every value that needs minimizing comes from that walk; sections and
inverses need only the renumbering above.  All three share one read-off
(_renumbered), a product taking it on the quotient rows of its walk.  It
numbers states through a list with one entry per state of the tables,
-1 until the state is met and then its number (0 for state 0), and it
resets what it wrote before it returns: every read-off of one set of
tables (a ball layer, a closure batch, the sections of one value) shares
one list, and a one-off read-off makes its own.  A declared machine
(from_states) is the product of the identity with its tables: the pairs
(0, s) reachable from (0, initial) are exactly the declared states that
initial reaches, numbered breadth-first.  A right machine (_right_machine)
is the same product over the union of its values' tables, from every state.

The walk and the read-off each have two bodies, chosen by the alphabet
alone: on two letters, the alphabet of most of the catalog, the letter
loop is written out, since there the loop itself costs more than the
lookups it drives.  Both bodies build the same tables.

Composition is right to left throughout: (compose(g, h))(v) = g(h(v)).
"""

from __future__ import annotations

import operator
from typing import Iterable, Iterator, Mapping, Sequence, Union

from .words import Word

VertexLike = Union[str, Iterable[int]]


class BudgetExceeded(RuntimeError):
    """An enumeration outgrew its configured budget.

    `partial` carries whatever was computed before the budget ran out, so
    callers can report partial results instead of nothing.  `budget` names
    the budget that ran out ("relations", "certificate", "ball" or
    "vertices"), `spent` is how much of it the search had used when it
    stopped and `limit` is the configured value.
    """

    def __init__(self, message: str, partial=None, budget=None, spent=None, limit=None):
        super().__init__(message)
        self.partial = partial
        self.budget = budget
        self.spent = spent
        self.limit = limit


class Record:
    """An immutable report whose fields are its subclass's annotated names.

    A class attribute is its field's default, a dict default copied for each
    record.  Records equal only records of their class with equal fields,
    hash as the tuple of their fields and print as Name(field=value, ...).
    """

    def __init_subclass__(cls):
        cls._fields = tuple(cls.__annotations__)
        cls._defaults = {name: cls.__dict__[name] for name in cls._fields if name in cls.__dict__}
        cls.__dataclass_fields__ = dict.fromkeys(cls._fields)  # read by the benchmark's canon

    def __init__(self, *args, **kwargs):
        fields = self._fields
        state = self.__dict__
        state.update(zip(fields, args))
        if kwargs or len(args) != len(fields):  # the rest from keywords and defaults
            for name in fields[len(args):]:
                if name in kwargs:
                    state[name] = kwargs.pop(name)
                elif name in self._defaults:
                    default = self._defaults[name]
                    state[name] = dict(default) if type(default) is dict else default
                else:
                    raise TypeError("%s is missing field %r" % (type(self).__name__, name))
            if kwargs or len(args) > len(fields):
                raise TypeError("%s takes its fields %s once each" % (type(self).__name__, fields))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.__dict__ == other.__dict__

    def __hash__(self):
        return hash(tuple(self.__dict__.values()))

    def __repr__(self):
        return "%s(%s)" % (type(self).__qualname__, ", ".join("%s=%r" % item for item in self.__dict__.items()))

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % name)

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % name)


def vertex(v: VertexLike) -> tuple[int, ...]:
    """Coerce a vertex to a tuple of letters.

    Accepts sequences of ints (items with __index__) and strings of the
    ASCII digits 0-9 ("011" means the vertex 0,1,1); more than ten letters
    need the sequence form.  Negative letters and other items or characters
    are rejected here, letters past the alphabet by the action.
    """
    if isinstance(v, str) and v and not (v.isascii() and v.isdigit()):
        bad = next(c for c in v if c not in "0123456789")
        raise ValueError("non-digit character %r in vertex %r" % (bad, v))
    items = tuple(v)
    try:
        out = tuple(map(int if isinstance(v, str) else operator.index, items))
    except TypeError:
        bad = next(x for x in items if not hasattr(type(x), "__index__"))
        raise ValueError("non-integer letter %r in vertex %r" % (bad, v)) from None
    if out and min(out) < 0:
        raise ValueError("negative letter %d in vertex %r" % (min(out), v))
    return out


def _perm_inverse(p: tuple[int, ...]) -> tuple[int, ...]:
    out = [0] * len(p)
    for i, image in enumerate(p):
        out[image] = i
    return tuple(out)


class BoundaryPoint:
    """An eventually periodic ray: preperiod followed by the period forever.

    Canonical form is enforced on construction: the period is primitive
    (not a power of a shorter word) and the preperiod is the shortest
    possible, letters shared with the period's tail being rotated into it.
    Equality of rays is then equality of the two tuples.
    """

    __slots__ = ("preperiod", "period")

    def __init__(self, preperiod: VertexLike = (), period: VertexLike = (0,)):
        pre = vertex(preperiod)
        per = vertex(period)
        if not per:
            raise ValueError("period must be nonempty")
        n = len(per)
        for p in range(1, n + 1):
            if n % p == 0 and per[:p] * (n // p) == per:
                per = per[:p]
                break
        while pre and pre[-1] == per[-1]:
            per = (per[-1],) + per[:-1]
            pre = pre[:-1]
        self.preperiod = pre
        self.period = per

    @classmethod
    def parse(cls, text: str) -> "BoundaryPoint":
        """Parse "pre:per" notation, e.g. ":0" for 0 0 0 ... and "1:10"."""
        pre, sep, per = text.partition(":")
        if not sep:
            raise ValueError("boundary point must be written pre:per, got %r" % text)
        return cls(vertex(pre), vertex(per))

    def __str__(self) -> str:
        digits = lambda v: "".join(str(x) for x in v)
        return "%s:%s" % (digits(self.preperiod), digits(self.period))

    def __repr__(self) -> str:
        return "BoundaryPoint(%r)" % (str(self),)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, BoundaryPoint)
            and self.preperiod == other.preperiod
            and self.period == other.period
        )

    def __hash__(self) -> int:
        return hash((self.preperiod, self.period))

    def letters(self) -> Iterator[int]:
        """Yield the letters of the ray, forever."""
        yield from self.preperiod
        while True:
            yield from self.period

    def prefix(self, n: int) -> tuple[int, ...]:
        if n < 0:
            raise ValueError("prefix length must be nonnegative")
        return (self.preperiod + self.period * n)[:n]

    def tail(self, n: int) -> "BoundaryPoint":
        """The ray with its first n letters removed."""
        if n < 0:
            raise ValueError("tail length must be nonnegative")
        if n <= len(self.preperiod):
            return BoundaryPoint(self.preperiod[n:], self.period)
        shift = (n - len(self.preperiod)) % len(self.period)
        return BoundaryPoint((), self.period[shift:] + self.period[:shift])


class Automorphism:
    """A tree automorphism in canonical minimized machine form.

    Do not call the constructor directly; build values through identity(),
    from_states(), the catalog, or the operations in this module.  perms[s]
    is the root permutation of state s, trans[s][x] the state of the
    section below letter x.  State 0 is the reserved identity state.
    """

    __slots__ = ("k", "perms", "trans", "initial", "_hash")

    def __init__(self, k, perms, trans, initial, _raw=False):
        if not _raw:
            raise TypeError("use identity()/from_states()/compose()/... to build values")
        self.k = k
        self.perms = perms
        self.trans = trans
        self.initial = initial
        self._hash = None

    # -- construction ---------------------------------------------------

    @classmethod
    def identity(cls, k: int) -> "Automorphism":
        if k < 2:
            raise ValueError("alphabet needs at least two letters")
        return cls(k, (tuple(range(k)),), ((0,) * k,), 0, _raw=True)

    @classmethod
    def from_states(
        cls,
        k: int,
        states: Mapping[str, tuple[Sequence[int], Sequence[str]]],
        initial: str,
    ) -> "Automorphism":
        """Build an automorphism from named states.

        `states` maps a name to (perm, targets): the tuple of letter images
        and the tuple of successor state names.  The name "e" is reserved
        for the identity state; it may be used as a target freely and must
        not be declared.  `initial` names the starting state ("e" gives the
        identity automorphism).
        """
        e = cls.identity(k)
        if "e" in states:
            raise ValueError('"e" is reserved for the identity state')
        index = {"e": 0}
        for name in states:
            index[name] = len(index)
        if initial not in index:
            raise ValueError("initial state %r is not declared" % initial)
        perms, trans = list(e.perms), list(e.trans)
        for name, (perm, targets) in states.items():
            perm = tuple(int(x) for x in perm)
            if sorted(perm) != list(range(k)):
                raise ValueError("state %r: %r is not a permutation of 0..%d" % (name, perm, k - 1))
            if len(targets) != k:
                raise ValueError("state %r needs %d successors, got %d" % (name, k, len(targets)))
            try:
                row = tuple(index[t] for t in targets)
            except KeyError as err:
                raise ValueError("state %r: unknown successor %s" % (name, err)) from None
            perms.append(perm)
            trans.append(row)
        # the product of the identity with the declared tables (module docstring)
        return _product(e, perms, trans, index[initial])

    def _with_initial(self, s: int, mark=None) -> "Automorphism":
        """The section at state s, by renumbering alone (module docstring),
        through the caller's _marks list of these tables when it reads many."""
        if s == self.initial:
            return self
        return _renumbered(self.k, self.perms, self.trans, mark or _marks(len(self.perms)), s)

    # -- value semantics -------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Automorphism)
            and self.k == other.k
            and self.initial == other.initial
            and self.perms == other.perms
            and self.trans == other.trans
        )

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.k, self.perms, self.trans, self.initial))
        return self._hash

    def sort_key(self):
        """A deterministic total order, used to make set-valued results stable."""
        return (self.k, len(self.perms), self.perms, self.trans, self.initial)

    def __repr__(self) -> str:
        return "<Automorphism k=%d states=%d initial=%d>" % (
            self.k,
            len(self.perms),
            self.initial,
        )

    @property
    def state_count(self) -> int:
        return len(self.perms)

    # -- the action ------------------------------------------------------

    def is_identity(self) -> bool:
        return self.initial == 0

    def _vertex(self, v: VertexLike) -> tuple[int, ...]:
        """vertex(v), with its letters checked against the alphabet."""
        v = vertex(v)
        if v and max(v) >= self.k:
            raise ValueError(
                "letter %d is out of range for an alphabet of size %d" % (max(v), self.k)
            )
        return v

    def _walk(self, v: tuple[int, ...]) -> tuple[tuple[int, ...], int]:
        """(g(v), state number of g|_v) for a vertex whose letters are checked."""
        perms, trans, s = self.perms, self.trans, self.initial
        out = []
        for x in v:
            out.append(perms[s][x])
            s = trans[s][x]
        return tuple(out), s

    def apply(self, v: VertexLike) -> tuple[int, ...]:
        """The image g(v) of a vertex."""
        return self._walk(self._vertex(v))[0]

    def __call__(self, v: VertexLike) -> tuple[int, ...]:
        return self.apply(v)

    def state_at(self, v: VertexLike) -> int:
        """The state number of the section g|_v; 0 exactly when it is trivial."""
        return self._walk(self._vertex(v))[1]

    def section(self, v: VertexLike) -> "Automorphism":
        """The section g|_v, the automorphism induced on the subtree at v."""
        return self._with_initial(self.state_at(v))

    def _ray(self, w: BoundaryPoint) -> tuple[list, list, int]:
        """_ray_walk of g's own tables from its initial state, the letters of
        the ray checked against the alphabet."""
        self._vertex(w.preperiod + w.period)
        return _ray_walk(self.perms, self.trans, self.initial, w)

    def apply_boundary(self, w: BoundaryPoint) -> BoundaryPoint:
        """The image of an eventually periodic ray, again in canonical form."""
        out, _, c = self._ray(w)
        i = len(w.preperiod) + c * len(w.period)
        return BoundaryPoint(tuple(out[:i]), tuple(out[i:]))

    # -- group operations --------------------------------------------------

    def inverse(self) -> "Automorphism":
        """The inverse, by renumbering alone (module docstring)."""
        perms = [_perm_inverse(p) for p in self.perms]
        trans = [tuple([row[y] for y in inv]) for row, inv in zip(self.trans, perms)]
        return _renumbered(self.k, perms, trans, _marks(len(perms)), self.initial)

    def __invert__(self) -> "Automorphism":
        return self.inverse()

    def __mul__(self, other: "Automorphism") -> "Automorphism":
        return compose(self, other)

    def __pow__(self, n: int) -> "Automorphism":
        if n < 0:
            return self.inverse() ** (-n)
        result = Automorphism.identity(self.k)
        base = self
        while n:
            if n & 1:
                result = compose(result, base)
            n >>= 1
            if n:  # square only while bits remain
                base = compose(base, base)
        return result


def _ray_walk(perms, trans, s: int, w: BoundaryPoint) -> tuple[list, list, int]:
    """(letters, sweep starts, c) from one walk of the ray w from state s of a
    machine's tables: the image's letters up to the first period sweep that
    would start in a state met before, the states the sweeps start in (the
    sections there) in order; they repeat from starts[c]."""
    out = []
    for x in w.preperiod:
        out.append(perms[s][x])
        s = trans[s][x]
    starts = {}  # state -> its sweep index; at most one sweep per state
    while s not in starts:
        starts[s] = len(starts)
        for x in w.period:
            out.append(perms[s][x])
            s = trans[s][x]
    return out, list(starts), starts[s]


def identity(k: int) -> Automorphism:
    return Automorphism.identity(k)


def compose(g: Automorphism, h: Automorphism) -> Automorphism:
    """The product g h acting by (g h)(v) = g(h(v)).

    The pairs reachable from (initial, initial), minimized (_product), so
    products of elements with small canonical machines stay small no
    matter how long the generating word was.
    """
    if g.k != h.k:
        raise ValueError("alphabet mismatch: %d vs %d" % (g.k, h.k))
    if g.initial == 0:
        return h
    if h.initial == 0:
        return g
    return _product(g, h.perms, h.trans, h.initial)


def _product(g: Automorphism, hperms, htrans, start: int) -> Automorphism:
    """The product of g with the state `start` of a right machine.

    hperms and htrans are the tables of a machine on g's alphabet whose
    state 0 is the identity row.  One pair walk from (initial, start) and
    one refinement (_pair_quotient); the product is read off the
    quotient's rows by breadth-first renumbering from its block
    (_renumbered, module docstring).  A walk that is already minimal is
    numbered canonically as it stands and is returned as it is, unless
    its start is the identity pair.
    """
    k = g.k
    perms, cols, ids, [first], _ = _pair_quotient(g.perms, g.trans, hperms, htrans, [(g.initial, start)])
    # first-met block numbers give ids[i] <= i, with equality at the last
    # pair exactly when every block is a single pair
    if first == 1 and ids[-1] == len(ids) - 1:
        return Automorphism(k, tuple(perms), tuple(zip(*cols)), 1, _raw=True)
    perms, trans = _quotient_rows(perms, cols, ids)
    return _renumbered(k, perms, trans, _marks(len(perms)), ids[first])


def _pair_quotient(gperms, gtrans, hperms, htrans, pairs, keys=None) -> tuple[list, list, list, list, list]:
    """(perms, cols, ids, firsts, block keys): the pair machine of two
    machines' tables reachable from the start pairs, and its Moore refinement.

    Both machines share one alphabet and have the identity row as state 0.
    The pair (p, q) behaves as the product of the left state p with the
    right state q, stepping by

        (p, q) --x--> (p after q's image of x, q after x)

    and only pairs reachable from `pairs` are materialized, in one walk for
    all of them.  Pair states are numbered in the order they are met, the
    identity pair (0, 0) as 0 and the start pairs first, which is
    breadth-first from the first start when it is the only one; perms[i]
    is pair i's root permutation, cols[x][i] its successor below letter x
    and firsts[j] the number of pairs[j].  Refinement runs once over the
    whole machine: ids[i] is pair i's block, numbered in the order blocks
    are first met, so block 0 is the identity.  It is seeded with the root
    permutations, or given keys = (left, right) of _level_keys with each
    pair's key, the right state's translated through the left state's;
    the block keys are then returned, else None.
    """
    k, m = len(hperms[0]), len(hperms)
    # the pair (p, q) is keyed p * m + q, so (0, 0) is 0
    index = {0: 0}
    order = []
    firsts = []
    for p, q in pairs:
        pair = p * m + q
        if pair not in index:
            index[pair] = len(index)
            order.append(pair)
        firsts.append(index[pair])
    perms = [tuple(range(k))]
    cols: list[list[int]] = [[0] for _ in range(k)]
    if k == 2:  # the generic body below, its letter loop unrolled
        c0, c1 = cols
        for pair in order:  # the list grows while it is walked
            p, q = divmod(pair, m)
            gperm, grow = gperms[p], gtrans[p]
            h0, h1 = hperms[q]
            r0, r1 = htrans[q]
            perms.append((gperm[h0], gperm[h1]))
            nxt = grow[h0] * m + r0
            t = index.get(nxt)
            if t is None:
                t = index[nxt] = len(index)
                order.append(nxt)
            c0.append(t)
            nxt = grow[h1] * m + r1
            t = index.get(nxt)
            if t is None:
                t = index[nxt] = len(index)
                order.append(nxt)
            c1.append(t)
    else:
        for pair in order:  # the list grows while it is walked
            p, q = divmod(pair, m)
            gperm, grow, hperm, hrow = gperms[p], gtrans[p], hperms[q], htrans[q]
            perms.append(tuple([gperm[y] for y in hperm]))
            for x, col in enumerate(cols):
                nxt = grow[hperm[x]] * m + hrow[x]
                t = index.get(nxt)
                if t is None:
                    t = index[nxt] = len(index)
                    order.append(nxt)
                col.append(t)
    n = len(perms)
    seeds = perms
    if keys:  # pair (0, 0) is never walked, and its key is the identity's
        gkeys, hkeys = keys
        pad = _IDENTITY_KEY[len(hkeys[0]) :]  # the left keys as translate tables
        gkeys = [key + pad for key in gkeys]
        seeds = [hkeys[0], *[hkeys[pair % m].translate(gkeys[pair // m]) for pair in order]]
    table: dict = {}
    ids = [table.setdefault(seed, len(table)) for seed in seeds]
    while len(table) < n:
        table2: dict = {}
        sigs = zip(ids, *[[ids[t] for t in col] for col in cols])
        new = [table2.setdefault(sig, len(table2)) for sig in sigs]
        if len(table2) == len(table):
            break
        ids, table = new, table2
    # equal keys within a block: one per block, in block order
    return perms, cols, ids, firsts, keys and list(dict(zip(ids, seeds)).values())


def _right_machine(values) -> tuple[list, list, list]:
    """(perms, trans, starts): the states of all values in one machine, equal
    states merged, state 0 the identity and starts[i] the state of values[i];
    the product of the identity with the union of their tables (module docstring)."""
    e = Automorphism.identity(next(iter(values)).k)
    perms, trans, roots = list(e.perms), list(e.trans), []
    for a in values:
        base = len(perms) - 1  # state s > 0 of a is union state s + base
        perms += a.perms[1:]
        trans += [tuple([t and t + base for t in row]) for row in a.trans[1:]]
        roots.append(a.initial and a.initial + base)
    # from every (0, u): no other pair is met, (0, u) is pair u, and blocks are
    # numbered as first met, value by value in state order, whatever the hash order
    qperms, cols, ids, _, _ = _pair_quotient(e.perms, e.trans, perms, trans, [(0, u) for u in range(len(perms))])
    return (*_quotient_rows(qperms, cols, ids), [ids[u] for u in roots])


# seed keys are actions on the deepest level with at most this many vertices
_SEED_POINTS = 64
_IDENTITY_KEY = bytes(range(256))  # the identity as a translate table


def _level_keys(perms, trans):
    """Each state's seed key for _pair_quotient: its action on level L, the
    deepest with at most _SEED_POINTS vertices, as bytes (vertices base-k),
    built up as level_action builds it; None when L would be 0."""
    k = len(perms[0])
    level = 0
    while k ** (level + 1) <= _SEED_POINTS:
        level += 1
    if not level:
        return None
    rows, images = [t for row in trans for t in row], [y for perm in perms for y in perm]
    keys, size = [b"\0"] * len(perms), 1
    for _ in range(level):
        # a child's images shifted by one translate: shift[y] adds y * size
        shift = [_IDENTITY_KEY[y * size :] + _IDENTITY_KEY[: y * size] for y in range(k)]
        pieces = map(bytes.translate, map(keys.__getitem__, rows), map(shift.__getitem__, images))
        keys, size = list(map(b"".join, zip(*[pieces] * k))), size * k  # k pieces a state
    return keys


def _marks(n: int) -> list[int]:
    """A fresh mark list for _renumbered on tables of n states."""
    return [0] + [-1] * (n - 1)


def _renumbered(k: int, perms, trans, mark: list[int], s: int) -> Automorphism:
    """The automorphism at state s of a minimal machine's tables, numbered
    breadth-first through `mark`, a _marks list of the tables (module
    docstring); state 0 gives the identity."""
    if s == 0:
        return Automorphism.identity(k)
    mark[s] = 1
    order = [s]
    new_trans = [trans[0]]
    if k == 2:  # the generic body below, its letter loop unrolled
        for t in order:  # the list grows while it is walked
            a, b = trans[t]
            x = mark[a]
            if x < 0:
                order.append(a)
                x = mark[a] = len(order)
            y = mark[b]
            if y < 0:
                order.append(b)
                y = mark[b] = len(order)
            new_trans.append((x, y))
    else:
        for t in order:  # the list grows while it is walked
            row = []
            for u in trans[t]:
                v = mark[u]
                if v < 0:
                    order.append(u)
                    v = mark[u] = len(order)
                row.append(v)
            new_trans.append(tuple(row))
    new_perms = [perms[0]]
    for t in order:
        mark[t] = -1
        new_perms.append(perms[t])
    return Automorphism(k, tuple(new_perms), tuple(new_trans), 1, _raw=True)


def _quotient_rows(perms, cols, ids) -> tuple[list, list]:
    """The quotient's tables by the blocks `ids`, one row per block, from a
    pair in each; blocks are numbered as first met, so row b is block b."""
    reps = dict(zip(ids, range(len(ids)))).values()
    return [perms[r] for r in reps], list(zip(*[[ids[col[r]] for r in reps] for col in cols]))


def invert(g: Automorphism) -> Automorphism:
    return g.inverse()


def _alphabet(gens: Mapping[str, Automorphism]) -> int:
    """The one alphabet size shared by a nonempty generator set."""
    ks = {g.k for g in gens.values()}
    if not ks:
        raise ValueError("need at least one generator")
    if len(ks) > 1:
        raise ValueError("generators act on different alphabets")
    return ks.pop()


def symmetric_letters(gens: Mapping[str, Automorphism]) -> list[tuple[tuple, Automorphism]]:
    """Letters (name, sign) with their values: each generator by name, then
    its inverse with sign -1 unless the generator is an involution.

    The generators must be nonempty and share one alphabet.
    """
    _alphabet(gens)
    letters = []
    for name in sorted(gens):
        g = gens[name]
        letters.append(((name, 1), g))
        inv = invert(g)
        if inv != g:
            letters.append(((name, -1), inv))
    return letters


def section(g: Automorphism, v: VertexLike) -> Automorphism:
    return g.section(v)


def apply(g: Automorphism, v: VertexLike) -> tuple[int, ...]:
    return g.apply(v)


def level_action(g: Automorphism, n: int) -> tuple[list[int], list[int]]:
    """g on level n: images[v] is g(v), states[v] the state number of g|_v.

    Vertices are base-k integers, first letter most significant.  Levels
    are built bottom up by pi_s(x k^(m-1) + w) = perm_s(x) k^(m-1) + pi_t(w),
    t = trans_s(x), one sweep over the nontrivial states g reaches after
    n - m letters.  Below the root the identity state is never swept: a
    trivial child's images are a range and its states zeros, and a child
    that perm_s(x) leaves unshifted (perm_s(x) = 0) is copied as it is.
    """
    if n < 0:
        raise ValueError("level must be nonnegative")
    reach = [{g.initial}]
    for _ in range(n):
        reach.append({t for s in reach[-1] for t in g.trans[s] if t})
    images = {s: [0] for s in reach[n]}
    states = {s: [s] for s in reach[n]}
    size = 1
    for d in range(n - 1, -1, -1):
        zeros = [0] * size
        new_images, new_states = {}, {}
        for s in reach[d]:
            img, st = [], []
            for x, t in enumerate(g.trans[s]):
                base = g.perms[s][x] * size
                if not t:
                    img += range(base, base + size)
                    st += zeros
                elif base:
                    img += [base + w for w in images[t]]
                    st += states[t]
                else:
                    img += images[t]
                    st += states[t]
            new_images[s], new_states[s] = img, st
        images, states, size = new_images, new_states, size * g.k
    return images[g.initial], states[g.initial]


def apply_boundary(g: Automorphism, w: BoundaryPoint) -> BoundaryPoint:
    return g.apply_boundary(w)


def minimize(g: Automorphism) -> Automorphism:
    """Canonical minimized form.  A no-op: every Automorphism already is one."""
    return g


def is_identity(g: Automorphism) -> bool:
    return g.is_identity()


def evaluate_word(gens: Mapping[str, Automorphism], word: Union[Word, str]) -> Automorphism:
    """Evaluate a group word over named generators to an automorphism.

    The word multiplies left to right as written, and products act right
    to left, so the rightmost letter acts first: evaluate_word(gens, "b a")
    sends v to b(a(v)).
    """
    if isinstance(word, str):
        word = Word.parse(word)
    result = Automorphism.identity(_alphabet(gens))
    for name, sign in word:
        if name not in gens:
            raise ValueError("unknown generator %r" % name)
        g = gens[name] if sign > 0 else gens[name].inverse()
        result = compose(result, g)
    return result


def _reduced_words(letters, max_len: int):
    """Walk reduced words over `letters` in length order, up to max_len, and
    yield (word, block, tables) for each word whose value is new.

    Words grow by one letter on the right, skipping the letter that cancels
    the last one, so each word yielded is the first, hence a shortest, word
    for its value.  Stops early at a length that adds nothing.  A layer is
    one _pair_quotient walk of the last layer's quotient with the letters,
    from each child's (prefix block, letter), at most len(letters) starts
    per element new in the last layer, and then one seed (b, 0) per element
    met so far, the identity first.  In one walk a block is a value, so a
    child whose block a seed or an earlier child holds is known, with no
    value read off and no value hashed.  tables are the layer's quotient
    rows, one per block (the next layer's left machine), and the layer's
    one mark list; a new element's value is _renumbered(k, *tables,
    block), read off only by a consumer that needs it.
    """
    k = letters[0][1].k
    hperms, htrans, hstarts = _right_machine([g for _, g in letters])
    hkeys = _level_keys(hperms, htrans)
    # by a word's last letter (none for the empty word): its children's letter indices
    after = {(): range(len(letters))}
    for (name, sign), _ in letters:
        after[((name, sign),)] = [i for i, (letter, _) in enumerate(letters) if letter != (name, -sign)]
    rows = [tuple(range(k))], [(0,) * k]  # layer 0's quotient: the identity row
    gkeys = hkeys and hkeys[:1]  # and its key, the identity's
    met = [0]  # the block of every element met so far, in the order met
    layer = [((), 0)]  # (letters, block) of each new element of the last layer
    for _ in range(max_len):
        children = [(word, b, i) for word, b in layer for i in after[word[-1:]]]
        starts = [(b, hstarts[i]) for _, b, i in children] + [(b, 0) for b in met]
        perms, cols, ids, firsts, gkeys = _pair_quotient(*rows, hperms, htrans, starts, hkeys and (gkeys, hkeys))
        rows = _quotient_rows(perms, cols, ids)
        tables = (*rows, _marks(len(rows[0])))  # shared by every read-off of the layer
        met = [ids[f] for f in firsts[len(children) :]]
        held = bytearray(len(rows[0]))  # 1 for a block of a known element
        for b in met:
            held[b] = 1
        layer = []
        for (word, _, i), f in zip(children, firsts):
            b = ids[f]
            if not held[b]:
                held[b] = 1
                met.append(b)
                child = word + (letters[i][0],)
                layer.append((child, b))
                yield Word._reduced(child), b, tables
        if not layer:
            return


# keys are actions on the deepest level with at most this many vertices,
# one byte per vertex, the most that bytes.translate can map
_KEY_POINTS = 256


def _distinct_words(letters, max_len: int):
    """(word, known) for every reduced word over `letters` in the order of
    _reduced_words, known being the first word with the same value or None,
    composing only on a repeated key.

    A word's key is its inverse's action on level L, the deepest level
    with at most _KEY_POINTS vertices, as bytes; a child's key is its
    prefix's key translated by the letter's inverse, one C call.  Distinct
    keys prove distinct elements.  The seen-map holds hash(key) and the
    first word with it; a hit turns that entry into a map from value to
    word, and the child is told apart by one value probe, so neither a
    repeated key of distinct elements nor a hash collision moves the
    sequence.  The words on a repeated key are valued by evaluate_word
    over the letters' generators.  Only the layer being extended keeps its
    keys.  With no level but 0 under the cap every word is a hit, and the
    walk is exact.
    """
    k = letters[0][1].k
    level = 0
    while k ** (level + 1) <= _KEY_POINTS:
        level += 1
    steps = [
        (letter, bytes(_perm_inverse(level_action(g, level)[0])).ljust(256, b"\0"))
        for letter, g in letters
    ]
    gens = {name: g for (name, sign), g in letters if sign > 0}
    start = bytes(range(k ** level))
    seen = {hash(start): Word(())}
    layer = [(Word(()), start)]
    for depth in range(max_len):
        nxt = []
        for word, key in layer:
            for (name, sign), table in steps:
                if word.letters[-1:] == ((name, -sign),):
                    continue
                child = Word._reduced(word.letters + ((name, sign),))
                child_key = key.translate(table)
                h = hash(child_key)
                entry = seen.get(h)
                if entry is None:
                    seen[h] = child
                    known = None
                else:
                    if not isinstance(entry, dict):
                        entry = seen[h] = {evaluate_word(gens, entry): entry}
                    elem = evaluate_word(gens, child)
                    known = entry.get(elem)
                    if known is None:
                        entry[elem] = child
                yield child, known
                if known is None and depth < max_len - 1:
                    nxt.append((child, child_key))
        if not nxt:
            return
        layer = nxt

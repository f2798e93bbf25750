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

Every value that needs minimizing comes from that walk; sections and
inverses need only the renumbering above.  Sections, inverses and
products share that one renumbering (_renumbered), a product taking it
on the quotient rows of its walk.  A declared machine
(from_states) is the product of the identity with its tables: the pairs
(0, s) reachable from (0, initial) are exactly the declared states that
initial reaches, numbered breadth-first.

Composition is right to left throughout: (compose(g, h))(v) = g(h(v)).
"""

from __future__ import annotations

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


def vertex(v: VertexLike) -> tuple[int, ...]:
    """Coerce a vertex to a tuple of letters.

    Accepts int sequences and digit strings ("011" means the vertex 0,1,1).
    Alphabets with more than ten letters need the sequence form.  Negative
    letters are rejected here, letters past the alphabet by the action.
    """
    out = tuple(map(int, v))
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
        out = []
        for x in self.letters():
            if len(out) == n:
                break
            out.append(x)
        return tuple(out)

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

    def _with_initial(self, s: int) -> "Automorphism":
        """The section at state s, by renumbering alone (module docstring)."""
        if s == self.initial:
            return self
        return _renumbered(self.k, self.perms, self.trans, s)

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
        return _renumbered(self.k, perms, trans, self.initial)

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
    perms, cols, ids, [first] = _pair_quotient(g.perms, g.trans, hperms, htrans, [(g.initial, start)])
    # first-met block numbers give ids[i] <= i, with equality at the last
    # pair exactly when every block is a single pair
    if first == 1 and ids[-1] == len(ids) - 1:
        return Automorphism(k, tuple(perms), tuple(zip(*cols)), 1, _raw=True)
    return _renumbered(k, *_quotient_rows(perms, cols, ids), ids[first])


def _pair_quotient(gperms, gtrans, hperms, htrans, pairs) -> tuple[list, list, list, list]:
    """(perms, cols, ids, firsts): the pair machine of two machines' tables
    reachable from the start pairs, and its Moore refinement.

    Both machines share one alphabet and have the identity row as state 0.
    The pair (p, q) behaves as the product of the left state p with the
    right state q, stepping by

        (p, q) --x--> (p after q's image of x, q after x)

    and only pairs reachable from `pairs` are materialized, in one walk for
    all of them.  Pair states are numbered in the order they are met, the
    identity pair (0, 0) as 0 and the start pairs first, which is
    breadth-first from the first start when it is the only one; perms[i]
    is pair i's root permutation, cols[x][i] its successor below letter x
    and firsts[j] the number of pairs[j].  Refinement, seeded with the
    root permutations, runs once over the whole machine: ids[i] is pair
    i's block, numbered in the order blocks are first met, so block 0 is
    the identity.
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
    table: dict = {}
    ids = [table.setdefault(p, len(table)) for p in perms]
    while len(table) < n:
        table2: dict = {}
        sigs = zip(ids, *[[ids[t] for t in col] for col in cols])
        new = [table2.setdefault(sig, len(table2)) for sig in sigs]
        if len(table2) == len(table):
            break
        ids, table = new, table2
    return perms, cols, ids, firsts


def _right_machine(values) -> tuple[list, list, list]:
    """(perms, trans, starts): one machine holding every state of every
    value, states of equal value merged, so state 0 is the identity and
    starts[i] is the state of values[i].  States are numbered in the order
    the values and their states are met, whatever the hash order."""
    number: dict = {}
    perms, trans, starts = [], [], []
    for a in values:
        local = [number.setdefault(a._with_initial(s), len(number)) for s in range(a.state_count)]
        for s, u in enumerate(local):
            if u == len(perms):  # new states come in increasing order
                perms.append(a.perms[s])
                trans.append(tuple([local[t] for t in a.trans[s]]))
        starts.append(local[a.initial])
    return perms, trans, starts


def _renumbered(k: int, perms, trans, s: int) -> Automorphism:
    """The automorphism at state s of a minimal machine's tables, its
    states numbered breadth-first as in the module docstring, each row
    built as its state is reached; state 0 gives the identity."""
    if s == 0:
        return Automorphism.identity(k)
    number = {0: 0, s: 1}
    order = [s]
    new_perms, new_trans = [perms[0]], [trans[0]]
    for t in order:  # the list grows while it is walked
        row = []
        for u in trans[t]:
            v = number.get(u)
            if v is None:
                v = number[u] = len(number)
                order.append(u)
            row.append(v)
        new_perms.append(perms[t])
        new_trans.append(tuple(row))
    return Automorphism(k, tuple(new_perms), tuple(new_trans), 1, _raw=True)


def _quotient_rows(perms, cols, ids) -> tuple[list, list]:
    """The quotient's tables by the blocks `ids`, one row per block, from a
    pair in each; blocks are numbered as first met, so row b is block b."""
    reps = dict(zip(ids, range(len(ids)))).values()
    return [perms[r] for r in reps], [tuple([ids[col[r]] for col in cols]) for r in reps]


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
    yield (word, block, rows) for each word whose value is new.

    Words grow by one letter on the right, skipping the letter that cancels
    the last one, so each word yielded is the first, hence a shortest, word
    for its value.  Stops early at a length that adds nothing.  A layer is
    one _pair_quotient walk of the last layer's quotient with the letters,
    from each child's (prefix block, letter), at most len(letters) starts
    per element new in the last layer, and then one seed (b, 0) per element
    met so far, the identity first.  In one walk a block is a value, so a
    child whose block a seed or an earlier child holds is known, with no
    value read off and no value hashed.  rows are the layer's quotient
    rows, one per block, which are the next layer's left machine; a new
    element's value is _renumbered(k, *rows, block), read off only by a
    consumer that needs it.
    """
    k = letters[0][1].k
    hperms, htrans, hstarts = _right_machine([g for _, g in letters])
    # by a word's last letter (none for the empty word): its children's letter indices
    after = {(): range(len(letters))}
    for (name, sign), _ in letters:
        after[((name, sign),)] = [i for i, (letter, _) in enumerate(letters) if letter != (name, -sign)]
    rows = [tuple(range(k))], [(0,) * k]  # layer 0's quotient: the identity row
    met = [0]  # the block of every element met so far, in the order met
    layer = [((), 0)]  # (letters, block) of each new element of the last layer
    for _ in range(max_len):
        children = [(word, b, i) for word, b in layer for i in after[word[-1:]]]
        starts = [(b, hstarts[i]) for _, b, i in children] + [(b, 0) for b in met]
        perms, cols, ids, firsts = _pair_quotient(*rows, hperms, htrans, starts)
        rows = _quotient_rows(perms, cols, ids)
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
                yield Word._reduced(child), b, rows
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

"""Property tests of the canonical form, against oracles that do not use it.

Hypothesis draws small machines (two or three letters, at most six declared
states, among them unreachable states, behaviorally duplicate states and
non-zero states acting trivially) and puts them through from_states,
compose, inverse and section.  Every result is checked by walks over its
own tables and over the operands' tables, never by another canonical form.

The level-action kernel and the level graphs built on it are checked
against vertex-by-vertex loops over apply and state_at: on drawn machines,
and on every catalog family.  Orbits, Schreier graphs and relative
activity are checked on both of their paths, the level sweep and the
vertex-by-vertex walk.

Sections read off by renumbering alone (Automorphism._with_initial) must
equal the canonicalizing build of the same state, on drawn machines and on
catalog words; inverses, also renumbered alone, must be canonical there.

The product read off a pair walk from any state of a right machine
(core._product) must equal compose and be canonical.  The ball walk, one
pair walk per layer (core._reduced_words), must give the new elements of
a walk composing once per word, in its order, each value read off its
block, on the catalog and on drawn generators; every word it yields must
be freely reduced as built.
Sections, inverses, compose and the ball all end in one renumbering
(core._renumbered), so that comparison would miss a numbering fault
they share; every walked value and every section of one is therefore
also checked on its own: canonical by its tables alone, and acting on a
whole level as its word does, letter by letter through the generators'
apply.

The keyed word walk (core._distinct_words) must give the exact walk's
sequence word for word, as built and forced to settle many repeated keys
by value, and the two searches on it must give the reports frozen from
the exact walk.

One walk along a ray (Automorphism._ray) serves apply_boundary, stabilizes,
germ_is_trivial and the germ key; they are checked against applies and
sections on long prefixes of the ray and against the two-walk
germ_is_trivial.  Two elements fixing a ray must share a germ key exactly
when g h^-1 has trivial germ, and germ groups read off the keys must equal
those found by composing with every representative's inverse.  The ray
stabilizers read off the ball walk's blocks (nucleus._stabilizers) must
list exactly ball's elements that fix the ray, germ keys included, in
ball's order, with ball's closed flag and its budget stop.

Limit states found by peeling must be the states met at every large
depth, and the one state-graph analysis that the activity module shares
must give the classifications, direction sets and closure reports of the
earlier analyses, one graph pass per question, kept here as a reference.
"""

import itertools
from collections import deque
from contextlib import contextmanager
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treeauto import core, schreier
from treeauto.activity import (
    ActivityClass,
    BoundedClosureReport,
    DirectionSet,
    _cycle_order,
    _sccs,
    classify_activity,
    directions,
    is_bounded_closed_under_product,
    theta,
    theta_relative,
)
from treeauto.catalog import builtin, entry
from treeauto.core import (
    Automorphism,
    BoundaryPoint,
    BudgetExceeded,
    _distinct_words,
    _reduced_words,
    compose,
    identity,
    invert,
    level_action,
    symmetric_letters,
)
from treeauto.freeness import (
    RelationReport,
    TrichotomyEvidence,
    find_relations,
    free_subgroup_certificate,
)
from treeauto.nucleus import (
    GermGroupReport,
    _germ,
    _germ_group_in,
    _stabilizers,
    ball,
    germ_is_trivial,
    limit_states,
    stabilizes,
)
from treeauto.schreier import (
    ComponentSummary,
    FolnerReport,
    SchreierGraph,
    folner_candidate,
    gamma_prime_components,
    isoperimetric_profile,
    orbit,
    schreier_graph,
    symmetrize,
)
from treeauto.words import Word

PROPERTIES = settings(derandomize=True, max_examples=120, deadline=None, database=None)


@st.composite
def machines(draw, k: int) -> tuple:
    """A declaration (states, initial) for Automorphism.from_states."""
    names = ["s%d" % i for i in range(draw(st.integers(1, 4)))]
    extra = draw(st.sets(st.sampled_from(["dup", "triv"])))
    everyone = names + sorted(extra) + ["e"]
    targets = st.lists(st.sampled_from(everyone), min_size=k, max_size=k)
    states = {name: (draw(st.permutations(range(k))), draw(targets)) for name in names}
    if "dup" in extra:  # a second copy of a declared state
        states["dup"] = states[draw(st.sampled_from(names))]
    if "triv" in extra:  # a non-zero state acting trivially
        states["triv"] = (range(k), [draw(st.sampled_from(["triv", "e"])) for _ in range(k)])
    return states, draw(st.sampled_from(everyone))


@st.composite
def triples(draw):
    """Three machines on one alphabet, with the declaration of the first."""
    k = draw(st.sampled_from((2, 3)))
    decls = [draw(machines(k)) for _ in range(3)]
    return decls[0], tuple(Automorphism.from_states(k, *d) for d in decls)


def walk(states: dict, initial: str, v: tuple) -> tuple:
    """The image of v under a declared machine, read off the declaration."""
    out, s = [], initial
    for x in v:
        if s == "e":
            out.append(x)
        else:
            out.append(tuple(states[s][0])[x])
            s = states[s][1][x]
    return tuple(out)


def words(k: int, n: int):
    return list(itertools.product(range(k), repeat=n))


def agree(a: Automorphism, s: int, t: int, depth: int) -> bool:
    """Do states s and t of a act alike on every word of length <= depth?"""
    layer, seen = {(s, t)}, {(s, t)}
    for _ in range(depth):
        nxt = set()
        for p, q in layer:
            if a.perms[p] != a.perms[q]:
                return False
            for x in range(a.k):
                pair = (a.trans[p][x], a.trans[q][x])
                if pair not in seen:
                    seen.add(pair)
                    nxt.add(pair)
        layer = nxt
    return True


def assert_canonical(a: Automorphism):
    k, m = a.k, a.state_count
    assert a.perms[0] == tuple(range(k)) and a.trans[0] == (0,) * k
    # state 0 is the only trivial state and no two states act alike
    for s, t in itertools.combinations(range(m), 2):
        assert not agree(a, s, t, m), (s, t)
    if a.initial == 0:
        assert m == 1
        return
    # numbered by first discovery, breadth-first from initial == 1
    order, seen = [a.initial], {0, a.initial}
    for s in order:
        for t in a.trans[s]:
            if t not in seen:
                seen.add(t)
                order.append(t)
    assert a.initial == 1 and order == list(range(1, m))


@PROPERTIES
@given(triples())
def test_from_states_and_compose(drawn):
    (states, initial), (g, h, f) = drawn
    gh = compose(g, h)
    for a in (g, h, gh):
        assert_canonical(a)
    for v in words(g.k, 4):
        assert g.apply(v) == walk(states, initial, v)
        assert gh.apply(v) == g.apply(h.apply(v))
    left, right = compose(gh, f), compose(g, compose(h, f))
    assert (left.perms, left.trans, left.initial) == (right.perms, right.trans, right.initial)


@PROPERTIES
@given(triples())
def test_inverse(drawn):
    g = compose(*drawn[1][:2])
    inv = g.inverse()
    assert_canonical(inv)
    for v in words(g.k, 4):
        assert inv.apply(g.apply(v)) == v


def assert_sections_by_renumbering(g: Automorphism):
    """_with_initial against each section canonicalized from scratch: the
    product of the identity with g's tables started at the section's state."""
    for s in range(g.state_count):
        assert g._with_initial(s) == core._product(identity(g.k), g.perms, g.trans, s), s


@PROPERTIES
@given(triples())
def test_with_initial_on_drawn_machines(drawn):
    for g in drawn[1] + (compose(*drawn[1][:2]),):
        assert_sections_by_renumbering(g)


@pytest.mark.parametrize("family", sorted(builtin()))
def test_with_initial_on_catalog_words(family):
    letters = symmetric_letters(builtin()[family].generators)
    for _, value in walked(letters, 3):
        assert_sections_by_renumbering(value)
        assert_canonical(value.inverse())
        assert compose(value, value.inverse()).is_identity()


@PROPERTIES
@given(triples())
def test_section(drawn):
    g = compose(*drawn[1][:2])
    for n in (1, 2):
        for u in words(g.k, n):
            sec = g.section(u)
            assert_canonical(sec)
            for v in words(g.k, 3):
                assert sec.apply(v) == g.apply(u + v)[n:]


# -- products with the states of a right machine ---------------------------------


def tables(a: Automorphism) -> tuple:
    return a.perms, a.trans, a.initial


@PROPERTIES
@given(triples())
def test_products_equal_compose(drawn):
    g, h, f = drawn[1]
    hs = [identity(g.k), h, h, g, g.inverse(), f]
    perms, trans, starts = core._right_machine(hs)
    for left in (g, compose(g, h)):
        for x, start in zip(hs, starts):
            product = core._product(left, perms, trans, start)
            assert tables(product) == tables(compose(left, x))
            assert_canonical(product)
        # compose's case: the right factor's own tables
        assert tables(core._product(left, h.perms, h.trans, h.initial)) == tables(compose(left, h))


def walked(letters, max_len: int) -> list:
    """(word, value) of each new element of the ball walk, every value read
    off its block."""
    k = letters[0][1].k
    return [(word, core._renumbered(k, *rows, b)) for word, b, rows in _reduced_words(letters, max_len)]


def reference_reduced_words(letters, max_len: int) -> list:
    """(word, value's tables, known) of every reduced word, by a walk that
    composes once per word; known is the first word with the same value."""
    elements = {identity(letters[0][1].k): Word(())}
    layer, out = [(Word(()), identity(letters[0][1].k))], []
    for _ in range(max_len):
        nxt = []
        for word, elem in layer:
            for (name, sign), g in letters:
                if word.letters[-1:] == ((name, -sign),):
                    continue
                value = compose(elem, g)
                child = Word(word.letters + ((name, sign),))
                known = elements.get(value)
                out.append((child, tables(value), known))
                if known is None:
                    elements[value] = child
                    nxt.append((child, value))
        if not nxt:
            break
        layer = nxt
    return out


# repeated generators and a trivial one put repeated and zero starts in a batch
ADDING = entry("adding_machine").generators["a"]
PRODUCT_FAMILIES = {name: family.generators for name, family in builtin().items()}
PRODUCT_FAMILIES["repeated"] = {"a": ADDING, "b": ADDING, "e": identity(2)}


@pytest.mark.parametrize("family", sorted(PRODUCT_FAMILIES))
def test_reduced_words_against_compose_per_word(family):
    letters = symmetric_letters(PRODUCT_FAMILIES[family])
    got = [(word, tables(value)) for word, value in walked(letters, 4)]
    assert got == [(word, t) for word, t, known in reference_reduced_words(letters, 4) if known is None]


@PROPERTIES
@given(triples(), st.integers(1, 3))
def test_reduced_words_on_drawn_generators(drawn, n):
    letters = symmetric_letters(dict(zip("abc", drawn[1][:n])))
    got = [(word, tables(value)) for word, value in walked(letters, 3)]
    assert got == [(word, t) for word, t, known in reference_reduced_words(letters, 3) if known is None]
    assert_walked_values(letters, 3)


@pytest.mark.parametrize("family", sorted(PRODUCT_FAMILIES))
def test_walked_words_are_reduced_as_built(family):
    """Both word walks build a child from its prefix's letters unreduced;
    every word they yield must be the reduced word of its letters."""
    letters = symmetric_letters(PRODUCT_FAMILIES[family])
    yielded = [word for word, _, _ in _reduced_words(letters, 4)]
    yielded += [word for word, _ in _distinct_words(letters, 4)]
    for word in yielded:
        assert word == Word(list(word.letters)), word


def assert_walked_values(letters, max_len: int):
    """Every value of the ball walk, and every section of one, is canonical,
    and the value acts on a whole level (4 for two letters, 3 for three) as
    its word does, letter by letter through the generators' apply: an
    inverse letter maps each image back to its vertex.  Neither check
    compares with another value built by the same renumbering."""
    k = letters[0][1].k
    level = words(k, 4 if k == 2 else 3)
    act = {}
    for (name, sign), g in letters:
        if sign > 0:
            act[name, 1] = {v: g.apply(v) for v in level}
            act[name, -1] = {image: v for v, image in act[name, 1].items()}
    sections = set()
    for word, value in walked(letters, max_len):
        assert_canonical(value)
        sections.update(map(value._with_initial, range(value.state_count)))
        for v in level:
            image = v
            for letter in reversed(word.letters):  # the rightmost letter acts first
                image = act[letter][image]
            assert value.apply(v) == image, (word, v)
    for section in sections:
        assert_canonical(section)


@pytest.mark.parametrize("family", sorted(PRODUCT_FAMILIES))
def test_walked_values_act_as_their_words(family):
    assert_walked_values(symmetric_letters(PRODUCT_FAMILIES[family]), 4)


# -- level actions and level graphs --------------------------------------------


@st.composite
def pairs(draw):
    """Two generators on one alphabet."""
    k = draw(st.sampled_from((2, 3)))
    return {name: Automorphism.from_states(k, *draw(machines(k))) for name in ("a", "b")}


def encode(v: tuple, k: int) -> int:
    n = 0
    for x in v:
        n = n * k + x
    return n


@PROPERTIES
@given(triples())
def test_level_action(drawn):
    g = compose(*drawn[1][:2])
    for n in range(8):
        images, states = level_action(g, n)
        verts = words(g.k, n)
        assert images == [encode(g.apply(v), g.k) for v in verts]
        assert states == [g.state_at(v) for v in verts]


@pytest.mark.parametrize("k", (2, 3))
def test_level_action_of_the_identity(k):
    # the identity takes the general sweep, its state 0 swept at the root only
    for n in range(5):
        assert level_action(identity(k), n) == (list(range(k ** n)), [0] * k ** n)


def brute_orbit(gens, v) -> tuple:
    syms = list(symmetrize(gens).values())
    seen, queue = {v}, deque([v])
    while queue:
        u = queue.popleft()
        for g in syms:
            w = g.apply(u)
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return tuple(sorted(seen))


def brute_schreier(gens, v) -> SchreierGraph:
    verts = brute_orbit(gens, v)
    syms = symmetrize(gens)
    index = {u: i for i, u in enumerate(verts)}
    edges = tuple(
        (i, j, index[g.apply(u)], g.state_at(u) == 0)
        for i, u in enumerate(verts)
        for j, g in enumerate(syms.values())
    )
    return SchreierGraph(len(v), tuple(syms), verts, edges)


def brute_components(gens, level) -> tuple:
    """Components of the trivial-section edges, vertex by vertex."""
    syms = symmetrize(gens).values()
    verts = words(next(iter(syms)).k, level)
    comp = {u: {u} for u in verts}
    for u in verts:
        for g in syms:
            w = g.apply(u)
            if g.state_at(u) == 0 and comp[u] is not comp[w]:
                merged = comp[u] | comp[w]
                for x in merged:
                    comp[x] = merged
    firsts = {id(c): c for c in (comp[u] for u in verts)}
    return tuple(sorted(tuple(sorted(c)) for c in firsts.values()))


def brute_folner(gens, level) -> FolnerReport:
    syms = symmetrize(gens).values()
    k = next(iter(syms)).k
    comps = brute_components(gens, level)
    summaries = []
    for comp in comps:
        inside = set(comp)
        b = sum(
            1
            for u in comp
            for g in syms
            if g.apply(u) != u and (g.apply(u) not in inside or g.state_at(u) != 0)
        )
        summaries.append(ComponentSummary(len(comp), b, Fraction(b, len(comp)), comp[0]))
    order = sorted(
        range(len(comps)),
        key=lambda i: (summaries[i].ratio, -summaries[i].size, summaries[i].least_vertex),
    )
    best = summaries[order[0]]
    return FolnerReport(
        level=level,
        candidate=comps[order[0]],
        size=best.size,
        boundary=best.boundary,
        ratio=best.ratio,
        bound=Fraction(sum(theta(g, level) for g in syms), k ** level),
        components=tuple(summaries[i] for i in order),
    )


def assert_level_graphs(gens, levels):
    k = next(iter(gens.values())).k
    for n in levels:
        assert gamma_prime_components(gens, n) == brute_components(gens, n)
        assert folner_candidate(gens, n) == brute_folner(gens, n)
        for v in ((0,) * n, tuple(x % k for x in range(1, n + 1))):
            assert schreier_graph(gens, v) == brute_schreier(gens, v)


@pytest.mark.parametrize(
    "family, names",
    [
        pytest.param(family, names, id="-".join((family,) + names))
        for family in sorted(builtin())
        for names in [()] + [(name,) for name in builtin()[family].generators]
    ],
)
def test_level_graphs_on_the_catalog(family, names):
    # one-generator subsets split levels into many components (grigorchuk's
    # {b}: 5 at level 3), with fixed vertices carrying nontrivial sections
    gens = builtin()[family].generators
    assert_level_graphs({n: gens[n] for n in names or gens}, range(1, 7))


@pytest.mark.parametrize("family", sorted(builtin()))
def test_profile_is_the_candidate_of_each_level(family):
    # one recursion serves every level of a profile; each level on its own
    # must read the same report
    gens = builtin()[family].generators
    k = next(iter(gens.values())).k
    n = 8 if k == 2 else 6
    assert isoperimetric_profile(gens, n) == tuple(folner_candidate(gens, m) for m in range(1, n + 1))


def mixed_machine() -> dict:
    """m = (1 0)(a, e) over Aleshin's a, b, c, with b: m has a trivial section
    and states that never reach the identity, b has no trivial section.  No
    catalog generator has both, so only here does the level recursion carry
    B (the components of g(u)) for states that can never glue pieces."""
    table = {
        "a": ((1, 0), ("b", "c")),
        "b": ((1, 0), ("c", "b")),
        "c": ((0, 1), ("a", "a")),
        "m": ((1, 0), ("a", "e")),
    }
    return {name: Automorphism.from_states(2, table, name) for name in "mb"}


def test_level_graphs_on_a_mixed_machine():
    assert_level_graphs(mixed_machine(), range(1, 7))


@PROPERTIES
@given(pairs())
def test_level_graphs_on_drawn_pairs(gens):
    # a single generator splits levels into many components, with fixed
    # vertices carrying nontrivial sections
    assert_level_graphs(gens, range(1, 7))
    assert_level_graphs({"a": gens["a"]}, range(1, 7))


# -- orbits, swept and walked ---------------------------------------------------


def brute_theta_relative(gens, g, v) -> int:
    return sum(1 for u in brute_orbit(gens, v) if g.state_at(u) != 0)


def orbit_results(gens, g, ray, n, budget) -> tuple:
    v = ray.prefix(n)
    return (
        orbit(gens, v, budget),
        schreier_graph(gens, v, budget),
        theta_relative(gens, g, ray, n, budget),
    )


def no_level_sweep(g, n):
    raise AssertionError("level_action called on level %d" % n)


def assert_orbits_on_both_paths(gens, g, levels):
    k = g.k
    sweep = schreier.level_action
    swept = []
    for n in levels:
        for ray in (BoundaryPoint((), (0,)), BoundaryPoint((), tuple(range(1, k)) + (0,))):
            v = ray.prefix(n)
            verts = brute_orbit(gens, v)
            want = (verts, brute_schreier(gens, v), brute_theta_relative(gens, g, v))
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(schreier, "level_action", lambda h, m: swept.append(m) or sweep(h, m))
                # under the default budget and the least budget the level
                # fits, orbits are read off the level recursion; only the
                # graph of a whole level reads the level actions, one per label
                whole = [n] * len(symmetrize(gens)) if len(verts) == k ** n else []
                for budget in (10 ** 6, k ** n):
                    swept.clear()
                    assert orbit(gens, v, budget) == verts
                    assert theta_relative(gens, g, ray, n, budget) == want[2]
                    assert swept == []
                    assert schreier_graph(gens, v, budget) == want[1]
                    assert swept == whole
                patch.setattr(schreier, "level_action", no_level_sweep)
                # one vertex short of the level walks; the start vertex is never charged
                if len(verts) < k ** n or n == 0:
                    assert orbit_results(gens, g, ray, n, k ** n - 1) == want
                else:
                    with pytest.raises(BudgetExceeded):
                        orbit(gens, v, k ** n - 1)


@pytest.mark.parametrize("names", ("b", "bc", "abcd"))
def test_orbits_on_both_paths_on_grigorchuk(names):
    gens = entry("grigorchuk").generators
    for g in gens.values():
        assert_orbits_on_both_paths({x: gens[x] for x in names}, g, range(7))


def test_orbits_on_both_paths_on_a_mixed_machine():
    gens = mixed_machine()
    for g in gens.values():
        assert_orbits_on_both_paths(gens, g, range(7))


@st.composite
def orbit_cases(draw):
    """One or two generators and a machine g, on one alphabet."""
    k = draw(st.sampled_from((2, 3)))
    names = draw(st.sampled_from(("a", "ab")))
    gens = {name: Automorphism.from_states(k, *draw(machines(k))) for name in names}
    return gens, Automorphism.from_states(k, *draw(machines(k)))


@PROPERTIES
@given(orbit_cases())
def test_orbits_on_both_paths_on_drawn_machines(case):
    assert_orbits_on_both_paths(*case, range(7))


# -- the keyed word walk -------------------------------------------------------

WALK_VARIANTS = ("as_built", "low_levels", "small_layers", "no_level_fits")


@contextmanager
def keyed_walks(variant: str):
    """Run _distinct_words as built or forced to settle many repeated keys.

    low_levels keys on level 1 (_KEY_POINTS = 3 puts level 1 alone under
    the cap for the binary and ternary walks here), so distinct elements
    often share a key; small_layers keeps the level but folds the hash of
    every bytes key to one bit (Automorphism hashes stay whole), so each
    layer's words fall into two seen-map entries and unequal keys share an
    entry; no_level_fits leaves only level 0 under the cap (_KEY_POINTS =
    1), so every word repeats the empty word's key and the walk is exact.
    The walk must never call _reduced_words.
    Yields a one-item list counting the compose calls made through core.
    """
    compose = core.compose
    calls = [0]

    def counted_compose(g, h):
        calls[0] += 1
        return compose(g, h)

    def no_exact_walk(*args):
        raise AssertionError("the keyed walk called _reduced_words")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(core, "compose", counted_compose)
        patch.setattr(core, "_reduced_words", no_exact_walk)
        if variant == "low_levels":
            patch.setattr(core, "_KEY_POINTS", 3)
        if variant == "small_layers":
            fold = lambda obj: hash(obj) & 1 if isinstance(obj, bytes) else hash(obj)
            patch.setattr(core, "hash", fold, raising=False)
        if variant == "no_level_fits":
            patch.setattr(core, "_KEY_POINTS", 1)
        yield calls


def assert_words_valued(variant: str, calls: list):
    if variant != "as_built":
        assert calls[0] > 0, variant


# t -> 3 t on the 2-adic integers, least significant digit first, its states
# carrying 0, 1 and 2; with the adding machine t -> t + 1 it generates
# BS(1, 3), where y a y^-1 = a a a but y^-1 a y != a a a, so keys composed in
# the wrong order would miss that collision
TIMES_THREE = Automorphism.from_states(
    2, {"c0": ((0, 1), ("c0", "c1")), "c1": ((1, 0), ("c0", "c2")), "c2": ((0, 1), ("c1", "c2"))}, "c0"
)
WALK_FAMILIES = {name: family.generators for name, family in builtin().items()}
WALK_FAMILIES["bs_1_3"] = {"a": entry("adding_machine").generators["a"], "y": TIMES_THREE}


def exact_sequence(letters, max_len: int) -> list:
    return [(word, known) for word, _, known in reference_reduced_words(letters, max_len)]


@pytest.mark.parametrize("variant", WALK_VARIANTS)
@pytest.mark.parametrize("family", sorted(WALK_FAMILIES))
def test_distinct_words_on_the_catalog(family, variant):
    letters = symmetric_letters(WALK_FAMILIES[family])
    expected = [exact_sequence(letters, r) for r in range(4 if family == "gupta_sidki_3" else 5)]
    with keyed_walks(variant) as calls:
        for r, sequence in enumerate(expected):
            assert list(_distinct_words(letters, r)) == sequence, r
    assert_words_valued(variant, calls)


# a binary walk keys on level 8 whatever its radius; the 1,456 words of the
# Aleshin pair up to length 6 all act differently there
ALESHIN = entry("aleshin").generators
ALESHIN_PAIR = symmetric_letters({"U": ALESHIN["a"], "V": ALESHIN["b"]})


@pytest.fixture(scope="module")
def aleshin_pair_sequence():
    return exact_sequence(ALESHIN_PAIR, 6)


@pytest.mark.parametrize("variant", WALK_VARIANTS)
def test_distinct_words_start_under_the_cap(variant, aleshin_pair_sequence):
    with keyed_walks(variant) as calls:
        assert list(_distinct_words(ALESHIN_PAIR, 6)) == aleshin_pair_sequence
    if variant == "as_built":
        assert calls[0] == 0
    assert_words_valued(variant, calls)


@st.composite
def letter_sets(draw):
    """Symmetrized letters of one or two drawn generators on one alphabet,
    joined at times by an involution with a nontrivial section, by a trivial
    generator, or by both."""
    k = draw(st.sampled_from((2, 3)))
    gens = {
        name: Automorphism.from_states(k, *draw(machines(k)))
        for name in draw(st.sampled_from(("a", "ab")))
    }
    extra = draw(st.sets(st.sampled_from(("involution", "trivial"))))
    if "involution" in extra:  # t = (s, t, e, ...) with s swapping 0 and 1; t t = (s s, t t, ...) = e
        swap = (1, 0) + tuple(range(2, k))
        states = {"s": (swap, ["e"] * k), "t": (range(k), ["s", "t"] + ["e"] * (k - 2))}
        gens["t"] = Automorphism.from_states(k, states, "t")
    if "trivial" in extra:
        gens["z"] = identity(k)
    return symmetric_letters(gens)


@PROPERTIES
@given(letter_sets(), st.integers(0, 3))
def test_distinct_words_on_drawn_letter_sets(letters, max_len):
    expected = exact_sequence(letters, max_len)
    for variant in WALK_VARIANTS:
        with keyed_walks(variant):
            assert list(_distinct_words(letters, max_len)) == expected, variant


# reports and BudgetExceeded details of the two searches, frozen from the
# walk that composed once per word; a relation partial lists every relator
# up to the last even length the budget finished
FROZEN_RELATIONS = {
    ("bs_1_3", 6): ("a a a y a^-1 y^-1",),
    ("aleshin", 7): (),
    ("adding_machine", 10): (),
    ("tullio", 7): (),
    ("basilica", 7): (),
    ("gupta_sidki_3", 6): ("a a a", "t t t"),
}
FROZEN_RELATION_PARTIALS = {
    ("aleshin", 7, 500): (),
    ("basilica", 7, 113): (),
    ("basilica", 7, 114): (),
    ("gupta_sidki_3", 6, 5): (),
    ("gupta_sidki_3", 6, 20): (),
}
FROZEN_CERTIFICATES = {
    ("aleshin", "a", "b", 5): ("free_up_to", None),
    ("aleshin", "a b", "c", 3): ("free_up_to", None),
    ("tullio", "a", "a a", 4): ("relation_found", "U U V^-1"),
    ("tullio", "a", "b", 5): ("relation_found", "U^-1 U^-1 V U V^-1 U V^-1 U V U^-1"),
    ("basilica", "a", "b", 6): ("relation_found", "V U V^-1 U V U^-1 V^-1 U^-1"),
    ("gupta_sidki_3", "a", "t", 4): ("relation_found", "U U U"),
}
# (family, u, v, max_len, budget): checked_len of the partial evidence
FROZEN_CERTIFICATE_PARTIALS = {
    ("aleshin", "a", "b", 5, 5): 1,
    ("aleshin", "a", "b", 5, 20): 2,
    ("aleshin", "a", "b", 5, 100): 3,
    ("aleshin", "a", "b", 5, 300): 4,
    ("aleshin", "a", "c b^-1", 4, 100): 3,
    ("tullio", "a", "b", 5, 100): 3,
    ("basilica", "a", "b", 6, 100): 3,
}


def budget_stop(call, budget: int):
    with pytest.raises(BudgetExceeded) as info:
        call(budget=budget)
    assert (info.value.spent, info.value.limit) == (budget + 1, budget)
    return info.value.partial


@pytest.mark.parametrize("variant", WALK_VARIANTS)
def test_searches_give_the_frozen_reports(variant):
    with keyed_walks(variant) as calls:
        for (family, max_len), relators in FROZEN_RELATIONS.items():
            report = find_relations(WALK_FAMILIES[family], max_len)
            assert report == RelationReport(max_len, tuple(map(Word.parse, relators)), True)
        for (family, max_len, budget), relators in FROZEN_RELATION_PARTIALS.items():
            gens = WALK_FAMILIES[family]
            partial = budget_stop(lambda budget: find_relations(gens, max_len, budget), budget)
            assert partial == RelationReport(max_len, tuple(map(Word.parse, relators)), False)
        for (family, u, v, max_len), (status, relation) in FROZEN_CERTIFICATES.items():
            evidence = free_subgroup_certificate(WALK_FAMILIES[family], u, v, max_len)
            assert evidence == TrichotomyEvidence(status, (u, v), max_len, relation)
        for (family, u, v, max_len, budget), checked in FROZEN_CERTIFICATE_PARTIALS.items():
            gens = WALK_FAMILIES[family]
            partial = budget_stop(
                lambda budget: free_subgroup_certificate(gens, u, v, max_len, budget), budget
            )
            assert partial == TrichotomyEvidence("free_up_to", (u, v), checked)
    assert_words_valued(variant, calls)


# -- state graphs: limit states and activity -----------------------------------


def deep_sections(g: Automorphism) -> set:
    """The sections at the states of exact depth d, for d in [2m, 3m).

    With m states, a state met at depth m or more lies on or below a cycle,
    and a state on or below a cycle is met at some depth in any window of m
    consecutive depths from 2m on (stem and tail take under m steps each, a
    cycle at most m), so these are exactly the limit states.
    """
    m = g.state_count
    layer, deep = {g.initial}, set()
    for d in range(3 * m):
        if d >= 2 * m:
            deep |= layer
        layer = {t for s in layer for t in g.trans[s]}
    return {g._with_initial(s) for s in deep}


def reference_classify(g: Automorphism) -> ActivityClass:
    """classify_activity as it was before the shared analysis."""
    if g.is_identity():
        return ActivityClass("finitary", depth=0, witness={"depth_path": []})
    nodes = list(range(1, g.state_count))
    succ = {s: [t for t in g.trans[s] if t != 0] for s in nodes}
    comps = _sccs(nodes, succ)
    comp_of = {s: i for i, comp in enumerate(comps) for s in comp}
    internal = [0] * len(comps)
    for s in nodes:
        for t in succ[s]:
            if comp_of[t] == comp_of[s]:
                internal[comp_of[s]] += 1
    for i, comp in enumerate(comps):
        if internal[i] > len(comp):
            return ActivityClass(
                "exponential",
                witness={"branching_component": comp, "internal_edges": internal[i]},
            )
    is_cycle = [internal[i] > 0 for i in range(len(comps))]
    best = [0] * len(comps)
    best_succ = [None] * len(comps)
    for i, comp in enumerate(comps):
        for s in comp:
            for t in succ[s]:
                j = comp_of[t]
                if j != i and best[j] > (0 if best_succ[i] is None else best[best_succ[i]]):
                    best_succ[i] = j
        here = 1 if is_cycle[i] else 0
        best[i] = here + (best[best_succ[i]] if best_succ[i] is not None else 0)
    start = comp_of[g.initial]
    cycles_met = best[start]
    chain = []
    i = start
    while i is not None:
        if is_cycle[i]:
            chain.append(_cycle_order(comps[i], succ))
        i = best_succ[i]
    if cycles_met == 0:
        depth = {s: 0 for s in nodes}
        for comp in comps:
            (s,) = comp
            depth[s] = 1 + max((depth[t] for t in succ[s]), default=0)
        path = [g.initial]
        while succ[path[-1]]:
            path.append(max(succ[path[-1]], key=lambda t: depth[t]))
        return ActivityClass("finitary", depth=depth[g.initial], witness={"depth_path": path})
    if cycles_met == 1:
        return ActivityClass("bounded", witness={"cycles": chain, "chain": chain})
    return ActivityClass(
        "polynomial", degree=cycles_met - 1, witness={"cycles": chain, "chain": chain}
    )


def reference_directions(g: Automorphism) -> DirectionSet:
    """directions as it was before the shared analysis: a live-state
    fixpoint and a depth recursion of its own."""
    cls = reference_classify(g)
    if cls.kind not in ("finitary", "bounded"):
        raise ValueError("directions need a finitary or bounded automorphism, got %s" % cls.kind)
    if cls.kind == "finitary":
        return DirectionSet((), cls.depth)
    nodes = list(range(1, g.state_count))
    succ = {s: [t for t in g.trans[s] if t != 0] for s in nodes}
    comps = _sccs(nodes, succ)
    comp_of = {s: i for i, comp in enumerate(comps) for s in comp}
    live = set()
    for comp in comps:
        if any(comp_of[t] == comp_of[s] for s in comp for t in succ[s]):
            live.update(comp)
    changed = True
    while changed:
        changed = False
        for s in nodes:
            if s not in live and any(t in live for t in succ[s]):
                live.add(s)
                changed = True
    depth = {s: 0 for s in nodes if s not in live}
    for comp in comps:
        for s in comp:
            if s in depth:
                depth[s] = 1 + max((depth[t] for t in succ[s] if t in depth), default=0)
    points = set()

    def walk(s, path_states, letters):
        for x in range(g.k):
            t = g.trans[s][x]
            if t == 0 or t not in live:
                continue
            if t in path_states:
                i = path_states.index(t)
                points.add(BoundaryPoint(tuple(letters[:i]), tuple(letters[i:] + [x])))
            else:
                walk(t, path_states + [t], letters + [x])

    walk(g.initial, [g.initial], [])
    ordered = sorted(points, key=lambda w: (w.preperiod, w.period))
    return DirectionSet(tuple(ordered), max(depth.values(), default=0))


def reference_closure(g: Automorphism, h: Automorphism) -> BoundedClosureReport:
    """is_bounded_closed_under_product on the reference analyses."""
    kinds = (reference_classify(g).kind, reference_classify(h).kind)
    for kind in kinds:
        if kind not in ("finitary", "bounded"):
            raise ValueError("inputs must be finitary or bounded, got %s" % kind)
    bound = max(reference_directions(g).finitary_depth, reference_directions(h).finitary_depth)
    product, inverse = compose(g, h), g.inverse()
    pk, ik = reference_classify(product).kind, reference_classify(inverse).kind
    bounded = ("finitary", "bounded")
    pd = reference_directions(product).finitary_depth if pk in bounded else -1
    idp = reference_directions(inverse).finitary_depth if ik in bounded else -1
    ok = pk in bounded and ik in bounded and pd <= bound and idp <= bound
    return BoundedClosureReport(kinds, bound, pk, pd, ik, idp, ok)


def outcome(call, *args):
    """The value of call(*args), or the text of the ValueError it raises."""
    try:
        return call(*args)
    except ValueError as err:
        return ("ValueError", str(err))


def assert_state_graphs(g: Automorphism):
    assert limit_states(g) == deep_sections(g)
    assert classify_activity(g) == reference_classify(g)
    assert outcome(directions, g) == outcome(reference_directions, g)


@PROPERTIES
@given(triples())
def test_state_graphs_on_drawn_machines(drawn):
    g, h, f = drawn[1]
    for a in (g, h, f, compose(g, h)):
        assert_state_graphs(a)
    for a, b in ((g, h), (h, f)):
        assert outcome(is_bounded_closed_under_product, a, b) == outcome(reference_closure, a, b)


@pytest.mark.parametrize("family", sorted(builtin()))
def test_state_graphs_on_catalog_words(family):
    letters = symmetric_letters(builtin()[family].generators)
    values = [value for _, value in walked(letters, 3)]
    for value in values:
        assert_state_graphs(value)
    for a, b in zip(values, values[1:]):
        assert outcome(is_bounded_closed_under_product, a, b) == outcome(reference_closure, a, b)


# -- rays and germs --------------------------------------------------------------


def rays(k: int, max_pre: int, max_per: int) -> list:
    """Every ray with preperiod <= max_pre and period <= max_per letters, once."""
    out = []
    for lp, lq in itertools.product(range(max_pre + 1), range(1, max_per + 1)):
        for pre, per in itertools.product(words(k, lp), words(k, lq)):
            w = BoundaryPoint(pre, per)
            if w not in out:
                out.append(w)
    return out


def prefix_fixes(g: Automorphism, w: BoundaryPoint) -> bool:
    """Does g fix w, by one apply on a prefix?  g(w) has preperiod at most
    p + mL and period at most mL (m states, p and L the lengths of w's parts),
    so agreeing with w on p + (2m + 1)L letters means agreeing everywhere."""
    n = len(w.preperiod) + (2 * g.state_count + 1) * len(w.period)
    return g.apply(w.prefix(n)) == w.prefix(n)


def prefix_germ_is_trivial(g: Automorphism, w: BoundaryPoint) -> bool:
    """The section at the start of sweep m lies in the cycle of sweep starts,
    which holds the identity state exactly when it is that state alone."""
    return g.state_at(w.prefix(len(w.preperiod) + g.state_count * len(w.period))) == 0


def two_walk_germ_is_trivial(g: Automorphism, w: BoundaryPoint) -> bool:
    """germ_is_trivial as it was: a fixed-ray check, then a second walk."""
    if g.apply_boundary(w) != w:
        raise ValueError("germ is only defined at a fixed ray")
    s, seen = g._walk(w.preperiod)[1], set()
    while s not in seen:
        seen.add(s)
        for x in w.period:
            s = g.trans[s][x]
    return 0 in seen


def germ_key(g: Automorphism, w: BoundaryPoint) -> tuple:
    return tuple(map(g._with_initial, _germ(g, w)))


def assert_ray_walks(g: Automorphism, w: BoundaryPoint):
    image = g.apply_boundary(w)
    n = len(image.preperiod) + len(image.period) + len(w.preperiod)
    n += 2 * g.state_count * len(w.period)
    assert image.prefix(n) == g.apply(w.prefix(n))
    fixes = prefix_fixes(g, w)
    assert stabilizes(g, w) == fixes == (image == w)
    if fixes:
        trivial = prefix_germ_is_trivial(g, w)
        assert germ_is_trivial(g, w) == trivial == two_walk_germ_is_trivial(g, w)
        assert (germ_key(g, w) == (identity(g.k),)) == trivial
    else:
        assert _germ(g, w) is None
        with pytest.raises(ValueError):
            germ_is_trivial(g, w)


@pytest.mark.parametrize("family", sorted(builtin()))
def test_ray_walks_on_catalog_words(family):
    gens = builtin()[family].generators
    k = next(iter(gens.values())).k
    elements = ball(gens, 3 if k == 2 else 2)[0]
    for w in rays(k, 2, 3):
        for g in elements:
            assert_ray_walks(g, w)


@st.composite
def machines_and_rays(draw):
    """Three drawn machines and three rays on their alphabet."""
    _, gs = draw(triples())
    k = gs[0].k
    letters = st.integers(0, k - 1)
    ws = [
        BoundaryPoint(
            draw(st.lists(letters, max_size=3)), draw(st.lists(letters, min_size=1, max_size=3))
        )
        for _ in range(3)
    ]
    return gs, ws


@PROPERTIES
@given(machines_and_rays())
def test_ray_walks_on_drawn_machines(drawn):
    (g, h, f), ws = drawn
    for w in ws:
        for a in (g, h, f, compose(g, h), compose(h, compose(g, f))):
            assert_ray_walks(a, w)


def assert_germ_keys(elements, w: BoundaryPoint):
    """Two elements fixing w share a key exactly when g h^-1 has trivial germ."""
    stab = [g for g in elements if prefix_fixes(g, w)]
    for g, h in itertools.product(stab, repeat=2):
        same = two_walk_germ_is_trivial(compose(g, invert(h)), w)
        assert (germ_key(g, w) == germ_key(h, w)) == same, (g, h, w)


def reference_germ_group(elements, w: BoundaryPoint, max_order: int) -> GermGroupReport:
    """_germ_group_in as it was: each class by compose-and-test against every
    representative, and the table from a second round of products."""
    stab = [(word, g) for g, word in elements.items() if prefix_fixes(g, w)]
    stab.sort(key=lambda p: (len(p[0].letters), p[0].letters))
    reps, inverses = [], []

    def class_of(g):
        for i, r_inv in enumerate(inverses):
            if two_walk_germ_is_trivial(compose(g, r_inv), w):
                return i
        return None

    def add(word, g):
        reps.append((word, g))
        inverses.append(invert(g))

    add(Word(()), identity(next(iter(elements)).k))
    for word, g in stab:
        if class_of(g) is None:
            add(word, g)
    done, grew = set(), True
    while grew and len(reps) <= max_order:
        grew = False
        n = len(reps)
        for i, j in itertools.product(range(n), repeat=2):
            if (i, j) not in done:
                done.add((i, j))
                prod = compose(reps[i][1], reps[j][1])
                if class_of(prod) is None:
                    add(reps[i][0] * reps[j][0], prod)
                    grew = True
    complete = len(reps) <= max_order
    table = tuple(
        tuple(class_of(compose(ri, rj)) for _, rj in reps) for _, ri in reps
    ) if complete else ()
    return GermGroupReport(w, len(reps), tuple(str(x) for x, _ in reps), complete, table)


# radius 4 is the first at which grigorchuk's ball holds two elements with
# one germ whose section cycles (b, c, d at 1^inf) start at different phases;
# aleshin's germ closures build ever larger products, so only its keys are
# checked, on the ball
GERM_RADII = {"grigorchuk": 4, "gupta_sidki_3": 2}


@pytest.mark.parametrize("family", sorted(builtin()))
def test_germ_keys_on_catalog_balls(family):
    gens = builtin()[family].generators
    radius = GERM_RADII.get(family, 3)
    elements = ball(gens, radius)[0]
    points = rays(next(iter(gens.values())).k, 1, 2)
    for w, stab in zip(points, _stabilizers(gens, radius, 100000, points)[0]):
        assert_germ_keys(elements, w)
        for max_order in (4, 16) if family != "aleshin" else ():
            got = _germ_group_in(stab, w, max_order)
            assert got == reference_germ_group(elements, w, max_order)


@PROPERTIES
@given(pairs(), st.data())
def test_germ_keys_on_drawn_pairs(gens, data):
    k = gens["a"].k
    elements = ball(gens, 2)[0]
    points = data.draw(st.lists(st.sampled_from(rays(k, 1, 2)), min_size=1, max_size=3))
    for w, stab in zip(points, _stabilizers(gens, 2, 100000, points)[0]):
        assert stab == reference_stabilizer(elements, w)
        assert_germ_keys(elements, w)
        for max_order in (1, 4):
            got = _germ_group_in(stab, w, max_order)
            assert got == reference_germ_group(elements, w, max_order)


def reference_stabilizer(elements: dict, w: BoundaryPoint) -> list:
    """(word, element, germ key) of ball's elements fixing w, in ball's order."""
    return [(word, g, _germ(g, w)) for g, word in elements.items() if _germ(g, w) is not None]


# perfbench's rays; radius 4 for every family but the two free groups
STABILIZER_RADII = {"aleshin": 3, "tullio": 3}


@pytest.mark.parametrize("family", sorted(builtin()))
def test_stabilizers_against_the_ball(family):
    gens = builtin()[family].generators
    points = rays(next(iter(gens.values())).k, 1, 2)
    for radius in range(STABILIZER_RADII.get(family, 4) + 1):
        elements, closed = ball(gens, radius)
        stabs, stabs_closed = _stabilizers(gens, radius, 100000, points)
        assert stabs_closed == closed, radius
        for w, stab in zip(points, stabs):
            assert stab == reference_stabilizer(elements, w), (radius, w)


@pytest.mark.parametrize("family", ["grigorchuk", "basilica", "aleshin"])
def test_stabilizers_stop_where_the_ball_stops(family):
    """Past the budget the walk raises what ball raises, partial map included."""
    gens = builtin()[family].generators
    size = len(ball(gens, 3)[0])
    for budget in (1, 2, size // 2, size - 1):
        with pytest.raises(BudgetExceeded) as expected:
            ball(gens, 3, budget)
        with pytest.raises(BudgetExceeded) as got:
            _stabilizers(gens, 3, budget, [BoundaryPoint((), (1,))])
        assert str(got.value) == str(expected.value)
        for field in ("budget", "spent", "limit"):
            assert getattr(got.value, field) == getattr(expected.value, field)
        assert list(got.value.partial.items()) == list(expected.value.partial.items())
    assert _stabilizers(gens, 3, size, [])[1] == ball(gens, 3, size)[1]

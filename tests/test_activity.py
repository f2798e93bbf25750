import itertools
import random
from fractions import Fraction

import pytest

from treeauto import activity
from treeauto.activity import (
    classify_activity,
    directions,
    empirical_measure_sequence,
    is_bounded_closed_under_product,
    singular_measure,
    theta,
    theta_sequence,
)
from treeauto.catalog import entry
from treeauto.core import (
    Automorphism,
    BoundaryPoint,
    compose,
    evaluate_word,
    identity,
    section,
)


def brute_theta(g, n):
    """Count level-n vertices with nontrivial section by enumerating them."""
    count = 0
    for v in itertools.product(range(g.k), repeat=n):
        if not section(g, v).is_identity():
            count += 1
    return count


def mirror(k=2):
    """g = (g, ..., g) after reversing the alphabet; exponential, measure 1."""
    perm = tuple(reversed(range(k)))
    return Automorphism.from_states(k, {"g": (perm, ("g",) * k)}, "g")


def test_level_sequences_are_theta_at_every_level():
    for family in ("adding_machine", "tullio", "grigorchuk", "basilica", "gupta_sidki_3", "aleshin"):
        for g in entry(family).generators.values():
            seq = theta_sequence(g, 12)
            assert seq == [theta(g, i) for i in range(13)]
            assert empirical_measure_sequence(g, 12) == [
                Fraction(t, g.k ** i) for i, t in enumerate(seq)
            ]
    for call in (theta, theta_sequence, empirical_measure_sequence):
        with pytest.raises(ValueError, match="level must be nonnegative"):
            call(identity(2), -1)


def test_theta_against_brute_force():
    cases = []
    for name in ("adding_machine", "tullio", "grigorchuk", "basilica", "aleshin"):
        cases.extend(entry(name).generators.values())
    cases.append(mirror())
    for g in cases:
        for n in range(7):
            assert theta(g, n) == brute_theta(g, n)


def test_theta_frozen_sequences():
    tullio = entry("tullio").generators
    assert theta_sequence(tullio["a"], 6) == [1] * 7
    assert theta_sequence(tullio["b"], 6) == [1, 2, 3, 4, 5, 6, 7]
    gupta = entry("gupta_sidki_3").generators
    assert theta_sequence(gupta["t"], 5) == [1, 3, 3, 3, 3, 3]
    assert theta_sequence(mirror(), 4) == [1, 2, 4, 8, 16]
    assert theta(identity(2), 3) == 0


def test_theta_rejects_negative_level():
    with pytest.raises(ValueError):
        theta(entry("tullio").generators["a"], -1)


def test_level_sequences_reject_negative_levels():
    g = entry("tullio").generators["b"]
    for seq in (theta_sequence, empirical_measure_sequence):
        with pytest.raises(ValueError, match="level must be nonnegative"):
            seq(g, -1)
        assert len(seq(g, 0)) == 1


def test_classification_catalog():
    tullio = entry("tullio").generators
    a = classify_activity(tullio["a"])
    assert (a.kind, a.degree) == ("bounded", None)
    b = classify_activity(tullio["b"])
    assert (b.kind, b.degree) == ("polynomial", 1)

    grig = entry("grigorchuk").generators
    ga = classify_activity(grig["a"])
    assert (ga.kind, ga.depth) == ("finitary", 1)
    for name in "bcd":
        assert classify_activity(grig[name]).kind == "bounded"

    bas = entry("basilica").generators
    assert classify_activity(bas["a"]).kind == "bounded"
    assert classify_activity(bas["b"]).kind == "bounded"

    for g in entry("aleshin").generators.values():
        assert classify_activity(g).kind == "exponential"
    assert classify_activity(mirror()).kind == "exponential"

    assert classify_activity(identity(2)) == classify_activity(identity(2))
    assert classify_activity(identity(3)).depth == 0


def test_classification_witnesses_name_real_cycles():
    tullio = entry("tullio").generators
    b = classify_activity(tullio["b"])
    assert len(b.witness["cycles"]) == 2
    for cycle in b.witness["cycles"]:
        g = tullio["b"]
        for s in cycle:
            assert any(g.trans[s][x] in cycle for x in range(g.k))
    m = classify_activity(mirror())
    assert m.witness["internal_edges"] > len(m.witness["branching_component"])


def test_polynomial_degree_grows_with_towers():
    # stacking another independent cycle on top of b raises the degree
    tullio = entry("tullio").generators
    c = Automorphism.from_states(
        2,
        {
            "c": ((0, 1), ("c", "b")),
            "b": ((0, 1), ("b", "a")),
            "a": ((1, 0), ("e", "a")),
        },
        "c",
    )
    cls = classify_activity(c)
    assert (cls.kind, cls.degree) == ("polynomial", 2)
    # stay at the top cycle (1 path) or drop into b after i steps, which
    # contributes theta_b(n-1-i) = n-i paths: 1 + n(n+1)/2 in total
    assert theta(c, 12) == 1 + 12 * 13 // 2


def test_directions_adding_machine():
    gens = entry("adding_machine").generators
    d = directions(gens["a"])
    assert d.points == (BoundaryPoint((), (1,)),)
    assert d.finitary_depth == 0
    d2 = directions(compose(gens["a"], gens["a"]))
    assert d2.points == (
        BoundaryPoint((), (1,)),
        BoundaryPoint((0,), (1,)),
    )
    assert d2.finitary_depth == 0


def test_directions_grigorchuk():
    grig = entry("grigorchuk").generators
    for name in "bcd":
        d = directions(grig[name])
        assert d.points == (BoundaryPoint((), (1,)),)
        assert d.finitary_depth == 1
    da = directions(grig["a"])
    assert da.points == ()
    assert da.finitary_depth == 1


def test_directions_are_where_sections_stay_alive():
    for name, gen in (("basilica", "a"), ("basilica", "b"), ("grigorchuk", "c")):
        g = entry(name).generators[gen]
        d = directions(g)
        for p in d.points:
            for n in (3, 6, 11):
                assert not section(g, p.prefix(n)).is_identity()


def test_directions_of_a_cycle_longer_than_the_recursion_limit():
    # s_i = (s_{i+1}, e) with the root swap at s_0, and s_1199 back to s_0
    n = 1200
    states = {
        "s%d" % i: ((1, 0) if i == 0 else (0, 1), ("s%d" % ((i + 1) % n), "e"))
        for i in range(n)
    }
    g = Automorphism.from_states(2, states, "s0")
    assert g.state_count == n + 1
    assert classify_activity(g).kind == "bounded"
    d = directions(g)
    assert d.points == (BoundaryPoint((), (0,)),)
    assert d.finitary_depth == 0


def test_directions_reject_unbounded():
    with pytest.raises(ValueError):
        directions(entry("tullio").generators["b"])
    with pytest.raises(ValueError):
        directions(mirror())


def exact(value):
    """value, checked to be a Fraction: a ratio of ints would be a float,
    equal to Fraction(1, 2) and yet not exact."""
    assert type(value) is Fraction
    return value


def test_singular_measure_frozen():
    assert exact(singular_measure(identity(2))) == 0
    for name in ("adding_machine", "tullio", "grigorchuk", "basilica"):
        for g in entry(name).generators.values():
            assert exact(singular_measure(g)) == 0
    assert exact(singular_measure(mirror())) == 1
    for g in entry("aleshin").generators.values():
        assert exact(singular_measure(g)) == 1


def test_singular_measure_strictly_between():
    # m = (g, e) with a root swap, g the full mirror: below letter 0 the
    # sections never die, below letter 1 they die at once, so the dying
    # probability is exactly 1/2
    m = Automorphism.from_states(
        2,
        {"m": ((1, 0), ("g", "e")), "g": ((1, 0), ("g", "g"))},
        "m",
    )
    assert exact(singular_measure(m)) == Fraction(1, 2)
    assert [theta(m, i) for i in range(5)] == [1, 1, 2, 4, 8]


def solve_linear(A: list[list[Fraction]], b: list[Fraction]) -> list[Fraction]:
    """Gauss-Jordan elimination over Fraction, with a pivot search."""
    n = len(A)
    M = [row[:] + [b[i]] for i, row in enumerate(A)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if M[r][col] != 0)
        M[col], M[pivot] = M[pivot], M[col]
        inv = 1 / M[col][col]
        M[col] = [x * inv for x in M[col]]
        for r in range(n):
            if r != col and M[r][col]:
                f = M[r][col]
                M[r] = [x - f * y for x, y in zip(M[r], M[col])]
    return [M[r][n] for r in range(n)]


def oracle_measure(g) -> Fraction:
    """1 - the absorption probability into the identity, from the chain
    x_s = sum over letters of x_t / k (x_0 = 1, x_t = 0 where t never
    reaches the identity) solved over Fraction."""
    reach = {0}
    while True:  # the states that reach the identity, to a fixpoint
        more = {s for s in range(g.state_count) if reach & set(g.trans[s])} - reach
        if not more:
            break
        reach |= more
    if g.initial not in reach:
        return Fraction(1)
    R = sorted(reach - {0})
    if not R:
        return Fraction(0)
    A = [[Fraction(int(s == t)) for t in R] for s in R]
    b = [Fraction(0)] * len(R)
    for i, s in enumerate(R):
        for t in g.trans[s]:
            if t == 0:
                b[i] += Fraction(1, g.k)
            elif t in reach:
                A[i][R.index(t)] -= Fraction(1, g.k)
    return 1 - solve_linear(A, b)[R.index(g.initial)]


def drawn_machine(rng, k: int) -> Automorphism:
    """Up to 6 states that may reach the identity over up to 3 that never
    do, so that measures strictly between 0 and 1 are common."""
    names = ["s%d" % i for i in range(rng.randint(1, 6))]
    live = ["t%d" % i for i in range(rng.randint(0, 3))]
    targets = names + live + ["e"] * rng.randint(1, 2)
    table = {}
    for name in names + live:
        row = tuple(rng.choice(live if name in live else targets) for _ in range(k))
        table[name] = (tuple(rng.sample(range(k), k)), row)
    return Automorphism.from_states(k, table, names[0])


def test_singular_measure_against_the_fraction_solve_on_drawn_machines():
    rng = random.Random(11)
    strictly_between = 0
    for _ in range(300):
        k = rng.choice((2, 3, 4))
        g = drawn_machine(rng, k)
        for h in (g, compose(g, drawn_machine(rng, k))):
            want = oracle_measure(h)
            assert exact(singular_measure(h)) == want
            strictly_between += 0 < want < 1
    assert strictly_between > 100  # the draws reach past the 0 and 1 shortcuts


def test_singular_measure_against_the_fraction_solve_on_the_word_pool(workloads):
    # the words whose measures the contracting benchmark workload takes
    for family in workloads.ACTIVITY_DRAWS:
        for word in workloads.word_pool(family):
            g = evaluate_word(workloads.gens(family), word)
            assert exact(singular_measure(g)) == oracle_measure(g)


def test_empirical_measure_sequence():
    for name in ("adding_machine", "grigorchuk", "aleshin"):
        for g in entry(name).generators.values():
            seq = empirical_measure_sequence(g, 10)
            exact = singular_measure(g)
            for a, b in zip(seq, seq[1:]):
                assert b <= a
            assert seq[-1] >= exact
    m = mirror()
    assert empirical_measure_sequence(m, 5) == [Fraction(1)] * 6


def test_empirical_converges_for_random_words():
    rng = random.Random(7)
    gens = entry("grigorchuk").generators
    names = sorted(gens)
    for _ in range(20):
        word = " ".join(rng.choice(names) for _ in range(rng.randint(1, 5)))
        g = evaluate_word(gens, word)
        seq = empirical_measure_sequence(g, 12)
        exact = singular_measure(g)
        assert exact == 0  # bounded family: always measure zero
        for a, b in zip(seq, seq[1:]):
            assert b <= a


def test_bounded_closure_report():
    bas = entry("basilica").generators
    rep = is_bounded_closed_under_product(bas["a"], bas["b"])
    assert rep.ok
    assert rep.input_kinds == ("bounded", "bounded")
    assert rep.product_kind in ("finitary", "bounded")

    grig = entry("grigorchuk").generators
    rep2 = is_bounded_closed_under_product(grig["b"], grig["c"])
    assert rep2.ok
    assert rep2.product_kind in ("finitary", "bounded")
    assert rep2.product_depth <= rep2.depth_bound

    with pytest.raises(ValueError):
        is_bounded_closed_under_product(entry("tullio").generators["b"], bas["a"])


@pytest.fixture
def scc_calls(monkeypatch):
    """The list that every activity._sccs call appends to."""
    sccs = activity._sccs
    calls = []

    def counting_sccs(nodes, succ):
        calls.append(None)
        return sccs(nodes, succ)

    monkeypatch.setattr(activity, "_sccs", counting_sccs)
    return calls


def test_each_machine_is_analysed_once(scc_calls):
    bas = entry("basilica").generators
    directions(bas["a"])
    # classifying and then finding directions analysed it twice
    assert len(scc_calls) == 1
    del scc_calls[:]
    assert is_bounded_closed_under_product(bas["a"], bas["b"]).ok
    # one analysis each for g, h, g h and g^-1; twelve before
    assert len(scc_calls) == 4

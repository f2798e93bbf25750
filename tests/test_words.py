import random

from treeauto.words import Word, commutator


def W(text):
    return Word.parse(text)


def test_reduction_on_construction():
    assert W("a a^-1").is_identity()
    assert W("a b b^-1 a^-1").is_identity()
    assert W("a b b^-1 c").letters == (("a", 1), ("c", 1))
    assert len(W("a^3")) == 3


def test_parse_and_str_round_trip():
    for text in ["a", "a^-1", "a b^-1", "a a b^-1 b^-1 c"]:
        assert str(W(text)) == text or Word.parse(str(W(text))) == W(text)
    assert str(Word()) == "e"
    assert W("a^2 b^-2") == W("a a b^-1 b^-1")


def test_parse_rejects_garbage():
    for bad in ["a^x", "^2", "a^", "a^0", "a^0 b", "a^-0"]:
        try:
            Word.parse(bad)
        except ValueError:
            pass
        else:
            raise AssertionError("expected ValueError for %r" % bad)


def test_mul_inverse_pow():
    u = W("a b")
    assert u * u.inverse() == Word()
    assert ~u == W("b^-1 a^-1")
    assert u ** 3 == W("a b a b a b")
    assert u ** -2 == (~u) * (~u)
    assert u ** 0 == Word()


def test_cyclic_reduction():
    conj, core = W("a b c b^-1 a^-1").cyclic_reduction()
    assert conj == W("a b")
    assert core == W("c")
    assert W("a b").cyclic_reduction() == (Word(), W("a b"))
    assert W("a b a").is_cyclically_reduced()
    assert not W("a b a^-1").is_cyclically_reduced()


def test_primitive_root_basic():
    root, n = W("a^6").primitive_root()
    assert (root, n) == (W("a"), 6)
    root, n = W("a b a b").primitive_root()
    assert (root, n) == (W("a b"), 2)
    root, n = W("a b").primitive_root()
    assert (root, n) == (W("a b"), 1)
    # conjugated powers keep the conjugator in the root
    root, n = W("c a a c^-1").primitive_root()
    assert (root, n) == (W("c a c^-1"), 2)
    assert root ** n == W("c a a c^-1")


def test_primitive_root_of_identity_rejected():
    try:
        Word().primitive_root()
    except ValueError:
        pass
    else:
        raise AssertionError("expected ValueError")


def test_commutator():
    assert commutator(W("a"), W("b")) == W("a b a^-1 b^-1")
    assert commutator(W("a"), W("a^3")).is_identity()


def random_word(rng, names, max_len):
    letters = []
    for _ in range(rng.randint(1, max_len)):
        letters.append((rng.choice(names), rng.choice((1, -1))))
    return Word(letters)


def test_commuting_iff_shared_root():
    # free-group fact: two nontrivial words commute exactly when they are
    # powers of one primitive word; used as the oracle for root extraction
    rng = random.Random(11)
    names = ["x", "y", "z"]
    checked = 0
    while checked < 300:
        if rng.random() < 0.5:
            z = random_word(rng, names, 4)
            if z.is_identity():
                continue
            u, v = z ** rng.randint(1, 3), z ** rng.randint(1, 3)
        else:
            u, v = random_word(rng, names, 6), random_word(rng, names, 6)
            if u.is_identity() or v.is_identity():
                continue
        checked += 1
        ru, nu = u.primitive_root()
        rv, nv = v.primitive_root()
        shares = ru == rv or ru == rv.inverse()
        assert shares == commutator(u, v).is_identity()
        assert ru ** nu == u and rv ** nv == v

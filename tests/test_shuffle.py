"""The weighted shuffle product on tensor words.

The dynamic-programming product is the implementation under test; the
enumeration oracle builds every interleaving-with-merges directly from
subset choices, so the two routes are independent.  Powers are checked
against repeated binary products.  Small hand-worked products are frozen
on top of the cross-checks.
"""

import itertools
import math
import random
from fractions import Fraction

import pytest

from mixshuffle import (
    FiniteTableSemigroup,
    FreeAbelian,
    OrderedSet,
    ProductSemigroup,
    RBElement,
    Ring,
    TensorPoly,
    Unitarized,
    Word,
    empty_word,
    enumerate_words,
    eettl_representative,
    graded_basis,
    length_rescale,
    min_semilattice,
    semigroup_from_preset,
    shuffle_oracle,
    with_weight,
    word_poly,
)


def poly_of(ring, lam, semigroup, names, coeff=1):
    letters = tuple(semigroup.parse(n) for n in names)
    return TensorPoly.from_word(ring, lam, semigroup, Word(letters), coeff)


def assert_no_zero_terms(poly):
    assert not any(poly.ring.is_zero(c) for c in poly.terms.values()), poly


# hand-worked products


def test_weight_zero_is_plain_shuffle():
    Q = Ring.rationals()
    f = FreeAbelian(["x"])
    x = poly_of(Q, 0, f, ["x"])
    sq = x * x
    assert sq.terms == {Word((f.parse("x"), f.parse("x"))): Q.of(2)}


def test_weighted_square_merges():
    # x shuffled with x: two interleavings plus one merged slot
    Q = Ring.rationals()
    f = FreeAbelian(["x"])
    lam = Fraction(7, 2)
    x = poly_of(Q, lam, f, ["x"])
    sq = x * x
    xx = Word((f.parse("x"), f.parse("x")))
    merged = Word((f.parse("x") ** 2,))
    assert sq.terms == {xx: Q.of(2), merged: Q.of(lam)}


def test_two_letter_quasi_shuffle():
    Q = Ring.rationals()
    f = FreeAbelian(["x", "y"])
    a = poly_of(Q, 1, f, ["x"])
    b = poly_of(Q, 1, f, ["y"])
    prod = a * b
    x, y = f.parse("x"), f.parse("y")
    assert prod.terms == {Word((x, y)): Q.of(1), Word((y, x)): Q.of(1),
                          Word((x * y,)): Q.of(1)}


def test_divided_power_identity():
    # x^m shuffled with x^n at weight 0 is the binomial times x^(m+n)
    Z = Ring.integers()
    f = FreeAbelian(["x"])
    x = f.parse("x")
    for m in range(1, 5):
        for n in range(1, 5):
            u = TensorPoly.from_word(Z, 0, f, Word((x,) * m))
            v = TensorPoly.from_word(Z, 0, f, Word((x,) * n))
            prod = u * v
            assert prod.terms == {Word((x,) * (m + n)): math.comb(m + n, m)}


def test_unit_and_zero():
    Q = Ring.rationals()
    f = FreeAbelian(["x"])
    x = poly_of(Q, 1, f, ["x", "x"])
    one = TensorPoly.unit(Q, 1, f)
    zero = TensorPoly.zero(Q, 1, f)
    assert one * x == x
    assert x * one == x
    assert zero * x == zero
    assert x + zero == x
    assert (x - x).is_zero()


# recursion against the enumeration oracle


def test_recursion_matches_oracle_one_generator():
    Q = Ring.rationals()
    f = FreeAbelian(["x"])
    for lam in (0, 1, Fraction(5, 3)):
        words = [w for w in enumerate_words(f, 4) if w.length <= 3]
        for u, v in itertools.product(words, repeat=2):
            if u.length + v.length > 5:
                continue
            a = TensorPoly.from_word(Q, lam, f, u)
            b = TensorPoly.from_word(Q, lam, f, v)
            prod = a * b
            assert prod == shuffle_oracle(a, b), (u, v, lam)
            assert_no_zero_terms(prod)


def test_recursion_matches_oracle_two_generators():
    F3 = Ring.prime_field(3)
    f = FreeAbelian(["x", "y"])
    words = [w for w in enumerate_words(f, 3) if w.length <= 2]
    for lam in (0, 2):
        for u, v in itertools.product(words, repeat=2):
            a = TensorPoly.from_word(F3, lam, f, u)
            b = TensorPoly.from_word(F3, lam, f, v)
            prod = a * b
            assert prod == shuffle_oracle(a, b), (u, v, lam)
            assert_no_zero_terms(prod)
    # every kind of alphabet, over Z and Z/3^4: merges that hit the
    # identity, idempotents, a finite group and a lexicographic product
    alphabets = [
        (semigroup_from_preset("mu:3,1"), (0, 1, 2)),
        (min_semilattice(["a", "b", "c"]), (0, 1, 3)),
        (FiniteTableSemigroup([[1, 0], [0, 1]], order=[1, 0],
                              names=["g", "e"]), (0, -1)),
        (Unitarized(FreeAbelian(["x"])), (0, 1, 3)),
        (ProductSemigroup(semigroup_from_preset("mu:2,1"),
                          FreeAbelian(["z"])), (0, 1)),
        (OrderedSet(["a", "b"]), (0,)),
    ]
    for R in (Ring.integers(), Ring.truncated_padic(3, 4)):
        for sg, lams in alphabets:
            words = enumerate_words(sg, 2, 2)
            for lam in lams:
                for u, v in itertools.product(words, repeat=2):
                    a = TensorPoly.from_word(R, lam, sg, u, 3)
                    b = TensorPoly.from_word(R, lam, sg, v, -1)
                    b = b + TensorPoly.from_word(R, lam, sg, u, 9)
                    prod = a * b
                    assert prod == shuffle_oracle(a, b), (sg, R, lam, u, v)
                    assert_no_zero_terms(prod)


def test_product_commutes_and_associates():
    Q = Ring.rationals()
    f = FreeAbelian(["x", "y"])
    lam = Fraction(-2)
    a = poly_of(Q, lam, f, ["x"]) + poly_of(Q, lam, f, ["y", "x"], 3)
    b = poly_of(Q, lam, f, ["y"]) - poly_of(Q, lam, f, ["x", "x"], 2)
    c = poly_of(Q, lam, f, ["x", "y"])
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


def test_shared_memo_is_tied_to_ring_weight_and_alphabet():
    f = FreeAbelian(["x", "y"])
    Q, F3 = Ring.rationals(), Ring.prime_field(3)
    memo = {}
    a = poly_of(Q, 1, f, ["x"])
    b = poly_of(Q, 1, f, ["x", "y", "x"])
    assert a.mul_shared(b, memo) == a * b
    assert a.mul_shared(b, memo) == a * b
    # the same words over another ring and weight must not read the memo
    a3 = poly_of(F3, 2, f, ["x"])
    b3 = poly_of(F3, 2, f, ["x", "y", "x"])
    x, y = f.parse("x"), f.parse("y")
    assert (a3 * b3).coefficient(Word((x ** 2, y, x))) == 2
    with pytest.raises(ValueError):
        a3.mul_shared(b3, memo)
    with pytest.raises(ValueError):
        poly_of(Q, 2, f, ["x"]).mul_shared(poly_of(Q, 2, f, ["y"]), memo)
    g = FreeAbelian(["x", "z"])
    with pytest.raises(ValueError):
        poly_of(Q, 1, g, ["x"]).mul_shared(poly_of(Q, 1, g, ["z"]), memo)
    # an equal ring and alphabet built afresh may share it
    again = FreeAbelian(["x", "y"])
    c = poly_of(Ring.rationals(), 1, again, ["x"])
    d = poly_of(Ring.rationals(), 1, again, ["x", "y", "x"])
    assert c.mul_shared(d, memo) == a * b


def test_keys_from_another_alphabet_are_rejected():
    Q = Ring.rationals()
    f = semigroup_from_preset("free:x,y")
    abc = FreeAbelian(["a", "b", "c"])
    ab = Word((abc.parse("a"), abc.parse("b")))
    # its codes would be read as letters of x,y
    with pytest.raises(ValueError):
        TensorPoly(Q, 0, f, {ab: 1})
    with pytest.raises(ValueError):
        TensorPoly.from_word(Q, 0, f, ab, 0)
    # the empty word is over every alphabet, and an equal alphabet built
    # afresh is the same alphabet
    assert TensorPoly(Q, 0, f, {Word(()): 1}) == TensorPoly.unit(Q, 0, f)
    again = FreeAbelian(["x", "y"])
    yx = Word((again.parse("y"), again.parse("x")))
    assert (TensorPoly(Q, 0, f, {yx: 1}) * TensorPoly.unit(Q, 0, f)).terms \
        == {yx: 1}


def test_terms_view_is_read_only_and_equal_across_reads():
    Q = Ring.rationals()
    f = FreeAbelian(["x", "y"])
    prod = poly_of(Q, 1, f, ["x"]) * poly_of(Q, 1, f, ["y"])
    view = prod.terms
    assert prod.terms == view
    assert view[Word((f.parse("x*y"),))] == 1
    with pytest.raises(TypeError):
        view[Word(())] = 1


def test_ordered_set_merges():
    # zero-multiplication alphabet: fine at weight 0, refuses otherwise
    Q = Ring.rationals()
    o = OrderedSet(["a", "b"])
    a0 = poly_of(Q, 0, o, ["a"])
    prod = a0 * a0
    assert prod.terms == {Word((o.parse("a"), o.parse("a"))): Q.of(2)}
    a1 = poly_of(Q, 1, o, ["a"])
    with pytest.raises(ValueError):
        a1 * a1


# structure of the polynomial type


def test_leading_term_is_pro_length_max():
    Q = Ring.rationals()
    f = FreeAbelian(["x"])
    x = f.parse("x")
    poly = (TensorPoly.from_word(Q, 0, f, Word((x ** 3,)), 5)
            + TensorPoly.from_word(Q, 0, f, Word((x, x)), 2))
    # length beats degree in the pro-length order
    word, coeff = poly.leading_term()
    assert word == Word((x, x))
    assert coeff == 2
    assert poly.max_degree() == 3


def test_support_sorted_and_coefficient():
    Q = Ring.rationals()
    f = FreeAbelian(["x"])
    x = f.parse("x")
    poly = (TensorPoly.from_word(Q, 0, f, Word((x, x)))
            + TensorPoly.from_word(Q, 0, f, Word((x ** 2,)), 4))
    sup = poly.support()
    assert [w.pro_length_key for w in sup] == sorted(
        w.pro_length_key for w in sup)
    assert poly.coefficient(Word((x ** 2,))) == 4
    assert poly.coefficient(Word((x ** 3,))) == 0


@pytest.mark.parametrize("ring", [Ring.rationals(), Ring.prime_field(3),
                                  Ring.integers()], ids=repr)
def test_coefficient_reads_the_terms_view(ring):
    rng = random.Random("coefficient %r" % ring)
    f = FreeAbelian(["x", "y"])
    words = [empty_word()] + enumerate_words(f, 3, 3)
    other = FreeAbelian(["x", "y", "z"])
    x, y = f.parse("x"), f.parse("y")
    dens = {"Q": (1, 2, 5), "Fp": (1, 2), "Z": (1,)}[ring.kind]
    for _ in range(6):
        terms = {w: ring.of(Fraction(rng.randint(-9, 9), rng.choice(dens)))
                 for w in rng.sample(words, 6)}
        poly = TensorPoly(ring, 1, f, terms)
        view = poly.terms
        for w in words:
            got = poly.coefficient(w)
            assert got == view.get(w, ring.zero), w
            assert type(got) is type(ring.zero), w
        # a word over another alphabet is not a term, even with the same
        # codes; the empty word is the same over every alphabet
        for w in enumerate_words(other, 2, 2):
            assert poly.coefficient(w) == ring.zero
        assert poly.coefficient(Word((other.parse("x"),))) == 0
        assert poly.coefficient(Word(())) == view.get(empty_word(),
                                                      ring.zero)
    assert TensorPoly.unit(ring, 1, f).coefficient(empty_word()) == ring.one
    assert TensorPoly.unit(ring, 1, f).coefficient(Word((x, y))) == 0


def test_scale_and_mixed_ring_guard():
    Q = Ring.rationals()
    f = FreeAbelian(["x"])
    x = poly_of(Q, 1, f, ["x"])
    assert x.scale(0).is_zero()
    assert x.scale(Fraction(1, 2)).coefficient(Word((f.parse("x"),))) == Fraction(1, 2)
    other = poly_of(Q, 0, f, ["x"])
    with pytest.raises(ValueError):
        x * other  # weights differ


def test_shuffle_power_matches_iterated_product():
    Q = Ring.rationals()
    f = FreeAbelian(["x", "y"])
    base = poly_of(Q, 1, f, ["x"]) + poly_of(Q, 1, f, ["y"], 2)
    assert base.shuffle_power(0) == TensorPoly.unit(Q, 1, f)
    assert base.shuffle_power(1) == base
    assert base.shuffle_power(2) == base * base
    assert base.shuffle_power(3) == base * base * base
    # p-th powers mod p and mod p^4: the multinomials of the mixed terms
    # vanish mod p, the ones of pure powers do not
    for p in (2, 3, 5):
        for R in (Ring.prime_field(p), Ring.truncated_padic(p, 4)):
            for lam in (0, 1, 2):
                polys = [poly_of(R, lam, f, ["x"])
                         + poly_of(R, lam, f, ["y"], 2),
                         poly_of(R, lam, f, ["x"], 3)
                         + poly_of(R, lam, f, ["x^2"])
                         - poly_of(R, lam, f, ["y"])]
                if p < 5:
                    polys.append(poly_of(R, lam, f, ["x", "y"])
                                 + poly_of(R, lam, f, ["y"], p + 1))
                for base in polys:
                    power = base.shuffle_power(p)
                    iterated = base
                    for _ in range(p - 1):
                        iterated = iterated * base
                    assert power == iterated, (R, lam, base)
                    assert_no_zero_terms(power)


def test_shuffle_power_weight_zero_single_letter():
    Z = Ring.integers()
    f = FreeAbelian(["x"])
    x = poly_of(Z, 0, f, ["x"])
    cube = x.shuffle_power(3)
    assert cube.terms == {Word((f.parse("x"),) * 3): 6}


# alphabets where a head's powers wrap (mu), with an identity letter, and
# with no products (weight zero only)
POWER_ALPHABETS = (("mu:3,1", semigroup_from_preset("mu:3,1")),
                   ("mu:2,2", semigroup_from_preset("mu:2,2")),
                   ("1,x", Unitarized(FreeAbelian(["x"]))),
                   ("set:x,y", semigroup_from_preset("set:x,y")))
POWER_RINGS = (Ring.rationals(), Ring.integers(), Ring.prime_field(2),
               Ring.prime_field(3), Ring.truncated_padic(2, 3),
               Ring.truncated_padic(3, 2))


def test_shuffle_powers_match_repeated_products_on_every_alphabet():
    # each polynomial holds the empty word and two distinct words with one
    # suffix, a(x)b and b(x)b, which the walk's states take as equal
    # factors once their heads are gone
    cases = 0
    for name, sg in POWER_ALPHABETS:
        letters = [w.letters[0] for w in enumerate_words(sg, 2, 1)]
        for ring in POWER_RINGS:
            weights = [0, 1, -1, 2] + [Fraction(1, 2)] * (ring.kind == "Q")
            if name.startswith("set"):
                weights = [0]
            for lam in weights:
                rng = random.Random("power/%s/%r/%s" % (name, ring, lam))
                a, b = rng.sample(letters, 2)
                words = [empty_word(), Word((a, b)), Word((b, b)),
                         Word((rng.choice(letters),))]
                poly = TensorPoly(ring, lam, sg, {
                    w: rng.choice((1, -1, 2, 3)) for w in words})
                square = poly * poly
                assert poly.shuffle_power(2) == square, (name, ring, lam)
                assert poly.shuffle_power(3) == square * poly, \
                    (name, ring, lam)
                cases += 1
    assert cases == 3 * (6 * 4 + 1) + 6


def test_shuffle_power_of_many_terms_keeps_its_own_stack():
    # an enumeration of the terms' multisets that recursed once per term
    # raised RecursionError past about 1,000 terms
    Z = Ring.integers()
    f = FreeAbelian(["x", "y"])
    rng = random.Random(1200)
    words = enumerate_words(f, 6)
    poly = TensorPoly(Z, 1, f, {w: rng.choice((1, -1, 2)) for w in
                                rng.sample(words, 1200)})
    assert poly.shuffle_power(1) == poly
    poly = TensorPoly(Z, 1, f, {w: rng.choice((1, -1, 2)) for w in
                                words[:60]})
    assert poly.shuffle_power(2) == poly * poly


def test_negative_shuffle_power_is_refused():
    Q = Ring.rationals()
    f = FreeAbelian(["x"])
    x = poly_of(Q, 1, f, ["x"]) + poly_of(Q, 1, f, ["x^2"])
    with pytest.raises(ValueError, match="negative"):
        x.shuffle_power(-1)


def assert_canonical(x):
    """x equals, by ==, terms and JSON, the element built afresh from its
    Fraction terms, and keeps no factor common to den and every
    numerator."""
    direct = type(x)(x.ring, x.lam, x.semigroup, dict(x.terms))
    assert x == direct, x
    assert x.terms == direct.terms
    assert x.to_json() == direct.to_json()
    assert x.den >= 1
    assert math.gcd(x.den, *x.code_terms.values()) == 1, (x.den, x)


def test_q_elements_stay_canonical():
    rng = random.Random(20)
    Q = Ring.rationals()
    lam = Fraction(5, 3)
    f = FreeAbelian(["x", "y"])
    words = enumerate_words(f, 3, 3)
    m = Unitarized(FreeAbelian(["x"]))
    rb_keys = [(h, t) for h in m.elements_up_to(1)
               for t in enumerate_words(m, 2, 2)]

    def coefficient():
        return Fraction(rng.choice((-4, -1, 1, 2, 3, 5)),
                        rng.choice((1, 2, 3, 6, 9)))

    def draw(kind, semigroup, keys):
        return kind(Q, lam, semigroup,
                    {k: coefficient() for k in rng.sample(keys, 3)})

    reached = []
    for _ in range(12):
        a, b = draw(TensorPoly, f, words), draw(TensorPoly, f, words)
        c = coefficient()
        sixth = a.scale(Fraction(1, 6))
        for x, want in (
                (sixth + sixth.scale(5), a),
                ((a + b) - b, a),
                (a.scale(c).scale(1 / c), a),
                (length_rescale(length_rescale(a, c), 1 / c), a),
                (a * b, shuffle_oracle(a, b)),
                (a.shuffle_power(2), a * a),
                (with_weight(with_weight(a, 2), lam), a)):
            assert x == want
            reached.append(x)
        r, s = draw(RBElement, m, rb_keys), draw(RBElement, m, rb_keys)
        reached += [r.operator_p(), r * s, r.operator_p() * s.scale(c)]
    for x in reached:
        assert_canonical(x)
    assert any(x.den > 1 for x in reached)


def test_length_rescale_and_weight_transport():
    # rescaling letters by c turns the weight-lambda product into the
    # weight-c*lambda product
    Q = Ring.rationals()
    f = FreeAbelian(["x"])
    c = Fraction(3)
    lam = Fraction(2)
    u = poly_of(Q, c * lam, f, ["x"])
    v = poly_of(Q, c * lam, f, ["x", "x"])
    # rescale(u *_{c lam} v) == rescale(u) *_lam rescale(v): each merge
    # trades one length unit against one weight factor
    left = length_rescale(u * v, c)
    right = (with_weight(length_rescale(u, c), lam)
             * with_weight(length_rescale(v, c), lam))
    assert with_weight(left, lam) == right


def test_graded_basis_dimensions():
    f = FreeAbelian(["x"])
    dims = [len(graded_basis(f, d)) for d in range(7)]
    assert dims == [1, 1, 2, 4, 8, 16, 32]
    f2 = FreeAbelian(["x", "y"])
    dims = [len(graded_basis(f2, d)) for d in range(5)]
    assert dims == [1, 2, 7, 24, 82]
    assert graded_basis(f, 0) == (empty_word(),)


def test_eettl_representative():
    F2 = Ring.prime_field(2)
    f = FreeAbelian(["x"])
    x = f.parse("x")
    w = Word((x,))
    rep = eettl_representative(F2, 1, f, w, 2)
    assert rep.terms == {w: F2.one, Word((x ** 2,)): F2.of(-1)}
    with pytest.raises(ValueError):
        # x^2(x)x falls into two Lyndon factors
        eettl_representative(F2, 1, f, Word((x ** 2, x)), 2)
    with pytest.raises(ValueError):
        # multiplicity 3 is not a power of 2
        eettl_representative(F2, 1, f, Word((x, x, x)), 2)


def test_word_poly_and_render():
    Q = Ring.rationals()
    f = FreeAbelian(["x"])
    x = f.parse("x")
    poly = word_poly(Q, 0, f, (x, x), 2) + word_poly(Q, 0, f, (x ** 2,))
    assert poly.render(ascii_mode=True) == "2*x(x)x + x^2"
    assert poly.render() == "2·x⊗x + x²"
    assert TensorPoly.zero(Q, 0, f).render(ascii_mode=True) == "0"
    assert TensorPoly.unit(Q, 0, f).render(ascii_mode=True) == "1"


def test_json_round_trip():
    Q = Ring.rationals()
    f = FreeAbelian(["x", "y"])
    poly = (poly_of(Q, Fraction(1, 2), f, ["x", "y"], Fraction(-3, 4))
            + poly_of(Q, Fraction(1, 2), f, ["x"], 5))
    again = TensorPoly.from_json(poly.to_json())
    assert again == poly
    assert again.lam == poly.lam
    assert again.ring == poly.ring

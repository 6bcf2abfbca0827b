"""Head-and-tail elements with the shifting operator.

The defining operator identity is checked on exhaustive small grids and on
randomized combinations; randomness is seeded so failures replay.
"""

import random
from fractions import Fraction

import pytest

from mixshuffle import (
    FreeAbelian,
    OrderedSet,
    RBElement,
    Ring,
    TensorPoly,
    Unitarized,
    Word,
    alphabet_generators,
    empty_word,
)


def monoid(*gens):
    return Unitarized(FreeAbelian(list(gens)))


def elem(ring, lam, m, head_name, tail_names, coeff=1):
    head = m.parse(head_name)
    tail = Word(tuple(m.parse(t) for t in tail_names))
    return RBElement.from_parts(ring, lam, m, head, tail, coeff)


def test_keys_from_another_alphabet_are_rejected():
    Q = Ring.rationals()
    m, other = monoid("x", "y"), monoid("a", "b")
    x, a = m.parse("x"), other.parse("a")
    with pytest.raises(ValueError):
        RBElement(Q, 0, m, {(a, empty_word()): 1})
    with pytest.raises(ValueError):
        RBElement(Q, 0, m, {(x, Word((a,))): 1})
    again = monoid("x", "y")
    key = (again.parse("x"), Word((again.parse("y"),)))
    assert RBElement(Q, 0, m, {key: 2}).operator_p().terms == {
        (m.identity, Word((x, m.parse("y")))): 2}


def test_one_is_neutral():
    Q = Ring.rationals()
    m = monoid("x")
    one = RBElement.one(Q, 1, m)
    a = elem(Q, 1, m, "x", ["x", "x^2"], 3)
    assert one * a == a
    assert a * one == a
    assert (a - a).is_zero()
    assert a.degree() == 4


def test_product_multiplies_heads_and_shuffles_tails():
    Q = Ring.rationals()
    m = monoid("x")
    a = elem(Q, 0, m, "x", ["x"])
    b = elem(Q, 0, m, "x^2", ["x"])
    prod = a * b
    x = m.parse("x")
    head = m.parse("x^3")
    assert prod.terms == {(head, Word((x, x))): Q.of(2)}


def test_weighted_tails_merge():
    Q = Ring.rationals()
    m = monoid("x")
    a = elem(Q, 1, m, "1", ["x"])
    prod = a * a
    x = m.parse("x")
    one = m.identity
    assert prod.terms == {(one, Word((x, x))): Q.of(2),
                          (one, Word((x ** 2,))): Q.of(1)}


def test_operator_shifts_head_into_tail():
    Q = Ring.rationals()
    m = monoid("x")
    a = elem(Q, 0, m, "x", ["x^2"])
    shifted = a.operator_p()
    x = m.parse("x")
    assert shifted.terms == {(m.identity, Word((x, x ** 2))): Q.of(1)}
    # applying it twice stacks identity letters
    twice = shifted.operator_p()
    assert twice.terms == {(m.identity, Word((m.identity, x, x ** 2))): Q.of(1)}


def test_rota_baxter_identity_exhaustive_small():
    # P(x)P(y) = P(xP(y)) + P(P(x)y) + lam P(xy) on all single-term pairs
    Q = Ring.rationals()
    m = monoid("x")
    heads = [e.name for e in m.elements_up_to(2)]
    tails = [[], ["x"], ["x", "x"], ["x^2"]]
    for lam in (0, 1, Fraction(-1, 2)):
        for ha in heads:
            for hb in heads:
                for ta in tails:
                    for tb in tails:
                        x = elem(Q, lam, m, ha, ta)
                        y = elem(Q, lam, m, hb, tb)
                        px, py = x.operator_p(), y.operator_p()
                        left = px * py
                        right = ((x * py).operator_p()
                                 + (px * y).operator_p()
                                 + (x * y).operator_p().scale(lam))
                        assert left == right, (ha, ta, hb, tb, lam)


def test_rota_baxter_identity_random_combinations():
    rng = random.Random(7)
    m = monoid("x", "y")
    letters = [e for e in m.elements_up_to(2)]
    for ring, lam in ((Ring.prime_field(3), 2), (Ring.integers(), -1),
                      (Ring.truncated_padic(2, 4), 1)):
        for _ in range(25):
            def rand_elem():
                out = RBElement(ring, lam, m, {})
                for _ in range(rng.randint(1, 2)):
                    head = rng.choice(letters)
                    tail = Word(tuple(rng.choice(letters)
                                      for _ in range(rng.randint(0, 2))))
                    out = out + RBElement.from_parts(
                        ring, lam, m, head, tail, rng.choice([-2, -1, 1, 2]))
                return out
            x, y = rand_elem(), rand_elem()
            px, py = x.operator_p(), y.operator_p()
            left = px * py
            right = ((x * py).operator_p() + (px * y).operator_p()
                     + (x * y).operator_p().scale(lam))
            assert left == right


def test_power_matches_repeated_multiplication():
    Q = Ring.rationals()
    m = monoid("x")
    a = elem(Q, 1, m, "x", ["x"]) + elem(Q, 1, m, "1", [], 2)
    assert a.power(0) == RBElement.one(Q, 1, m)
    assert a.power(3) == a * a * a


def test_negative_power_is_refused():
    a = elem(Ring.rationals(), 1, monoid("x"), "x", ["x"])
    with pytest.raises(ValueError, match="negative"):
        a.power(-2)


def test_scale_and_rmul():
    Q = Ring.rationals()
    m = monoid("x")
    a = elem(Q, 0, m, "x", [])
    assert (2 * a).terms == (a * 2).terms
    assert a.scale(0).is_zero()


def test_mixed_weight_rejected():
    Q = Ring.rationals()
    m = monoid("x")
    with pytest.raises(ValueError):
        elem(Q, 0, m, "x", []) * elem(Q, 1, m, "x", [])


def test_tensor_polynomials_and_elements_do_not_mix():
    # same ring, weight and alphabet: only the class differs
    for R in (Ring.rationals(), Ring.integers(), Ring.prime_field(3)):
        m = monoid("x")
        r = elem(R, 1, m, "x", ["x"])
        t = TensorPoly.from_word(R, 1, m, Word((m.parse("x"),)))
        for left, right in ((t, r), (r, t)):
            with pytest.raises(ValueError):
                left + right
            with pytest.raises(ValueError):
                left - right
            with pytest.raises(ValueError):
                left * right
            with pytest.raises(ValueError):
                left.mul_shared(right, {})
            assert left != right
        assert repr(t + t) == "2*x" and repr(r + r) == "2*x(x)x"


def test_shared_memo_is_tied_to_ring_weight_and_alphabet():
    Q, F3 = Ring.rationals(), Ring.prime_field(3)
    m = monoid("x", "y")
    memo = {}
    a = elem(Q, 1, m, "y", ["x"])
    b = elem(Q, 1, m, "1", ["x", "y", "x"])
    assert a.mul_shared(b, memo) == a * b
    assert a.mul_shared(b, memo) == a * b
    a3 = elem(F3, 2, m, "y", ["x"])
    b3 = elem(F3, 2, m, "1", ["x", "y", "x"])
    key = (m.parse("y"), Word((m.parse("x^2"), m.parse("y"), m.parse("x"))))
    assert (a3 * b3).terms[key] == 2
    with pytest.raises(ValueError):
        a3.mul_shared(b3, memo)
    with pytest.raises(ValueError):
        other = monoid("x", "z")
        elem(Q, 1, other, "x", ["x"]).mul_shared(
            elem(Q, 1, other, "1", ["z"]), memo)


def test_alphabet_must_have_identity():
    Q = Ring.rationals()
    with pytest.raises(ValueError):
        RBElement.one(Q, 0, OrderedSet(["a"]))


def test_alphabet_generators():
    m = monoid("x", "y")
    gens = alphabet_generators(m)
    assert [g.name for g in gens] == ["x", "y"]
    assert all(g.degree == 1 for g in gens)
    with pytest.raises(ValueError):
        alphabet_generators(FreeAbelian(["x"]))


def test_support_order_and_render():
    Q = Ring.rationals()
    m = monoid("x")
    a = elem(Q, 0, m, "x^2", []) + elem(Q, 0, m, "1", ["x", "x"], 2)
    assert a.render(ascii_mode=True) == "x^2 + 2*1(x)x(x)x"
    assert a.render() == "x² + 2·1⊗x⊗x"
    assert RBElement(Q, 0, m, {}).render() == "0"


def test_json_round_trip():
    R = Ring.truncated_padic(3, 2)
    m = monoid("x")
    a = elem(R, 2, m, "x", ["x^2", "x"], 5) - elem(R, 2, m, "1", ["x"])
    again = RBElement.from_json(a.to_json())
    assert again == a

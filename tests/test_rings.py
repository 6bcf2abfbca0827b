"""Coefficient rings, integer matrices, and the sparse eliminator.

Expected values in this file were worked out by hand (small determinants,
base-p digit expansions, elementary divisor chains) so the matrix code is
checked against an independent computation, not against itself.
"""

import random
import re
import time
from fractions import Fraction

import pytest

from mixshuffle import (
    Matrix,
    Ring,
    SparseEliminator,
    base_power_multinomial,
    p_adic_valuation,
)
from mixshuffle.rings import _is_prime, base_p_digits, elementary_divisors, \
    is_p_adic_unit


# ring arithmetic


def test_rational_ring_basics():
    R = Ring.rationals()
    half = R.of(Fraction(1, 2))
    assert R.add(half, half) == 1
    assert R.mul(half, R.of(4)) == 2
    assert R.inverse(R.of(3)) == Fraction(1, 3)
    assert R.pow_(R.of(2), 10) == 1024
    assert R.is_field


def test_integer_ring_units():
    R = Ring.integers()
    assert R.is_unit(R.of(-1))
    assert R.is_unit(R.of(1))
    assert not R.is_unit(R.of(2))
    assert not R.is_field
    with pytest.raises(Exception):
        R.inverse(R.of(2))


def test_prime_field_coerces_fractions():
    # 1/2 = 3 in F5 because 2 * 3 = 6 = 1
    F5 = Ring.prime_field(5)
    assert F5.of(Fraction(1, 2)) == 3
    assert F5.of(-1) == 4
    assert F5.mul(F5.of(3), F5.of(4)) == 2
    assert F5.inverse(F5.of(2)) == 3


@pytest.mark.parametrize("ring,value", [
    (Ring.prime_field(3), 0), (Ring.prime_field(5), 10),
    (Ring.truncated_padic(3, 2), 3), (Ring.truncated_padic(2, 4), 6)])
def test_inverse_of_a_non_unit_is_a_zero_division(ring, value):
    with pytest.raises(ZeroDivisionError, match=re.escape(
            "%d is not a unit in %r" % (value, ring))):
        ring.inverse(value)


@pytest.mark.parametrize("ring,value", [
    (Ring.prime_field(3), Fraction(1, 3)),
    (Ring.truncated_padic(3, 2), Fraction(2, 9)),
    (Ring.truncated_padic(2, 4), Fraction(5, 6))])
def test_fraction_with_a_non_unit_denominator_is_refused(ring, value):
    with pytest.raises(ValueError, match=re.escape(
            "%s is not in ring %r" % (value, ring))):
        ring.of(value)
    with pytest.raises(ValueError):
        ring.parse(str(value))


def test_truncated_padic_ring():
    # Z/9: 1/2 = 5 because 2 * 5 = 10 = 1 mod 9
    R = Ring.truncated_padic(3, 2)
    assert R.of(Fraction(1, 2)) == 5
    assert R.of(11) == 2
    assert R.is_unit(R.of(2))
    assert not R.is_unit(R.of(3))
    assert not R.is_field


def test_ring_parse_format_round_trip():
    for R in (Ring.rationals(), Ring.integers(), Ring.prime_field(3),
              Ring.truncated_padic(2, 4)):
        for x in (R.zero, R.one, R.of(-7)):
            assert R.parse(R.format(x)) == x
    Q = Ring.rationals()
    assert Q.parse(Q.format(Fraction(5, 3))) == Fraction(5, 3)
    # and non-integers are rejected where they make no sense
    with pytest.raises(ValueError):
        Ring.integers().of(Fraction(5, 3))


def test_ring_json_round_trip():
    for R in (Ring.rationals(), Ring.integers(), Ring.prime_field(7),
              Ring.truncated_padic(5, 3)):
        assert Ring.from_json(R.to_json()) == R


def test_ring_arithmetic_on_raw_values():
    R = Ring.rationals()
    x = R.of(Fraction(1, 3))
    y = R.of(2)
    assert R.add(x, y) == Fraction(7, 3)
    assert R.mul(x, R.of(3)) == 1
    assert R.neg(x) == Fraction(-1, 3)
    assert R.pow_(y, 5) == 32
    assert R.divide(y, x) == 6


# number-theoretic helpers


def test_is_prime_small_values():
    primes = {2, 3, 5, 7, 11, 13, 97}
    for n in range(2, 100):
        expected = all(n % d for d in range(2, n)) and n > 1
        assert _is_prime(n) == expected, n
    assert not _is_prime(1)
    assert not _is_prime(0)
    assert 91 not in primes and not _is_prime(91)


def trial_division(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def test_is_prime_matches_trial_division():
    assert [n for n in range(200000) if _is_prime(n)] == \
        [n for n in range(200000) if trial_division(n)]


def test_is_prime_rejects_pseudoprimes():
    # Carmichael numbers, a strong pseudoprime to the bases 2, 3, 5 and 7,
    # and 2^61 + 1 = 3 * 768614336404564651
    for n in (561, 1105, 41041, 3215031751, 2 ** 61 + 1):
        assert not _is_prime(n), n


def test_is_prime_is_fast_on_large_primes():
    # trial division would take minutes on the 61-bit Mersenne prime
    start = time.perf_counter()
    assert _is_prime(2 ** 31 - 1) and _is_prime(2 ** 61 - 1)
    assert Ring.prime_field(2 ** 61 - 1).modulus == 2 ** 61 - 1
    assert time.perf_counter() - start < 0.5


def test_is_prime_above_the_deterministic_range():
    # past the Miller-Rabin bound trial division decides, which stays
    # quick when a small factor exists
    from mixshuffle.rings import _MR_LIMIT
    assert not _is_prime(_MR_LIMIT + 1)
    assert not _is_prime(2 ** 89 + 1)
    assert not _is_prime(43 * 47 * (2 ** 82 + 1))


def test_p_adic_valuation():
    assert p_adic_valuation(12, 2) == 2
    assert p_adic_valuation(12, 3) == 1
    assert p_adic_valuation(1, 5) == 0
    assert p_adic_valuation(-8, 2) == 3
    with pytest.raises(Exception):
        p_adic_valuation(0, 2)


def test_p_adic_unit_predicate():
    assert is_p_adic_unit(15, 2)
    assert not is_p_adic_unit(12, 2)
    assert not is_p_adic_unit(0, 3)


def test_base_p_digits_lsb_first():
    assert base_p_digits(11, 2) == [1, 1, 0, 1]
    assert base_p_digits(0, 3) == []
    assert base_p_digits(26, 3) == [2, 2, 2]


def test_base_power_multinomial_hand_values():
    # n = 3 = 11 in base 2: 3!/(1! * 2!) = 3
    assert base_power_multinomial(3, 2) == 3
    # n = 4 = 100: 4!/4! = 1
    assert base_power_multinomial(4, 2) == 1
    # n = 5 = 101: 5!/(1! * 4!) = 5
    assert base_power_multinomial(5, 2) == 5
    # n = 6 = 110: 6!/(2! * 4!) = 15
    assert base_power_multinomial(6, 2) == 15
    # n = 4 = 11 in base 3: 4!/(1! * 3!) = 4
    assert base_power_multinomial(4, 3) == 4


def test_base_power_multinomial_is_p_adic_unit():
    # the leading-coefficient argument needs this for every n
    for p in (2, 3, 5):
        for n in range(1, 33):
            assert is_p_adic_unit(base_power_multinomial(n, p), p), (n, p)


# matrices


def test_matrix_mul_and_apply():
    Z = Ring.integers()
    a = Matrix(Z, [[1, 2], [3, 4]])
    b = Matrix(Z, [[0, 1], [1, 0]])
    assert a.mul(b).rows == [[2, 1], [4, 3]]
    assert a.apply_vector([1, 1]) == [3, 7]


def test_det_bareiss():
    Z = Ring.integers()
    assert Matrix(Z, [[1, 2], [3, 4]]).det_bareiss() == -2
    assert Matrix(Z, [[2, 0, 1], [1, 1, 0], [0, 3, 1]]).det_bareiss() == 5
    assert Matrix(Z, [[1, 2], [2, 4]]).det_bareiss() == 0
    Q = Ring.rationals()
    d = Matrix(Q, [[Fraction(1, 2), 1], [1, 1]]).det_bareiss()
    assert d == Fraction(-1, 2)


def test_row_reduce_rank_and_kernel():
    Q = Ring.rationals()
    m = Matrix(Q, [[1, 2, 3], [2, 4, 6]])
    rank, pivots, kernel, _ = m.row_reduce()
    assert rank == 1
    assert pivots == (0,)
    assert len(kernel) == 2
    for v in kernel:
        assert m.apply_vector(v) == [0, 0]


def test_row_reduce_requires_field():
    Z = Ring.integers()
    with pytest.raises(ValueError):
        Matrix(Z, [[1]]).row_reduce()


def test_smith_normal_form_divisor_chain():
    Z = Ring.integers()
    a = Matrix(Z, [[2, 4], [6, 8]])
    D, U, V = a.smith_normal_form()
    # det is -8 and the entry gcd is 2, so the divisors must be 2, 4
    assert D == [2, 4]
    assert abs(U.det_bareiss()) == 1
    assert abs(V.det_bareiss()) == 1
    prod = U.mul(a).mul(V)
    assert prod.rows == [[2, 0], [0, 4]]


def test_smith_normal_form_identity_and_rank_deficient():
    Z = Ring.integers()
    identity = [[int(i == j) for j in range(3)] for i in range(3)]
    D, _, _ = Matrix(Z, identity).smith_normal_form()
    assert D == [1, 1, 1]
    D, U, V = Matrix(Z, [[1, 2], [2, 4], [3, 6]]).smith_normal_form()
    assert D == [1]


def test_elementary_divisors_hand_values():
    # no unit entry: the whole matrix is the residual
    assert elementary_divisors([{0: 2}, {1: 3}]) == [1, 6]
    assert elementary_divisors([{0: 2, 1: 6}, {0: 4, 1: 8}]) == [2, 4]
    # one unit pivot, then a residual 2
    assert elementary_divisors([{0: 1, 1: 1}, {0: 1, 1: 3}]) == [1, 2]
    # rank deficient, zero columns and rows, empty shapes
    assert elementary_divisors([{0: 1, 1: 2, 2: 3}, {0: 2, 1: 4, 2: 6}]) \
        == [1]
    assert elementary_divisors([{}, {5: 0}, {}]) == []
    assert elementary_divisors([]) == []


def _smith_divisors(m, n, columns):
    rows = [[columns[j].get(i, 0) for j in range(n)] for i in range(m)]
    return Matrix(Ring.integers(), rows, nrows=m, ncols=n) \
        .smith_normal_form()[0]


def test_elementary_divisors_match_smith_normal_form():
    rng = random.Random(20011)
    unit_free = (0, 0, 0, 2, -2, 3, 4, -6, 9)
    mixed = (0, 0, 0, 0, 1, -1, 1, 2, -3, 5)
    shapes = {"residual": 0, "no rows or no columns": 0, "duplicates": 0}
    for trial in range(3000):
        m, n = rng.randint(0, 6), rng.randint(0, 6)
        values = unit_free if trial % 3 == 0 else mixed
        columns = [{i: rng.choice(values) for i in range(m)}
                   for _ in range(n)]
        if n >= 2 and trial % 4 == 1:
            # a duplicate column and an integral combination of two others
            columns[-1] = dict(columns[0])
            a, b = rng.randint(-3, 3), rng.randint(-3, 3)
            columns[-2] = {i: a * columns[0][i] + b * columns[1][i]
                           for i in range(m)}
            shapes["duplicates"] += 1
        if m >= 2 and trial % 5 == 2:
            zero_row = rng.randrange(m)
            for column in columns:
                column[zero_row] = 0
        if n >= 2 and trial % 7 == 3:
            columns[rng.randrange(n)] = {}
        want = _smith_divisors(m, n, columns)
        assert elementary_divisors(columns) == want, (m, n, columns)
        if want and all(abs(x) != 1 for c in columns for x in c.values()):
            shapes["residual"] += 1
        if m == 0 or n == 0:
            shapes["no rows or no columns"] += 1
    assert min(shapes.values()) >= 100, shapes


def test_solve_over_field():
    Q = Ring.rationals()
    m = Matrix(Q, [[1, 1], [1, -1]])
    x = m.solve([3, 1])
    assert x == [2, 1]
    assert Matrix(Q, [[1, 1], [1, 1]]).solve([0, 1]) is None


def test_solve_over_integers():
    Z = Ring.integers()
    m = Matrix(Z, [[2, 0], [0, 3]])
    assert m.solve([4, 9]) == [2, 3]
    # 2x = 3 has no integer solution
    assert Matrix(Z, [[2]]).solve([3]) is None
    # consistent but non-diagonal
    m = Matrix(Z, [[1, 2], [3, 4]])
    x = m.solve([5, 11])
    assert m.apply_vector(x) == [5, 11]


def test_solve_over_truncated_padics():
    R = Ring.truncated_padic(2, 3)  # Z/8
    m = Matrix(R, [[2]])
    x = m.solve([4])
    assert x is not None and (2 * x[0]) % 8 == 4
    assert m.solve([3]) is None


def test_solve_over_truncated_padics_needs_the_full_precision():
    # x = 1 mod 9 from the first row leaves 3 in the second: solvable mod
    # 3, not mod 9
    assert Matrix(Ring.truncated_padic(3, 2), [[1], [3]]).solve([1, 0]) \
        is None


def _image_by_search(rows, q):
    """Every A*x mod q, x running over (Z/q)^n: the sums of every
    multiple of each column, one column at a time."""
    image = {(0,) * len(rows)}
    for col in zip(*rows):
        image = {tuple((v + k * a) % q for v, a in zip(vec, col))
                 for vec in image for k in range(q)}
    return image


SOLVE_RINGS = (Ring.truncated_padic(2, 2), Ring.truncated_padic(2, 3),
               Ring.truncated_padic(3, 2), Ring.truncated_padic(3, 3),
               Ring.integers())


@pytest.mark.parametrize("ring", SOLVE_RINGS, ids=repr)
def test_solve_matches_independent_solvability(ring):
    # seeded 1-3 x 1-3 systems, zero and rank-deficient ones included:
    # solvability against an exhaustive search over (Z/q)^n, or over Z
    # against the elementary divisors with b appended; every solution
    # returned must solve the system
    rng = random.Random(1901)
    q = ring.modulus
    if q is None:
        values = (0, 0, 0, 1, -1, 2, -3, 4, 6, -9)
    else:
        values = (0, 0, 0, 1, q - 1, ring.p, ring.p ** 2 % q, q - ring.p)
    shapes = {"zero": 0, "rank-deficient": 0, "solvable": 0,
              "unsolvable": 0}
    for trial in range(150):
        m, n = rng.randint(1, 3), rng.randint(1, 3)
        rows = [[rng.choice(values) for _ in range(n)] for _ in range(m)]
        if trial % 6 == 0:
            rows = [[0] * n for _ in range(m)]
        elif trial % 6 == 1 and n >= 2:
            f = rng.choice(values)
            for row in rows:
                row[-1] = f * row[0]
        elif trial % 6 == 2 and m >= 2:
            rows[-1] = [rng.choice(values) * a for a in rows[0]]
        rows = [[ring.of(a) for a in row] for row in rows]
        cols = [{i: row[j] for i, row in enumerate(rows)} for j in range(n)]
        divisors = elementary_divisors(cols)
        shapes["zero"] += not divisors
        shapes["rank-deficient"] += len(divisors) < min(m, n)
        matrix = Matrix(ring, rows)
        xs = [rng.choice(values) for _ in range(n)]
        targets = [[ring.of(sum(a * x for a, x in zip(row, xs)))
                    for row in rows]]
        targets += [[ring.of(rng.choice(values)) for _ in range(m)]
                    for _ in range(3)]
        image = None if q is None else _image_by_search(rows, q)
        for b in targets:
            want = tuple(b) in image if q else \
                elementary_divisors(cols + [dict(enumerate(b))]) == divisors
            x = matrix.solve(b)
            assert (x is not None) == want, (ring, rows, b, x)
            shapes["solvable" if want else "unsolvable"] += 1
            if x is not None:
                assert [ring.of(v) for v in x] == x, (ring, rows, b, x)
                assert matrix.apply_vector(x) == b, (ring, rows, b, x)
    assert min(shapes.values()) >= 20, shapes


@pytest.mark.parametrize("ring", (Ring.truncated_padic(2, 4),
                                  Ring.truncated_padic(3, 4)), ids=repr)
def test_solve_factors_least_residues(monkeypatch, ring):
    # the Smith form over Z that solves over Z/q sees each entry as its
    # least residue in [-q/2, q/2], so -1 arrives as -1, not q - 1, and
    # the least-absolute-value pivot rule keeps the entries small
    q = ring.modulus
    real = Matrix.smith_normal_form
    factored = []

    def recording(self):
        factored.append([row[:] for row in self.rows])
        return real(self)

    monkeypatch.setattr(Matrix, "smith_normal_form", recording)
    rows = [[ring.of(x) for x in row] for row in
            ([1, -1, 2, 0], [-1, q // 2, -3, 1], [0, 1 - q // 2, -1, -1])]
    matrix = Matrix(ring, rows)
    b = [ring.of(-1), ring.of(2), ring.of(1)]
    x = matrix.solve(b)
    assert x is not None and matrix.apply_vector(x) == b
    [entries] = factored
    assert [[ring.of(x) for x in row] for row in entries] == rows
    assert all(-q / 2 <= x <= q / 2 for row in entries for x in row)


# sparse eliminator


def test_eliminator_rank_and_membership():
    Q = Ring.rationals()
    elim = SparseEliminator(Q)
    assert elim.insert({"x": 1, "y": 2})
    assert elim.insert({"y": 1})
    assert not elim.insert({"x": 2, "y": 5})  # dependent on the first two
    assert elim.rank == 2
    assert elim.contains({"x": 7})
    assert not elim.contains({"z": 1})


def test_eliminator_express_reconstructs_combination():
    Q = Ring.rationals()
    elim = SparseEliminator(Q, track=True)
    elim.insert({"x": 1}, tag="a")
    elim.insert({"y": 1}, tag="b")
    combo = elim.express({"x": 2, "y": 3})
    assert combo == {"a": Q.of(2), "b": Q.of(3)}
    assert elim.express({"z": 1}) is None


def test_eliminator_leads_with_the_largest_key():
    # each vector is filed under its largest key: {2: 1} reduces against
    # {1: 1, 2: 1} to {1: -1}, and that against {1: 1} to zero
    Q = Ring.rationals()
    elim = SparseEliminator(Q)
    assert elim.insert({1: 1, 2: 1})
    assert list(elim.pivots) == [2]
    assert elim.insert({1: 1})
    assert list(elim.pivots) == [2, 1]
    assert not elim.insert({2: 1})
    assert elim.rank == 2


def test_eliminator_needs_field():
    with pytest.raises(ValueError):
        SparseEliminator(Ring.integers())

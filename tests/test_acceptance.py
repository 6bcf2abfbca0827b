"""Acceptance suite: one criterion per test, one printed verdict line each.

Run as `pytest -s tests/test_acceptance.py` to see the per-criterion lines;
each criterion is independent and stays under a minute on ordinary
hardware.  Every numeric expectation in this file is either computed by a
route independent of the code under test (enumeration oracles, binomial
arithmetic, dimension formulas) or pinned to a literal frozen value.
"""

import itertools
import math
import random
from fractions import Fraction

from mixshuffle import (
    ElementaryPGroup,
    FreeAbelian,
    PresentedAlgebra,
    RBElement,
    Ring,
    TensorPoly,
    Unitarized,
    Word,
    base_power_multinomial,
    cfl_factorize,
    check_spanning,
    compute_cokernel_basis,
    enumerate_lyndon,
    enumerate_words,
    flat_semilattice,
    shuffle_oracle,
    standard_generating_sets,
    verify_fp_nonzero,
    verify_fp_weight0,
    verify_nested_summand,
    verify_radford_hoffman,
    verify_rb_structure,
    verify_z_polynomial,
    verify_zp,
    word_compare,
    word_symbol,
)
from mixshuffle.rings import is_p_adic_unit
from mixshuffle.words import componentwise_p_power


def verdict(num, desc, ok):
    print("criterion %d: %s: %s" % (num, desc, "PASS" if ok else "FAIL"))
    assert ok, "criterion %d failed" % num


RINGS = (Ring.rationals(), Ring.integers(), Ring.prime_field(2),
         Ring.prime_field(3), Ring.truncated_padic(3, 6))
WEIGHTS = (0, 1, -1, 2)


def test_criterion_01_product_laws():
    # commutativity and associativity, 200 randomized trials per
    # (ring, weight) configuration, words of degree <= 5
    f = FreeAbelian(["x", "y"])
    pairs_pool = [w for w in enumerate_words(f, 5) if w.length <= 3]
    triples_pool = [w for w in enumerate_words(f, 5) if w.length <= 2]
    failures = 0
    for ring in RINGS:
        for lam in WEIGHTS:
            rng = random.Random(hash((ring.kind, lam)) & 0xFFFF)
            memo = {}
            for _ in range(200):
                u = TensorPoly.from_word(ring, lam, f, rng.choice(pairs_pool))
                v = TensorPoly.from_word(ring, lam, f, rng.choice(pairs_pool))
                if u.mul_shared(v, memo) != v.mul_shared(u, memo):
                    failures += 1
                a, b, c = (TensorPoly.from_word(ring, lam, f,
                                                rng.choice(triples_pool))
                           for _ in range(3))
                left = a.mul_shared(b, memo).mul_shared(c, memo)
                right = a.mul_shared(b.mul_shared(c, memo), memo)
                if left != right:
                    failures += 1
    verdict(1, "product laws, 5 rings x 4 weights, 200 trials each",
            failures == 0)


def test_criterion_02_recursion_equals_oracle():
    # every word pair over one and two generators, combined length <= 6
    Z = Ring.integers()
    failures = 0
    checked = 0
    for gens in (["x"], ["x", "y"]):
        f = FreeAbelian(gens)
        letters = [f.parse(g) for g in gens]
        words = []
        for n in range(1, 6):
            words.extend(Word(c) for c in itertools.product(letters, repeat=n))
        for lam in (0, 1, 2):
            for u, v in itertools.product(words, repeat=2):
                if u.length + v.length > 6:
                    continue
                a = TensorPoly.from_word(Z, lam, f, u)
                b = TensorPoly.from_word(Z, lam, f, v)
                if a * b != shuffle_oracle(a, b):
                    failures += 1
                checked += 1
    # the same comparison on words with merged letters present
    f = FreeAbelian(["x"])
    mixed = [w for w in enumerate_words(f, 4)]
    for lam in (0, 1, 2):
        for u, v in itertools.product(mixed, repeat=2):
            if u.length + v.length > 4:
                continue
            a = TensorPoly.from_word(Z, lam, f, u)
            b = TensorPoly.from_word(Z, lam, f, v)
            if a * b != shuffle_oracle(a, b):
                failures += 1
            checked += 1
    verdict(2, "recursive product equals enumeration oracle on %d pairs"
            % checked, failures == 0)


def test_criterion_03_letterwise_power_congruence():
    # p-th shuffle powers collapse letterwise mod p.  Every letter slot
    # absorbs p-1 merges, so the universal scalar is lambda^(n(p-1));
    # the form with exponent (p-1)(n-1) agrees whenever lambda is a
    # p-unit and is asserted there as well.
    f = FreeAbelian(["x"])
    words = [w for w in enumerate_words(f, 5) if w.length <= 3]
    failures = 0
    for p in (2, 3, 5):
        Fp = Ring.prime_field(p)
        for lam in (1, 2):
            for w in words:
                poly = TensorPoly.from_word(Fp, lam, f, w)
                pw = poly.shuffle_power(p)
                target = componentwise_p_power(w, p)
                n = w.length
                scal = Fp.of(lam ** (n * (p - 1)))
                if pw != TensorPoly.from_word(Fp, lam, f, target, scal):
                    failures += 1
                if lam % p != 0:
                    unit_scal = Fp.of(lam ** ((p - 1) * (n - 1)))
                    if pw != TensorPoly.from_word(Fp, lam, f, target,
                                                  unit_scal):
                        failures += 1
    verdict(3, "letterwise p-th power congruence, p in {2,3,5}, "
            "lambda in {1,2}, length <= 3, degree <= 5", failures == 0)


def partitions(m):
    def gen(rest, cap):
        if rest == 0:
            yield ()
            return
        for first in range(min(rest, cap), 0, -1):
            for tail in gen(rest - first, first):
                yield (first,) + tail
    return list(gen(m, m))


def test_criterion_04_leading_terms():
    Z = Ring.integers()
    f = FreeAbelian(["x"])
    failures = 0

    # (1) the falling factorization recovers every word as a leading term
    memo = {}
    for w in enumerate_words(f, 6):
        poly = TensorPoly.unit(Z, 1, f)
        expected = 1
        for factor, mult in cfl_factorize(w):
            base = TensorPoly.from_word(Z, 1, f, factor)
            poly = poly.mul_shared(base.shuffle_power(mult), memo)
            expected *= math.factorial(mult)
        if poly.leading_term() != (w, expected):
            failures += 1

    # (2) a Lyndon power shuffled with a smaller word leads by concatenation
    lyndon = enumerate_lyndon(f, 3)
    for u in lyndon:
        s = 1
        while s * u.degree <= 4:
            rep = u.tensor_power(s)
            left = TensorPoly.from_word(Z, 1, f, rep)
            for v in enumerate_words(f, 6 - s * u.degree):
                if word_compare(u, v, "lex") <= 0:
                    continue
                prod = left.mul_shared(TensorPoly.from_word(Z, 1, f, v), memo)
                if prod.leading_term() != (rep.concat(v), 1):
                    failures += 1
            s += 1

    # (3) powers of one Lyndon word multiply with multinomial leading terms
    for u in lyndon:
        for m in range(2, 6 // max(u.degree, 1) + 1):
            for part in partitions(m):
                if len(part) < 2:
                    continue
                poly = TensorPoly.unit(Z, 1, f)
                for n in part:
                    poly = poly.mul_shared(
                        TensorPoly.from_word(Z, 1, f, u.tensor_power(n)), memo)
                coeff = math.factorial(m)
                for n in part:
                    coeff //= math.factorial(n)
                if poly.leading_term() != (u.tensor_power(m), coeff):
                    failures += 1

    # (4) base-p digit powers: the leading coefficient is the block
    # multinomial, a p-adic unit
    x = f.parse("x")
    for p in (2, 3):
        for n in range(1, 7):
            digits = []
            m = n
            while m:
                m, r = divmod(m, p)
                digits.append(r)
            poly = TensorPoly.unit(Z, 1, f)
            for j, a in enumerate(digits):
                if a:
                    block = TensorPoly.from_word(Z, 1, f,
                                                 Word((x,) * (p ** j)))
                    poly = poly.mul_shared(block.shuffle_power(a), memo)
            want = base_power_multinomial(n, p)
            if poly.leading_term() != (Word((x,) * n), want):
                failures += 1
    unit_failures = sum(
        0 if is_p_adic_unit(base_power_multinomial(n, p), p) else 1
        for p in (2, 3, 5) for n in range(1, 33))
    verdict(4, "leading-term suite on all factorization shapes to degree 6, "
            "block multinomials p-adic units to n=32",
            failures == 0 and unit_failures == 0)


def test_criterion_05_rational_bases():
    ok = True
    one = FreeAbelian(["x"])
    two = FreeAbelian(["x", "y"])
    for lam in (0, 1, Fraction(5, 3)):
        r1 = verify_radford_hoffman(one, lam, 6)
        ok = ok and r1.passed
        ok = ok and [c.dimension for c in r1.cells] == [1, 1, 2, 4, 8, 16, 32]
        r2 = verify_radford_hoffman(two, lam, 4)
        ok = ok and r2.passed
        ok = ok and [c.dimension for c in r2.cells] == [1, 2, 7, 24, 82]
    verdict(5, "Lyndon monomial bases over the rationals, "
            "lambda in {0, 1, 5/3}, one and two generators", ok)


def test_criterion_06_prime_field_structure():
    ok = True
    f = FreeAbelian(["x"])
    for p in (2, 3):
        r = verify_fp_weight0(f, p, 5)
        ok = ok and r.passed
        ok = ok and [c.dimension for c in r.cells] == [1, 1, 2, 4, 8, 16]
    configs = [
        (f, 2, None),
        (ElementaryPGroup(2, 1), 2, 5),
        (ElementaryPGroup(3, 1), 3, 5),
        (flat_semilattice(["a", "b", "c"]), 3, 5),
    ]
    for sg, p, length in configs:
        r = verify_fp_nonzero(sg, p, 1, 5, length)
        ok = ok and r.passed
    verdict(6, "prime field presentations: weight zero p=2,3 and nonzero "
            "weight on free, group, and idempotent alphabets", ok)


def test_criterion_07_truncated_padic_lift():
    ok = True
    f = FreeAbelian(["x"])
    for p, weights in ((2, (1,)), (3, (1, 2))):
        sets = standard_generating_sets(f, p, 5)
        tel_counts = [sum(1 for w in sets["tel"] if w.degree == d)
                      for d in range(1, 6)]
        lyn_counts = [sum(1 for w in sets["lyn"] if w.degree == d)
                      for d in range(1, 6)]
        ok = ok and tel_counts == [1, 1, 2, 3, 6] == lyn_counts
        for lam in weights:
            r = verify_zp(f, p, 6, lam, 5)
            lifted = verify_zp(f, p, 8, lam, 5)
            ok = ok and r.passed and lifted.passed
            ok = ok and [(c.ok, c.rank) for c in r.cells] == [
                (c.ok, c.rank) for c in lifted.cells]
    verdict(7, "monomial bases over Z/p^6, p in {2,3}, "
            "repetition family counts (1,1,2,3,6), stable at N+2", ok)


def test_criterion_08_integral_structure():
    ok = True
    one = FreeAbelian(["x"])
    expected_ranks = [1, 1, 2, 3, 6, 9]
    for lam in (1, -1):
        r = verify_z_polynomial(one, lam, 6)
        ok = ok and r.passed
        for d in range(1, 7):
            info, basis = compute_cokernel_basis(one, lam, d)
            ok = ok and info["free"] and info["rank_matches"]
            ok = ok and info["coker_rank"] == expected_ranks[d - 1]
            ok = ok and all(v == 1 for v in info["divisors"])
            ok = ok and abs(info["complement_det"]) == 1
            ok = ok and len(basis) == expected_ranks[d - 1]
    r = verify_z_polynomial(FreeAbelian(["x", "y"]), 1, 4)
    ok = ok and r.passed
    chain = [FreeAbelian(["x"]), FreeAbelian(["x", "y"]),
             FreeAbelian(["x", "y", "z"])]
    nested = verify_nested_summand(chain, 1, 3)
    ok = ok and nested.passed
    verdict(8, "integer cokernels free with ranks (1,1,2,3,6,9), "
            "unimodular complements, nested alphabets split", ok)


def test_criterion_09_operator_layer():
    failures = 0
    m = Unitarized(FreeAbelian(["x"]))
    letters = m.elements_up_to(2)

    def random_element(rng, ring, lam):
        out = RBElement(ring, lam, m, {})
        for _ in range(rng.randint(1, 2)):
            head = rng.choice(letters)
            budget = 3 - head.degree
            tail = []
            for _ in range(rng.randint(0, 3)):
                l = rng.choice(letters)
                if sum(t.degree for t in tail) + l.degree > budget:
                    break
                tail.append(l)
            out = out + RBElement.from_parts(ring, lam, m, head,
                                             Word(tuple(tail)),
                                             rng.choice([-2, -1, 1, 2]))
        return out

    for ring in RINGS:
        for lam in WEIGHTS:
            rng = random.Random(hash((ring.kind, lam, "op")) & 0xFFFF)
            for _ in range(200):
                x = random_element(rng, ring, lam)
                y = random_element(rng, ring, lam)
                px, py = x.operator_p(), y.operator_p()
                left = px * py
                right = ((x * py).operator_p() + (px * y).operator_p()
                         + (x * y).operator_p().scale(lam))
                if left != right:
                    failures += 1

    # divided powers: tensor powers of one letter multiply binomially
    Z = Ring.integers()
    f = FreeAbelian(["x"])
    x = f.parse("x")
    for total in range(2, 9):
        for mm in range(1, total):
            nn = total - mm
            u = TensorPoly.from_word(Z, 0, f, Word((x,) * mm))
            v = TensorPoly.from_word(Z, 0, f, Word((x,) * nn))
            if (u * v).terms != {Word((x,) * total): math.comb(total, mm)}:
                failures += 1

    rbl = verify_rb_structure("rbl", weight=1, degree_bound=3, length_bound=3)
    rbaz = verify_rb_structure("rbaz", weight=1, degree_bound=3,
                               length_bound=3)
    verdict(9, "operator identity on 20 configurations x 200 pairs, "
            "divided powers to total 8, basis and split checks at (3,3)",
            failures == 0 and rbl.passed and rbaz.passed)


def test_criterion_10_non_vacuity():
    # the deliberately wrong generating set must fail, and the failure
    # must name an unreachable word
    Z = Ring.integers()
    f = FreeAbelian(["x"])
    gens = [word_symbol(Z, 1, f, w) for w in enumerate_lyndon(f, 6)]
    algebra = PresentedAlgebra(Z, 1, f, gens, TensorPoly.unit(Z, 1, f))
    first_failure = None
    for d in range(1, 7):
        cell = check_spanning(algebra, d)
        if not cell.ok:
            first_failure = cell
            break
    ok = (first_failure is not None and first_failure.degree == 2
          and first_failure.note == "word x(x)x is not reachable")
    verdict(10, "wrong configuration fails spanning at degree 2 and "
            "reports the unreachable word", ok)

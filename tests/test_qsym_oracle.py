"""Products against quasi-symmetric evaluation, an oracle that shares
neither the letter product nor the ring layer with the product kernel.

Over free:x1..xr a letter is an exponent vector in N^r, and a word
a1 (x) ... (x) ak evaluates to the monomial quasi-symmetric polynomial
M = sum over positions i1 < ... < ik <= n of prod_j t_ij^aj, in n
positions t_1..t_n that each carry r colours.  At weight 1 the mixable
shuffle product goes to the product of these polynomials: Hoffman's
quasi-shuffle product on monomial quasi-symmetric functions (Hoffman,
J. Algebraic Combin. 11, 2000; Gessel, Contemp. Math. 34, 1984), which
over one letter is Hazewinkel's overlapping shuffle algebra.  With
n = len(u) + len(v) the coefficient of M_g in M_u * M_v is that of the
one monomial holding g in positions 1..len(g) and nothing after, so the
product is read back word by word.  Every other nonzero weight follows by
rescaling: a word of length l in the product of u and v has
len(u) + len(v) - l merged slots and carries the weight to that power.

A monomial is one integer with a byte per (position, colour) exponent, so
multiplying monomials is adding integers and exponent vectors add without
the semigroup; coefficients are Python ints and Fractions, reduced mod p
here.  Seeded products over free1 to free3 at weights 1 and -1 over Z,
1/2 and 5/3 over Q and 1 and 2 over F_3, cold and on one warm memo per
cell, must equal the oracle.
"""

import itertools
import random
from fractions import Fraction

from mixshuffle import Ring, TensorPoly, enumerate_words, semigroup_from_preset

# bits per exponent in a monomial; exponents here stay far below 2^8
BITS = 8
CELLS = ((Ring.integers(), 1), (Ring.integers(), -1),
         (Ring.rationals(), Fraction(1, 2)), (Ring.rationals(), Fraction(5, 3)),
         (Ring.prime_field(3), 1), (Ring.prime_field(3), 2))
# (alphabet, degree bound, length bound) of the words drawn
ALPHABETS = (("free:x", 6, 4), ("free:x,y", 5, 3), ("free:x,y,z", 4, 3))
COEFFS = (1, -1, 2)


def evaluate(word, n, r):
    """M_word in n positions as (monomial, mask of occupied positions)
    pairs; distinct position sets give distinct monomials."""
    out = []
    for pos in itertools.combinations(range(n), len(word)):
        mono = mask = 0
        for i, letter in zip(pos, word):
            mask |= 1 << i
            for c, e in enumerate(letter):
                mono += e << BITS * (i * r + c)
        out.append((mono, mask))
    return out


def weight_one_product(u, v, r):
    """{word: count} of u * v at weight 1, read off M_u * M_v in
    len(u) + len(v) positions."""
    n = len(u) + len(v)
    counts = {}
    left = evaluate(u, n, r)
    for b, mb in evaluate(v, n, r):
        for a, ma in left:
            if (ma | mb) & ((ma | mb) + 1):
                continue  # occupied positions are not 1..l
            counts[a + b] = counts.get(a + b, 0) + 1
    out = {}
    top = (1 << BITS) - 1
    for mono, c in counts.items():
        word = []
        while mono:
            word.append(tuple((mono >> BITS * k) & top for k in range(r)))
            mono >>= BITS * r
        out[tuple(word)] = c
    return out


def oracle(a, b, lam, p):
    """{word as letter keys: value} of a * b by evaluation, values
    reduced mod p unless p is None."""
    r = len(a.semigroup.generators)
    out = {}
    for wu, x in a.terms.items():
        u = tuple(l.key for l in wu.letters)
        for wv, y in b.terms.items():
            v = tuple(l.key for l in wv.letters)
            for w, c in weight_one_product(u, v, r).items():
                merged = len(u) + len(v) - len(w)
                out[w] = out.get(w, 0) + x * y * c * Fraction(lam) ** merged
    if p is not None:
        out = {w: int(c) % p for w, c in out.items()}
    return {w: c for w, c in out.items() if c}


def as_keys(poly):
    return {tuple(l.key for l in w.letters): c for w, c in poly.terms.items()}


def test_products_match_quasi_symmetric_evaluation():
    for name, degree, length in ALPHABETS:
        sg = semigroup_from_preset(name)
        words = [w for w in enumerate_words(sg, degree, length) if w.length]
        for ring, lam in CELLS:
            rng = random.Random("qsym/%s/%r/%s" % (name, ring, lam))
            p = ring.modulus
            memo = {}
            for _ in range(16):
                a, b = (TensorPoly(ring, lam, sg, {
                    rng.choice(words): rng.choice(COEFFS)
                    for _ in range(rng.randint(1, 2))}) for _ in range(2))
                want = oracle(a, b, lam, p)
                assert as_keys(a * b) == want, (name, ring, lam, a, b)
                assert as_keys(a.mul_shared(b, memo)) == want, \
                    (name, ring, lam, a, b)

"""Products, powers and Rota-Baxter identities pinned end to end.

Seeded inputs over Q, Z, F_3 and Z/3^6, at weights 0, 1, -1, 2 and 5/3
(5/3 over Q only), on free:x,y and mu:3,1 (the Rota-Baxter side on the
free monoid x,y with an identity adjoined, and on mu:3,1).  Every result
must equal its oracle: shuffle_oracle for products, repeated binary
products for powers, and for Rota-Baxter products the head product in
front of shuffle_oracle of the tails.  Every result must also come back
unchanged when rebuilt from its Word-keyed terms, and its JSON and text
are pinned by one sha256 digest per family, so a change of term storage
cannot change what a caller reads.

A stream of products on one warm memo, as a presented algebra multiplies,
must equal the same products without a memo and their oracles, and each
shuffle power the repeated products on that memo: over Q at weights 0,
1, -1, 1/2 and 5/3, and over Z, F_3 and Z/3^6 at weights 0, 1, -1 and 2.
The stream mixes one-term by one-term products, tensor products over the
free monoid x,y with an identity adjoined (where a merged letter can
equal a factor) and Rota-Baxter products whose tails are all empty.  A
warm product of a 300-letter word must run under a recursion limit only
100 frames above the caller's depth.

A one-letter free alphabet with a window of 400 letter codes checks the
same oracles, the Rota-Baxter identity and the map of code strings
between alphabets on words whose code strings mix characters below 256
with wider ones.
"""

import hashlib
import inspect
import json
import random
import sys
from fractions import Fraction

from mixshuffle import (
    Element,
    FreeAbelian,
    RBElement,
    Ring,
    TensorPoly,
    Unitarized,
    Word,
    enumerate_words,
    semigroup_from_preset,
    shuffle_oracle,
)
from mixshuffle import verify as verify_module
from mixshuffle.rota_baxter import check_rb_identity
from mixshuffle.semigroups import letter_codec

RINGS = (Ring.rationals(), Ring.integers(), Ring.prime_field(3),
         Ring.truncated_padic(3, 6))
WEIGHTS = (0, 1, -1, 2, Fraction(5, 3))
COEFFS = (1, -1, 2)

# sha256 of the JSON and text of every result, in the order drawn
DIGESTS = {
    "products":
        "8c0ab396ffc242febc092ebf168343607de0160d2648ca8d40c7ae20bf8e1ca6",
    "powers":
        "bc237318742a3888f5231a9deba3a263bb1ce99bfc20c706dfdf8ef9110dc946",
    "rota_baxter":
        "d2144d2781f4631bfc075f64c67b0e4db7d4902a9c1769afebe2c86c07888ed3",
}


def cells():
    for ring in RINGS:
        for lam in WEIGHTS:
            if ring.kind == "Q" or Fraction(lam).denominator == 1:
                yield ring, lam


def draw_poly(rng, ring, lam, sg, words, most_terms):
    terms = {}
    for _ in range(rng.randint(1, most_terms)):
        terms[rng.choice(words)] = rng.choice(COEFFS)
    return TensorPoly(ring, lam, sg, terms)


def draw_rb(rng, ring, lam, monoid, letters):
    terms = {}
    for _ in range(rng.randint(1, 2)):
        head = rng.choice(letters)
        tail = Word(tuple(rng.choice(letters)
                          for _ in range(rng.randint(0, 2))))
        terms[(head, tail)] = rng.choice(COEFFS)
    return RBElement(ring, lam, monoid, terms)


def rb_oracle(x, y):
    """Head products in front of the oracle's products of the tails."""
    R, lam, S = x.ring, x.lam, x.semigroup
    out = RBElement(R, lam, S, {})
    for (h, u), c in x.terms.items():
        for (g, v), d in y.terms.items():
            tails = shuffle_oracle(TensorPoly.from_word(R, lam, S, u, c),
                                   TensorPoly.from_word(R, lam, S, v, d))
            out = out + RBElement(R, lam, S, {(h * g, w): e for w, e
                                              in tails.terms.items()})
    return out


def pinned(results):
    text = []
    for r in results:
        text.append(json.dumps(r.to_json(), sort_keys=True))
        text.append(r.render())
        text.append(repr(r))
    return hashlib.sha256("\n".join(text).encode()).hexdigest()


def assert_rebuilds(r):
    assert type(r)(r.ring, r.lam, r.semigroup, r.terms) == r


ALPHABETS = ("free:x,y", "mu:3,1")


def test_products_match_oracle_and_pinned_text():
    results = []
    for name in ALPHABETS:
        sg = semigroup_from_preset(name)
        words = enumerate_words(sg, 6, 3)
        for ring, lam in cells():
            rng = random.Random("products/%s/%r/%s" % (name, ring, lam))
            for _ in range(3):
                a = draw_poly(rng, ring, lam, sg, words, 2)
                b = draw_poly(rng, ring, lam, sg, words, 2)
                r = a * b
                assert r == shuffle_oracle(a, b)
                assert_rebuilds(r)
                results.append(r)
    assert pinned(results) == DIGESTS["products"]


def test_powers_match_repeated_products_and_pinned_text():
    results = []
    for name in ALPHABETS:
        sg = semigroup_from_preset(name)
        words = enumerate_words(sg, 4, 2)
        for ring, lam in cells():
            rng = random.Random("powers/%s/%r/%s" % (name, ring, lam))
            for p in (2, 3):
                poly = draw_poly(rng, ring, lam, sg, words, 2)
                r = poly.shuffle_power(p)
                want = TensorPoly.unit(ring, lam, sg)
                for _ in range(p):
                    want = want * poly
                assert r == want
                assert_rebuilds(r)
                results.append(r)
    assert pinned(results) == DIGESTS["powers"]


RB_MONOIDS = (("free:x,y+1", Unitarized(FreeAbelian(["x", "y"]))),
              ("mu:3,1", semigroup_from_preset("mu:3,1")))


def test_rota_baxter_identity_products_and_pinned_text():
    results = []
    for name, monoid in RB_MONOIDS:
        letters = monoid.elements_up_to(2)
        for ring, lam in cells():
            rng = random.Random("rb/%s/%r/%s" % (name, ring, lam))
            for _ in range(2):
                x = draw_rb(rng, ring, lam, monoid, letters)
                y = draw_rb(rng, ring, lam, monoid, letters)
                assert check_rb_identity(x, y) == (True, None)
                px, py = x.operator_p(), y.operator_p()
                for r, want in ((x * y, rb_oracle(x, y)),
                                (px * py, rb_oracle(px, py)),
                                (x * py, rb_oracle(x, py))):
                    assert r == want
                    results.append(r)
                results.extend([px, (x * py).operator_p()])
                for r in results[-5:]:
                    assert_rebuilds(r)
    assert pinned(results) == DIGESTS["rota_baxter"]


def test_rota_baxter_code_keys_are_words_with_the_head_in_front():
    # a pair (head, tail) is keyed by the code string of the word head
    # tail, as in A (x) Sh(A); P puts the identity in front of it
    for name, monoid in RB_MONOIDS:
        letters = monoid.elements_up_to(2)
        e = chr(monoid.identity.code)
        for ring, lam in cells():
            rng = random.Random("rb-keys/%s/%r/%s" % (name, ring, lam))
            for _ in range(3):
                x = draw_rb(rng, ring, lam, monoid, letters)
                px = x.operator_p()
                assert px.code_terms == {e + k: c
                                         for k, c in x.code_terms.items()}
                for r in (x, px, x * px):
                    assert all(type(k) is str for k in r.code_terms)
                    assert sorted(r.code_terms) == sorted(
                        chr(h.code) + t.codes for h, t in r.terms)
                    assert RBElement(ring, lam, monoid, r.terms) == r


def test_degrees_read_from_codes_match_word_views():
    # TensorPoly.max_degree and RBElement.degree read degrees off the code
    # keys through the codec; the Word-keyed view must agree
    Q = Ring.rationals()
    monoids = (semigroup_from_preset("free:x,y"),
               semigroup_from_preset("mu:3,1"),
               Unitarized(FreeAbelian(["x", "y"])))
    for monoid in monoids:
        rng = random.Random("degrees/%r" % (monoid,))
        words = enumerate_words(monoid, 5, 3)
        polys = [TensorPoly.zero(Q, 1, monoid)]
        polys += [draw_poly(rng, Q, 1, monoid, words, 3) for _ in range(20)]
        for poly in polys:
            assert poly.max_degree() == max(
                (w.degree for w in poly.terms), default=0), poly
        if monoid.identity is None:
            continue
        letters = monoid.elements_up_to(2)
        elements = [RBElement(Q, 1, monoid, {})]
        elements += [draw_rb(rng, Q, 1, monoid, letters) for _ in range(20)]
        elements += [x.operator_p() for x in elements[1:]]
        for x in elements:
            assert x.degree() == max(
                (h.degree + t.degree for h, t in x.terms), default=0), x


# wide alphabets: past 256 letter codes a code string mixes characters
# below 256 with wider ones, which CPython stores at another width


WIDE = FreeAbelian(["x"])
WIDE_RINGS = (Ring.rationals(), Ring.truncated_padic(3, 4))


def wide_letters(semigroup):
    """The letters of a window of 400 codes, split at code 256."""
    codec = letter_codec(semigroup)
    window = codec.window(400)
    assert len(codec.keys) > 256
    narrow = [codec.elements[c] for c in window if c < 256]
    wide = [codec.elements[c] for c in window if c >= 256]
    return narrow, wide


def draw_wide_word(rng, narrow, wide, most, least=1):
    """A word with a letter of code 256 or more and, past length one, one
    below 256, in a random order."""
    letters = [rng.choice(wide)] + [
        rng.choice(narrow + wide) for _ in range(rng.randint(least, most) - 1)]
    if len(letters) > 1:
        letters[1] = rng.choice(narrow)
    rng.shuffle(letters)
    return Word(letters)


def assert_mixed(words):
    codes = "".join(w.codes for w in words)
    assert min(map(ord, codes)) < 256 <= max(map(ord, codes))


def test_wide_alphabet_products_and_powers_match_oracles():
    narrow, wide = wide_letters(WIDE)
    for ring in WIDE_RINGS:
        for lam in (0, 1, 2):
            rng = random.Random("wide/%r/%s" % (ring, lam))
            for _ in range(4):
                words = [draw_wide_word(rng, narrow, wide, 3)
                         for _ in range(3)]
                assert_mixed(words)
                a = TensorPoly(ring, lam, WIDE, {words[0]: 1, words[1]: -1})
                b = TensorPoly.from_word(ring, lam, WIDE, words[2], 2)
                r = a * b
                assert r == shuffle_oracle(a, b)
                assert_rebuilds(r)
                poly = TensorPoly(ring, lam, WIDE, {
                    draw_wide_word(rng, narrow, wide, 2): 1,
                    draw_wide_word(rng, narrow, wide, 2): 2})
                assert poly.shuffle_power(3) == poly * poly * poly


def test_wide_alphabet_rota_baxter_identity():
    monoid = Unitarized(WIDE)
    narrow, wide = wide_letters(monoid)
    for ring in WIDE_RINGS:
        for lam in (0, 1, 2):
            rng = random.Random("wide-rb/%r/%s" % (ring, lam))
            for _ in range(2):
                x, y = (RBElement(ring, lam, monoid, {
                    (rng.choice(wide),
                     draw_wide_word(rng, narrow, wide, 2, 2)):
                    rng.choice(COEFFS) for _ in range(2)}) for _ in range(2))
                assert check_rb_identity(x, y) == (True, None)
                assert x * y == rb_oracle(x, y)
                px = x.operator_p()
                assert_mixed([t for _, t in px.terms])
                assert px * y == rb_oracle(px, y)


def test_wide_alphabet_embedding_round_trip():
    monoid = Unitarized(WIDE)
    narrow, wide = wide_letters(WIDE)
    there = verify_module._embedding(WIDE, monoid, lambda k: ("e", k))
    back = verify_module._embedding(monoid, WIDE, lambda k: k[1])
    rng = random.Random("wide-embedding")
    words = [draw_wide_word(rng, narrow, wide, 3) for _ in range(20)]
    assert_mixed(words)
    for w in words:
        lifted = Word(tuple(Element(monoid, ("e", l.key))
                            for l in w.letters))
        assert there(w.codes) == lifted.codes
        assert back(there(w.codes)) == w.codes


# one warm memo across a stream of products, as PresentedAlgebra shares
# one; each operand's longest word is longer than the other's in half
# the pairs, so the weight table kept on the memo grows from either side

STREAM_CELLS = tuple((Ring.rationals(), lam)
                     for lam in (0, 1, -1, Fraction(1, 2), Fraction(5, 3))) \
    + tuple((ring, lam)
            for ring in (Ring.integers(), Ring.prime_field(3),
                         Ring.truncated_padic(3, 6))
            for lam in (0, 1, -1, 2))


def draw_longest(rng, by_length, longest, most_terms):
    """Up to most_terms words no longer than longest, one of them of that
    length exactly."""
    keys = [rng.choice(by_length[longest])]
    for _ in range(rng.randint(1, most_terms) - 1):
        keys.append(rng.choice(by_length[rng.randint(0, longest)]))
    return keys


def test_shared_memo_products_match_fresh_products_and_oracles():
    sg = semigroup_from_preset("free:x,y")
    by_length = {0: [Word(())]}
    for w in enumerate_words(sg, 6, 3):
        by_length.setdefault(w.length, []).append(w)
    # with an identity letter a merged letter can equal either factor
    monoid = Unitarized(FreeAbelian(["x", "y"]))
    heads = monoid.elements_up_to(1)
    rb_tails = {0: [Word(())]}
    for w in enumerate_words(monoid, 2, 3):
        rb_tails.setdefault(w.length, []).append(w)
    for ring, lam in STREAM_CELLS:
        rng = random.Random("stream/%r/%s" % (ring, lam))
        # the one-term, identity-letter and empty-tail pairs draw from
        # their own generator, so rng's draws do not depend on them
        more = random.Random("stream/more/%r/%s" % (ring, lam))
        memo, rb_memo, unit_memo = {}, {}, {}
        for i in range(12):
            lengths = (3, rng.randint(0, 2))
            tail_lengths = (2, rng.randint(0, 1))
            if i % 2:
                lengths, tail_lengths = lengths[::-1], tail_lengths[::-1]
            a, b = (TensorPoly(ring, lam, sg, {
                w: rng.choice(COEFFS)
                for w in draw_longest(rng, by_length, n, 4)})
                for n in lengths)
            r = a.mul_shared(b, memo)
            assert r == a * b == shuffle_oracle(a, b), (ring, lam, i)
            x, y = (RBElement(ring, lam, monoid, {
                (rng.choice(heads), t): rng.choice(COEFFS)
                for t in draw_longest(rng, rb_tails, n, 4)})
                for n in tail_lengths)
            r = x.mul_shared(y, rb_memo)
            assert r == x * y == rb_oracle(x, y), (ring, lam, i)
            # one term by one term, over both alphabets
            a, b = (TensorPoly(ring, lam, sg, {
                more.choice(by_length[n]): more.choice(COEFFS)})
                for n in (more.randint(0, 3), more.randint(0, 3)))
            assert a.mul_shared(b, memo) == a * b == shuffle_oracle(a, b), \
                (ring, lam, i)
            a, b = (TensorPoly(ring, lam, monoid, {
                w: more.choice(COEFFS)
                for w in draw_longest(more, rb_tails, n, more.randint(1, 2))})
                for n in (3, more.randint(0, 3)))
            r = a.mul_shared(b, unit_memo)
            assert r == a * b == shuffle_oracle(a, b), (ring, lam, i)
            # Rota-Baxter heads with empty tails on both sides
            x, y = (RBElement(ring, lam, monoid, {
                (more.choice(heads), Word(())): more.choice(COEFFS)
                for _ in range(more.randint(1, 2))}) for _ in range(2))
            r = x.mul_shared(y, rb_memo)
            assert r == x * y == rb_oracle(x, y), (ring, lam, i)
        poly = TensorPoly(ring, lam, sg, {
            w: rng.choice(COEFFS) for w in draw_longest(rng, by_length, 2, 3)})
        want = TensorPoly.unit(ring, lam, sg)
        for p in range(1, 4):
            want = want.mul_shared(poly, memo)
            assert poly.shuffle_power(p) == want, (ring, lam, p)


def test_warm_product_keeps_its_own_stack():
    # a recursion per cell would need about 300 frames here
    sg = semigroup_from_preset("free:x")
    R = Ring.integers()
    x = sg.parse("x")
    a = TensorPoly.from_word(R, 1, sg, Word((x,) * 300))
    b = TensorPoly.from_word(R, 1, sg, Word((x,)))
    cold = a * b
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 100)
    try:
        warm = a.mul_shared(b, {})
    finally:
        sys.setrecursionlimit(limit)
    assert warm == cold

"""The three benchmark workloads: seeded op streams, the timed call, and
the correctness checks.

Every workload is a closed loop with one client.  Ops come in rounds:
one round is a fixed mix of op shapes whose concrete inputs (words,
rings, weights, alphabets, order) are drawn from the seed.  The timed
loop only ever stops between rounds, so every run measures the same mix,
and run-to-run spread comes from the inputs and the machine, not from
where the clock happened to cut a round.

The package is reached only through its public names, looked up on the
module at call time, so the tracer's patches are seen.
"""

import itertools
import math
import random
from fractions import Fraction


class Op:
    """One client request: a call plus what is needed to check it."""

    __slots__ = ("kind", "key", "args", "group", "sample", "lengths")

    def __init__(self, kind, key, args, group, sample=False, lengths=()):
        self.kind = kind
        self.key = key          # hashable description of the exact inputs
        self.args = args
        self.group = group      # label for the input mix (ring, half, ...)
        self.sample = sample    # also gets the expensive check
        self.lengths = lengths  # word lengths in the inputs


def _ring_label(R):
    if R.kind == "Zp":
        return "Z/%d^%d" % (R.p, R.precision)
    if R.kind == "Fp":
        return "F_%d" % R.p
    return R.kind


def _poly_key(poly):
    return tuple(sorted((w.display(True), poly.ring.format(c))
                        for w, c in poly.terms.items()))


# ---------------------------------------------------------------------------
# products


class Products:
    """Cold binary products: TensorPoly a*b of two words (3/4 of ops) and
    the Rota-Baxter identity on random elements (1/4), each op with a
    fresh memo.

    A round holds one product for every (length of a, length of b,
    weight) cell, 100 in all, and two identity checks for every (ring,
    weight) cell; the ring of a product rotates with its length cell from
    a seeded offset.  Words, pools, coefficients and order are drawn from
    the seed.
    """

    name = "products"
    why = ("cold binary products with a fresh memo per op: the "
           "_binary_shuffle recursion, ring scalars and letter hashing, "
           "no linear algebra")
    _lengths = (2, 3, 4, 5, 6)
    _weights = (0, 1, -1, 2)
    mix = {"mul": len(_lengths) ** 2 * len(_weights), "rb_identity": 32}
    params = {
        "pools": ["free:x,y", "mu:3,1"],
        "word_lengths": list(_lengths),
        "pool_bounds": {"degree": 6, "length": 6},
        "coefficients": [1, -1, 2],
        "rings": ["Q", "Z", "F_3", "Z/3^6"],
        "weights": list(_weights),
        "round": ("every (len a, len b, weight) cell once for products, "
                  "every (ring, weight) cell twice for identity checks"),
        "rb_monoid": "free:x,y with identity",
        "rb_bounds": {"degree": 3, "tail_length": 3, "terms": [1, 2]},
        "oracle_sample": "1 in 4 products with total word length <= 6",
    }

    def __init__(self, ms, seed):
        self.ms = ms
        self.rng = random.Random(seed)
        free = ms.semigroup_from_preset("free:x,y")
        mu = ms.semigroup_from_preset("mu:3,1")
        self.pools = []
        for label, sg in (("free:x,y", free), ("mu:3,1", mu)):
            by_len = {}
            for w in ms.enumerate_words(sg, 6, 6):
                if w.length >= 2:
                    by_len.setdefault(w.length, []).append(w)
            self.pools.append((label, sg, by_len))
        self.rings = [ms.Ring.rationals(), ms.Ring.integers(),
                      ms.Ring.prime_field(3), ms.Ring.truncated_padic(3, 6)]
        self.monoid = ms.Unitarized(ms.FreeAbelian(["x", "y"]))
        self.rb_letters = self.monoid.elements_up_to(3)

    def _rb_element(self, R, lam):
        rng = self.rng
        terms = {}
        for _ in range(rng.randint(1, 2)):
            head = rng.choice(self.rb_letters)
            budget = 3 - head.degree
            tail = []
            for _ in range(rng.randint(0, 3)):
                options = [l for l in self.rb_letters if l.degree <= budget]
                letter = rng.choice(options)
                tail.append(letter)
                budget -= letter.degree
            terms[(head, self.ms.Word(tuple(tail)))] = rng.choice((1, -1, 2))
        return self.ms.RBElement(R, lam, self.monoid, terms)

    def round(self):
        rng = self.rng
        ops = []
        offset = rng.randrange(len(self.rings))
        for cell, (m, n) in enumerate(itertools.product(self._lengths,
                                                         repeat=2)):
            R = self.rings[(cell + offset) % len(self.rings)]
            for lam in self._weights:
                label, sg, by_len = rng.choice(self.pools)
                u = rng.choice(by_len[m])
                v = rng.choice(by_len[n])
                a = self.ms.TensorPoly(R, lam, sg,
                                       {u: rng.choice((1, -1, 2))})
                b = self.ms.TensorPoly(R, lam, sg,
                                       {v: rng.choice((1, -1, 2))})
                ops.append(Op("mul", ("mul", label, _ring_label(R), lam,
                                      _poly_key(a), _poly_key(b)),
                              (a, b), (_ring_label(R), lam),
                              sample=m + n <= 6 and rng.random() < 0.25,
                              lengths=(m, n)))
        for R in self.rings:
            for lam in self._weights:
                for _ in range(2):
                    x = self._rb_element(R, lam)
                    y = self._rb_element(R, lam)
                    key = ("rb", _ring_label(R), lam,
                           tuple(sorted(repr(k) + R.format(c)
                                        for k, c in x.terms.items())),
                           tuple(sorted(repr(k) + R.format(c)
                                        for k, c in y.terms.items())))
                    lengths = tuple(t.length for _, t in x.terms) + \
                        tuple(t.length for _, t in y.terms)
                    ops.append(Op("rb", key, (x, y), (_ring_label(R), lam),
                                  lengths=lengths))
        rng.shuffle(ops)
        return ops

    def call(self, op):
        a, b = op.args
        if op.kind == "mul":
            return a * b
        return self.ms.rota_baxter.check_rb_identity(a, b)

    def check(self, op, result):
        """Cheap exact invariants on every op."""
        if op.kind == "rb":
            ok, diff = result
            return ok is True and diff is None
        a, b = op.args
        R = a.ring
        if not isinstance(result, self.ms.TensorPoly) or result.ring != R \
                or result.lam != a.lam:
            return False
        # the coefficients of u*v sum to sum_k lam^k (m+n-k)!/(k!(m-k)!(n-k)!)
        # over the k merged slot pairs, whatever the letters are
        want = R.zero
        for u, cu in a.terms.items():
            for v, cv in b.terms.items():
                want = R.add(want, R.mul(R.mul(cu, cv),
                                         _merge_count_sum(R, a.lam,
                                                          u.length,
                                                          v.length)))
        got = R.zero
        for c in result.terms.values():
            got = R.add(got, c)
        if got != want:
            return False
        if a.semigroup.kind == "free_abelian":
            # merging keeps degree in a free abelian semigroup
            degrees = {u.degree + v.degree
                       for u in a.terms for v in b.terms}
            if any(w.degree not in degrees for w in result.terms):
                return False
        return True

    def sample_check(self, op, result):
        a, b = op.args
        return result == self.ms.shuffle_oracle(a, b)


def _merge_count_sum(R, lam, m, n):
    total = R.zero
    for k in range(min(m, n) + 1):
        count = math.factorial(m + n - k) // (
            math.factorial(k) * math.factorial(m - k) * math.factorial(n - k))
        weight = R.one if k == 0 else R.pow_(lam, k)
        total = R.add(total, R.mul(R.of(count), weight))
    return total


# ---------------------------------------------------------------------------
# powers


class Powers:
    """p-th shuffle powers through the multiset walk, p in {2, 3, 5}."""

    name = "powers"
    why = ("p-th shuffle powers through the _multi_shuffle multiset walk, "
           "whose term dicts collapse mod p; no linear algebra")
    params = {
        "semigroup": "free:x,y",
        "letters": "degree <= 2 (x, y, x^2, x*y, y^2)",
        "p": [2, 3, 5],
        "rings": ["F_p", "Z/p^4"],
        "weights": [1, 2],
        "word_lengths": {"2": [1, 2, 3], "3": [1, 2, 3], "5": [1, 2]},
        "poly_terms": [2, 3],
        "poly_term_lengths": {"2": [1, 3], "3": [1, 2], "5": [1, 1]},
        "coefficients": "1 to p-1",
        "round": ("every (p, ring, weight) cell once with one word of each "
                  "length and one polynomial of each term count"),
        "product_sample": ("1 in 3 ops with p * longest word <= 6, "
                           "against repeated binary products"),
    }
    # p = 5 words of length 3 (1.4-25 s each) and p = 5 polynomials with
    # length-2 terms (up to 12 s) are left out: a run could not hold the
    # ten samples beyond p90 that the latency figure needs.
    _word_lengths = {2: (1, 2, 3), 3: (1, 2, 3), 5: (1, 2)}
    _term_len = {2: 3, 3: 2, 5: 1}
    mix = {"word": sum(len(v) for v in _word_lengths.values()) * 4,
           "poly": 3 * 2 * 4}

    def __init__(self, ms, seed):
        self.ms = ms
        self.rng = random.Random(seed)
        self.sg = ms.semigroup_from_preset("free:x,y")
        by_len = {}
        for w in ms.enumerate_words(self.sg, 6, 3):
            by_len.setdefault(w.length, []).append(w)
        self.by_len = by_len
        self.rings = {p: (ms.Ring.prime_field(p),
                          ms.Ring.truncated_padic(p, 4)) for p in (2, 3, 5)}

    def _op(self, kind, p, R, lam, terms):
        poly = self.ms.TensorPoly(R, lam, self.sg, terms)
        longest = max(w.length for w in terms)
        return Op(kind, (p, _ring_label(R), lam, _poly_key(poly)),
                  (poly, p), (_ring_label(R), lam),
                  sample=p * longest <= 6 and self.rng.random() < 1 / 3,
                  lengths=tuple(w.length for w in terms))

    def round(self):
        rng = self.rng
        ops = []
        for p in (2, 3, 5):
            for R in self.rings[p]:
                for lam in (1, 2):
                    for n in self._word_lengths[p]:
                        ops.append(self._op("word", p, R, lam,
                                            {rng.choice(self.by_len[n]): 1}))
                    for count in (2, 3):
                        terms = {}
                        while len(terms) < count:
                            n = rng.randint(1, self._term_len[p])
                            terms[rng.choice(self.by_len[n])] = \
                                rng.randint(1, p - 1)
                        ops.append(self._op("poly", p, R, lam, terms))
        rng.shuffle(ops)
        return ops

    def call(self, op):
        poly, p = op.args
        return poly.shuffle_power(p)

    def check(self, op, result):
        """The letterwise congruence: mod p the p-th power of sum c_i u_i
        is sum c_i lam^((p-1) len u_i) u_i^(p), letters raised to p."""
        poly, p = op.args
        if not isinstance(result, self.ms.TensorPoly) \
                or result.ring != poly.ring:
            return False
        lam = int(poly.lam)
        want = {}
        for u, c in poly.terms.items():
            moved = self.ms.componentwise_p_power(u, p)
            v = int(c) * pow(lam, (p - 1) * u.length, p) % p
            want[moved] = (want.get(moved, 0) + v) % p
        want = {w: c for w, c in want.items() if c}
        got = {}
        for w, c in result.terms.items():
            r = int(c) % p
            if r:
                got[w] = r
        return got == want

    def sample_check(self, op, result):
        poly, p = op.args
        memo = {}
        acc = self.ms.TensorPoly.unit(poly.ring, poly.lam, poly.semigroup)
        for _ in range(p):
            acc = acc.mul_shared(poly, memo)
        return acc == result


# ---------------------------------------------------------------------------
# verify


_NAMES = (("x", "y", "z"), ("a", "b", "c"), ("u", "v", "w"), ("s", "t", "r"))

# Menu tokens: "free<k>" is a free abelian semigroup on k letters and
# "alpha<k>" a bare alphabet of k letters, with names drawn per op;
# "chain<j>,<k>" is the nested list free<j> ... free<k> on one set of
# names; "mu:..." is a semigroup preset; a tuple is a seeded choice among
# its values; anything else is passed as is.
_FIELD = (
    ("radford", "verify_radford_hoffman", ("free2", 0, 4)),
    ("radford", "verify_radford_hoffman", ("free2", 0, 5)),
    ("radford", "verify_radford_hoffman", ("free3", 0, 4)),
    ("radford", "verify_radford_hoffman", ("free1", 0, 8)),
    ("msq", "verify_radford_hoffman", ("free1", (1, -1, 2), 7)),
    ("msq", "verify_radford_hoffman", ("free2", (1, -1, 2), 4)),
    ("msq", "verify_radford_hoffman", ("free2", Fraction(5, 3), 5)),
    ("msq", "verify_radford_hoffman", ("free3", (1, -1, 2), 4)),
    ("msq", "verify_radford_hoffman", ("mu:3,1", (1, -1, 2), 5, 5)),
    ("psh", "verify_fp_weight0", ("free2", 2, 5)),
    ("psh", "verify_fp_weight0", ("free2", 3, 5)),
    ("psh", "verify_fp_weight0", ("free1", 2, 8)),
    ("pmsh", "verify_fp_nonzero", ("free1", 3, (1, 2, -1), 7)),
    ("pmsh", "verify_fp_nonzero", ("free1", 2, (1, -1, 3), 5)),
    ("pmsh", "verify_fp_nonzero", ("free2", 2, (1, -1, 3), 5)),
    ("pmsh", "verify_fp_nonzero", ("mu:2,1", 2, (1, -1, 3), 5, 5)),
    ("pmsh", "verify_fp_nonzero", ("mu:3,1", 3, (1, 2, -1), 4, 5)),
    ("rbl", "verify_rb_structure", ("rbl", "alpha2", (1, -1, 2), None,
                                    None, 3, 3)),
    ("rbl", "verify_rb_structure", ("rbl", "alpha1", (1, -1, 2), None,
                                    None, 4, 4)),
    ("rbl", "verify_rb_structure", ("rbl", "alpha1", (1, -1, 2), None,
                                    None, 5, 4)),
) + tuple(
    ("rbafp%d" % case, "verify_rb_structure",
     ("rbafp%d" % case, alpha, 0 if case == 1 else weights, p, None, d,
      ell))
    for case in (1, 2, 3, 4)
    for alpha, p, weights, d, ell in (("alpha1", 3, (1, 2, -1), 4, 4),
                                      ("alpha2", 2, (1, -1, 3), 3, 3))
) + (
    ("props", "verify_semigroup_props", ("mu:3,1", 3, 5, 5)),
    ("props", "verify_semigroup_props", ("free2", 2, 5)),
)

_INTEGRAL = (
    ("intfr", "verify_z_polynomial", ("free1", (1, -1), 5)),
    ("intfr", "verify_z_polynomial", ("free1", (1, -1), 6)),
    ("intfr", "verify_z_polynomial", ("free1", (1, -1), 7)),
    ("intfr", "verify_z_polynomial", ("free2", (1, -1), 3)),
    ("isomor", "verify_zp", ("free1", 2, (4, 6), (1, -1, 3), 6)),
    ("isomor", "verify_zp", ("free1", 3, (4, 6), (1, 2, -1), 6)),
    ("isomor", "verify_zp", ("free1", 5, (4, 6), (1, 2, -1), 6)),
    ("isomor", "verify_zp", ("free2", 2, (4, 6), (1, -1, 3), 3)),
    ("isomor", "verify_zp", ("free2", 3, (4, 6), (1, 2, -1), 4)),
    ("rbaz", "verify_rb_structure", ("rbaz", "alpha1", (1, -1), None, None,
                                     4, 3)),
    ("rbaz", "verify_rb_structure", ("rbaz", "alpha1", (1, -1), None, None,
                                     5, 3)),
    ("rbaz", "verify_rb_structure", ("rbaz", "alpha1", (1, -1), None, None,
                                     4, 4)),
    ("rbaz", "verify_rb_structure", ("rbaz", "alpha1", (1, -1), None, None,
                                     3, 4)),
    ("rbazp", "verify_rb_structure", ("rbazp", "alpha1", 1, 3, (4, 6), 6,
                                      3)),
    ("rbazp", "verify_rb_structure", ("rbazp", "alpha1", 1, 2, (4, 6), 7,
                                      3)),
    ("rbazp", "verify_rb_structure", ("rbazp", "alpha1", 1, 2, (4, 6), 6,
                                      3)),
    ("rbazp", "verify_rb_structure", ("rbazp", "alpha2", 1, 3, (4, 6), 4,
                                      3)),
    ("rbazp", "verify_rb_structure", ("rbazp", "alpha2", 1, 2, (4, 6), 5,
                                      3)),
    ("nested", "verify_nested_summand", ("chain1,2", (1, -1), 4)),
    ("nested", "verify_nested_summand", ("chain1,3", (1, -1), 3)),
)


class Verify:
    """One structure verifier per op; every round runs the whole menu
    twice, with fresh draws, in seeded order.

    Degree and length bounds and primes are fixed per menu entry so that
    each op takes between a few ms and 200 ms (most above 10 ms) when the
    benchmark was defined, and the field and integral halves take about
    equal time; the seed draws alphabet names, weights and precisions.
    """

    name = "verify"
    why = ("one structure verifier per op, field and integral halves of "
           "equal time: words, warm-memo monomials, sparse elimination, "
           "Smith form over Z")
    params = {
        "field": [[label, fn, repr(args)] for label, fn, args in _FIELD],
        "integral": [[label, fn, repr(args)]
                     for label, fn, args in _INTEGRAL],
        "alphabet_names": [",".join(n) for n in _NAMES],
    }
    # two draws of each entry make a round of 100 ops, so that even a run
    # of one round has ten samples beyond its p90
    copies = 2
    mix = {"field": copies * len(_FIELD), "integral": copies * len(_INTEGRAL)}

    def __init__(self, ms, seed):
        self.ms = ms
        self.rng = random.Random(seed)
        self.free = {(names, k): ms.FreeAbelian(list(names[:k]))
                     for names in _NAMES for k in (1, 2, 3)}
        self.presets = {}
        for _, _, args in _FIELD + _INTEGRAL:
            for a in args:
                if isinstance(a, str) and a.startswith("mu:"):
                    self.presets[a] = ms.semigroup_from_preset(a)

    def _resolve(self, token, names):
        if isinstance(token, tuple):
            return self.rng.choice(token)
        if not isinstance(token, str):
            return token
        if token.startswith("free"):
            return self.free[(names, int(token[4:]))]
        if token.startswith("alpha"):
            return names[:int(token[5:])]
        if token.startswith("chain"):
            lo, hi = token[5:].split(",")
            return [self.free[(names, k)]
                    for k in range(int(lo), int(hi) + 1)]
        return self.presets.get(token, token)

    def round(self):
        ops = []
        for _ in range(self.copies):
            for half, menu in (("field", _FIELD), ("integral", _INTEGRAL)):
                for label, fn, template in menu:
                    names = self.rng.choice(_NAMES)
                    args = tuple(self._resolve(t, names) for t in template)
                    ops.append(Op(label, (fn, _args_key(args)), (fn, args),
                                  half))
        self.rng.shuffle(ops)
        return ops

    def call(self, op):
        fn, args = op.args
        return getattr(self.ms, fn)(*args)

    def check(self, op, result):
        return isinstance(result, self.ms.VerificationReport) \
            and result.passed


def _args_key(args):
    out = []
    for a in args:
        if isinstance(a, (list, tuple)):
            out.append(tuple(_args_key(a)))
        elif hasattr(a, "descriptor"):
            out.append(repr(a.descriptor()))
        else:
            out.append(repr(a))
    return tuple(out)


WORKLOADS = {cls.name: cls for cls in (Products, Powers, Verify)}

"""Mixable shuffle products on tensor words.

A TensorPoly is a finite linear combination of tensor words with
coefficients in an exact ring, multiplied by the mixable shuffle with
mixing weight lambda: interleave two words in every order-preserving
way, optionally merging a pair of slots into the semigroup product of
their letters, each merged slot contributing one factor of lambda.
Weight zero is the plain shuffle.

The coefficient algebra lives in Combination, which TensorPoly and the
Rota-Baxter elements (a head letter before a word tail) both extend:
coercion, sums, scaling, equality, the term order, text and JSON are
written once, and each subclass adds only its key and its product.

Two independent implementations of the product live here.  The working
one builds the product of two words from cells over suffix pairs (three
branches: take the head of the left word, take the head of the right
word, merge both heads).  A cold product, with no memo, fills the cells
row by row and keeps about one row; a warm product, on a memo shared
across calls, walks down from the requested pair and computes only the
cells the memo lacks.  The oracle enumerates all pairs of
order-preserving slot injections whose images cover the result word and
is used only to cross-check the working product.

Inside the product layer letters are the characters chr(code) of their
alphabet's LetterCodec, words are code strings, which hash once and take
a letter in front by one concatenation, and coefficients are plain ints:
the number of ways to reach a word, reduced mod the ring's modulus when
it has one.  A word with k merged slots carries lambda^k, which depends
on its length alone, so the weight and the input coefficients are
applied once per result word, the weight from a table of its powers: for
an integral weight one table held on the memo and grown as needed,
otherwise one table per call over a common denominator, which the
element's reduction (_like) brings to lowest terms.  Elements store
their terms in the form shuffle_sum multiplies: integer numerators keyed
by code strings over one denominator, which is 1 except over Q.  So a
product reads its operands and files its result without building a Word
or a Fraction.  Words and ring values are built only when a caller
reads the Word-keyed terms of an element, on each read.

Powers are not computed by repeated binary products.  The k-th power
sums one joint shuffle per multiset of k terms, a walk over multisets of
the factors' remaining suffixes: factors with equal suffixes are
interchangeable, whichever words they came from, so moves are weighted
by binomials and one whose binomial vanishes in the ring is dropped.
The memo of states is valid for any factors over one ring, weight and
alphabet, so the multisets of one power share it.  This keeps p-th
powers of small polynomials tractable for p = 5.
"""

import itertools
import math
from fractions import Fraction
from types import MappingProxyType

from .rings import Q, Ring
from .semigroups import OrderedSemigroup, letter_codec
from .words import Word, _from_codes, _word_pieces, cfl_factorize, \
    componentwise_p_power, empty_word


def _accumulate(acc, ring, letters, coeff):
    cur = acc.get(letters)
    if cur is None:
        acc[letters] = coeff
    else:
        s = ring.add(cur, coeff)
        if ring.is_zero(s):
            del acc[letters]
        else:
            acc[letters] = s


def shuffle_letters_oracle(u, v, ring, lam):
    """Same product by brute enumeration of slot injections.

    For each result length, place the letters of u and v on slots by
    order-preserving injections covering every slot; doubly covered
    slots hold the product of the two letters and cost one lambda each.
    """
    m, n = len(u), len(v)
    acc = {}
    lam_zero = ring.is_zero(lam)
    for ell in range(max(m, n), m + n + 1):
        merged = m + n - ell
        if merged > 0 and lam_zero:
            continue
        weight = ring.pow_(lam, merged) if merged else ring.one
        for pos_u in itertools.combinations(range(ell), m):
            su = set(pos_u)
            for pos_v in itertools.combinations(range(ell), n):
                sv = set(pos_v)
                if len(su | sv) != ell:
                    continue
                letters = []
                iu = {pos: u[i] for i, pos in enumerate(pos_u)}
                iv = {pos: v[i] for i, pos in enumerate(pos_v)}
                for slot in range(ell):
                    if slot in iu and slot in iv:
                        prod = iu[slot] * iv[slot]
                        if prod is None:
                            raise ValueError(
                                "letters do not multiply; only weight zero "
                                "works over a bare ordered set")
                        letters.append(prod)
                    elif slot in iu:
                        letters.append(iu[slot])
                    else:
                        letters.append(iv[slot])
                _accumulate(acc, ring, tuple(letters), weight)
    return acc


# memo slot naming the ring, weight and alphabet the memo was filled for
_CONTEXT = "context"


def check_memo(memo, ring, lam, semigroup):
    """Tie a caller-held shuffle memo (or no memo, None) to one ring,
    weight and alphabet.

    A memo holds products for one ring, weight and alphabet; the first
    call tags it with them and a later call with others raises instead
    of reading products that do not apply.
    """
    if memo is None:
        return
    ctx = memo.setdefault(_CONTEXT, (ring, lam, semigroup))
    if (ctx[0] is not ring or ctx[2] is not semigroup or ctx[1] != lam) \
            and ctx != (ring, lam, semigroup):
        raise ValueError(
            "shuffle memo was filled over %r at weight %s on %r, not over "
            "%r at weight %s on %r" % (ctx[0], ctx[1], ctx[2], ring, lam,
                                       semigroup))


def _add_prefixed(acc, letter, src, mod):
    """Add the words of src, each with letter in front, into acc."""
    get = acc.get
    for tail, c in src.items():
        w = letter + tail
        s = get(w)
        if s is None:
            acc[w] = c
        else:
            s += c
            if mod is not None:
                s %= mod
            if s:
                acc[w] = s
            else:
                del acc[w]


def _quasi_shuffle(u, v, codec, merge, mod, memo):
    """Counts of the words in the product of two nonempty code strings.

    Returns {code string: count}, counts reduced mod `mod` when it is not
    None and never zero.  The product of u[i:] and v[j:] is u[i] in
    front of the product of u[i+1:] and v[j:], plus v[j] in front of the
    product of u[i:] and v[j+1:], plus (when merging) the letter u[i]v[j]
    in front of the product of u[i+1:] and v[j+1:]; a product with an
    empty side is the other word alone.  Without a memo (None) a dynamic
    program fills these cells row by row from the bottom, keeping about
    one row.  With a memo the cells are kept in it under their pairs of
    suffixes, so later products share them, and a walk from (u, v) down
    computes only the cells the memo lacks (_walk_cells).  A word with k
    merged slots carries the weight to the k-th power, which depends on
    its length only and is applied by the caller, so counts are the same
    at every nonzero weight.
    """
    if memo is not None:
        return _walk_cells(u, v, codec, merge, mod, memo)
    m, n = len(u), len(v)
    vs = [v[j:] for j in range(n + 1)]
    below = [{t: 1} for t in vs]  # row i = m: u is used up
    for i in range(m - 1, -1, -1):
        a = u[i]
        row = [None] * n + [{u[i:]: 1}]
        for j in range(n - 1, -1, -1):
            row[j] = _cell(a, v[j], below[j], row[j + 1], below[j + 1],
                           codec, merge, mod)
            below[j + 1] = None  # no cell left to compute needs it
        below = row
    return below[0]


def _cell(a, b, rest_u, rest_v, rest_both, codec, merge, mod):
    """The product of a+s and b+t from three products: rest_u of s and
    b+t, rest_v of a+s and t, and rest_both of s and t."""
    res = {a + t: c for t, c in rest_u.items()}
    if b == a:
        _add_prefixed(res, b, rest_v, mod)
    else:
        res.update({b + t: c for t, c in rest_v.items()})
    if merge:
        ab = codec.merge(a, b)
        if ab == a or ab == b:
            _add_prefixed(res, ab, rest_both, mod)
        else:
            res.update({ab + t: c for t, c in rest_both.items()})
    return res


def _walk_cells(u, v, codec, merge, mod, memo):
    """The product of two nonempty code strings on a memo, computing only
    the cells it lacks.

    A cell is computed once its three children are at hand; a child with
    an empty side is the other word alone and is not kept.  The walk
    keeps its own stack, so long words do not recurse.
    """
    get = memo.get
    stack = [(u, v)]
    while stack:
        key = stack[-1]
        if key in memo:  # pushed twice, computed since
            stack.pop()
            continue
        s, t = key
        s1, t1 = s[1:], t[1:]
        rest_u = get((s1, t)) if s1 else {t: 1}
        rest_v = get((s, t1)) if t1 else {s: 1}
        rest_both = {}  # read only when merging
        if merge:
            rest_both = get((s1, t1)) if s1 and t1 else {s1 + t1: 1}
        if rest_u is None or rest_v is None or rest_both is None:
            if rest_u is None:
                stack.append((s1, t))
            if rest_v is None:
                stack.append((s, t1))
            if rest_both is None:
                stack.append((s1, t1))
            continue
        stack.pop()
        memo[key] = _cell(s[0], t[0], rest_u, rest_v, rest_both, codec,
                          merge, mod)
    return memo[u, v]


def _multi_shuffle(factors, codec, merge, mod, memo):
    """Counts of the words in the joint product of k code strings.

    A state is the sorted tuple of the factors' remaining suffixes, on
    which alone the product depends, so the memo is valid for any factors
    over one ring, weight and alphabet.  A move that takes the heads of j
    of the c equal suffixes counts comb(c, j) times, and one whose count
    vanishes mod `mod` is left out.  As in the binary product, merged
    slots are counted but not weighted.  The walk keeps its own stack, so
    long products do not recurse.
    """
    root = tuple(sorted(f for f in factors if f))
    memo.setdefault((), {"": 1})
    pending = {}
    stack = [root]
    while stack:
        st = stack[-1]
        if st in memo:
            stack.pop()
            continue
        moves = pending.get(st)
        if moves is None:
            moves = pending[st] = _moves(st, codec, merge, mod)
            missing = [nxt for _, _, nxt in moves if nxt not in memo]
            if missing:
                stack.extend(missing)
                continue
        stack.pop()
        del pending[st]
        acc = {}
        firsts = set()
        for letter, count, nxt in moves:
            sub = memo[nxt]
            if mod is None:
                part = {letter + t: c * count for t, c in sub.items()}
            else:
                part = {letter + t: x for t, c in sub.items()
                        if (x := c * count % mod)}
            if letter in firsts:
                _add_prefixed(acc, "", part, mod)  # prefixed already
            else:
                firsts.add(letter)
                acc.update(part)
        memo[st] = acc
    return memo[root]


def _moves(state, codec, merge, mod):
    """(letter, count, next state) for every way to fill the next slot:
    take the heads of a nonempty sub-multiset of the suffixes, one head
    alone at weight zero, and multiply them into one letter.  A class of
    c equal suffixes s offers, for each j, the j-fold product of s[0],
    comb(c, j) and the suffixes left; merging the classes' letters in
    class order multiplies the heads in the same order as one by one.
    """
    out = []
    if not merge:  # one head, taken from one class
        for s, group in itertools.groupby(state):
            count = len(tuple(group))
            if mod is not None:
                count %= mod
            if count:
                i = state.index(s)
                out.append((s[0], count, tuple(sorted(
                    state[:i] + state[i + 1:] + (s[1:],) * (len(s) > 1)))))
        return out
    tables = []
    for s, group in itertools.groupby(state):
        cnt = len(tuple(group))
        rest = (s[1:],) if len(s) > 1 else ()
        letter, table = None, []
        for j in range(cnt + 1):
            if j:
                letter = s[0] if j == 1 else codec.merge(letter, s[0])
            count = math.comb(cnt, j)
            if mod is not None:
                count %= mod
            if count:
                table.append((letter, count, rest * j + (s,) * (cnt - j)))
        tables.append(table)
    for choice in itertools.product(*tables):
        letter = None
        count = 1
        nxt = []
        for head, c, parts in choice:
            if head is not None:
                letter = head if letter is None else codec.merge(letter, head)
            count *= c
            nxt.extend(parts)
        if letter is None:
            continue
        if mod is not None:
            count %= mod
            if not count:
                continue
        out.append((letter, count, tuple(sorted(nxt))))
    return out


def _lam_powers(lam, top, mod):
    """num^k * den^(top-k) of lam = num/den for k = 0..top, reduced mod
    `mod` unless it is None: the k-th over den^top is lam^k."""
    num, den = lam.numerator, lam.denominator
    out = [num ** k * den ** (top - k) for k in range(top + 1)]
    return out if mod is None else [w % mod for w in out]


# memo slot holding the powers lam^0, lam^1, ... of an integral weight,
# reduced mod the ring's modulus, as far as the memo's products needed
_WEIGHTS = "weights"


def shuffle_sum(ring, lam, codec, memo, left, right, heads=False):
    """Sum of x*y times the product of the keys k and l, over (k, x) in
    left and (l, y) in right, with x, y integers.

    A key is a code string.  With heads its first character is a head
    letter: the product of k and l files each word t of the product of
    k[1:] and l[1:] under the head product k[0]*l[0] in front of t.
    Returns ({key: integer}, den): the sum is each integer over den, a
    common power of lam's denominator that the caller reduces
    (Combination._like).  The powers of an integral weight are kept on
    the memo (or on the call without one) and grown as a pair needs
    more; other weights over Q build one table per call over a common
    denominator.
    """
    if not left or not right:
        return {}, 1
    merge = not ring.is_zero(lam)
    mod = ring.modulus
    num, den = lam.numerator, lam.denominator
    if den == 1:
        top = 0
        weights = [1] if memo is None else memo.setdefault(_WEIGHTS, [1])
    else:
        # a pair merges at most as many slots as its right word has letters
        top = max(len(l) for l, _ in right) - heads
        weights = _lam_powers(lam, top, mod)
    acc = {}
    get = acc.get
    head = ""
    for k, x in left:
        u = k[heads:]
        for l, y in right:
            v = l[heads:]
            xy = x * y
            if heads:
                head = codec.multiply(k[0], l[0])
                if head is None:
                    raise ValueError("zero product of heads")
            if not u or not v:
                # the one word u then v, with no merged slot
                t = head + u + v
                acc[t] = get(t, 0) + xy * weights[0]
                continue
            counts = None if memo is None else memo.get((u, v))
            if counts is None:
                counts = _quasi_shuffle(u, v, codec, merge, mod, memo)
            # only at den 1: a table from _lam_powers covers every pair
            while len(weights) <= len(v):
                w = weights[-1] * num
                weights.append(w if mod is None else w % mod)
            size = len(u) + len(v)
            if acc:
                for t, c in counts.items():
                    key = head + t
                    acc[key] = get(key, 0) + xy * weights[size - len(t)] * c
            else:
                acc = {head + t: xy * weights[size - len(t)] * c
                       for t, c in counts.items()}
                get = acc.get
    return acc, den ** top


class Combination:
    """Finite linear combination of keys with coefficients in an exact
    ring, tagged with the mixing weight and the alphabet it lives over.

    This is the coefficient algebra that TensorPoly and RBElement share:
    coercion, sums, scaling, equality, products, text and JSON.  A
    subclass names its key (a word, or a head and a tail) and its code
    key, orders keys with key_order, lists terms in descending order or
    not, and writes one key as text and JSON.  Operands of two different
    subclasses never combine.

    Terms are held in the form shuffle_sum multiplies: code_terms maps
    each code key, a code string (a word's, or a head letter's in front
    of its tail's), to a nonzero integer, and the coefficient is that
    integer over den.  den is 1 except over Q, where it is the lcm of the
    coefficients' denominators, so no factor is common to den and every
    numerator; over F_p and Z/p^N the integers are the canonical
    residues.  Every element is reduced this way by _like, so products,
    sums, scaling and equality are dict work on integers.  The
    constructor is the one place keys are converted and rejects keys
    from another alphabet; terms is a read-only view keyed by words with
    canonical ring values, built on each read.
    """

    __slots__ = ("ring", "lam", "semigroup", "codec", "code_terms", "den")

    # render and to_json list terms in this direction of key_order
    descending = False
    # a code key's first character is a head letter, which multiplies in
    # the semigroup
    heads = False

    def __init__(self, ring, lam, semigroup, terms=None):
        self.ring, self.lam, self.semigroup = ring, ring.of(lam), semigroup
        self.codec = letter_codec(semigroup)
        clean = {}
        for key, coeff in (terms or {}).items():
            k = self.code_key(key, self.codec)
            c = ring.of(coeff)
            if c:
                clean[k] = c
        self.den = 1
        if ring.kind == Q:
            self.den = den = math.lcm(*[c.denominator for c in clean.values()])
            clean = {k: c.numerator * (den // c.denominator)
                     for k, c in clean.items()}
        self.code_terms = clean

    @classmethod
    def _canonical(cls, ring, lam, semigroup, code_terms, den):
        """Wrap code terms and a denominator that are already reduced."""
        out = cls.__new__(cls)
        out.ring, out.lam, out.semigroup, out.codec = \
            ring, lam, semigroup, letter_codec(semigroup)
        out.code_terms, out.den = code_terms, den
        return out

    def _like(self, raw, den=1):
        """The element over this ring, weight and alphabet whose
        coefficient at each code key k is raw[k] / den, for integers
        raw[k] and a positive den, 1 unless the ring is Q: residues mod
        the ring's modulus, or the fraction reduced by its gcd."""
        mod = self.ring.modulus
        if mod is not None:
            raw = {k: r for k, x in raw.items() if (r := x % mod)}
        else:
            raw = {k: x for k, x in raw.items() if x}
            if den != 1:
                g = math.gcd(den, *raw.values())
                if g != 1:
                    raw = {k: x // g for k, x in raw.items()}
                    den //= g
        return self._canonical(self.ring, self.lam, self.semigroup, raw, den)

    @property
    def terms(self):
        """{key: value} keyed by words, read-only; built on each read."""
        values = self.code_terms.values()
        if self.ring.kind == Q:
            den = self.den
            values = [Fraction(x, den) for x in values]
        return MappingProxyType(dict(zip(self._word_keys(), values)))

    def max_degree(self):
        """The largest degree of a key, the sum of its letters' degrees."""
        degrees = self.codec.degrees
        return max((sum(degrees[ord(c)] for c in k) for k in self.code_terms),
                   default=0)

    def _check(self, other):
        if type(other) is not type(self):
            raise ValueError("cannot combine %s with %s" % (
                type(self).__name__, type(other).__name__))
        if (self.ring != other.ring or self.lam != other.lam
                or self.semigroup != other.semigroup):
            raise ValueError("incompatible %s operands" % type(self).__name__)

    def is_zero(self):
        return not self.code_terms

    def support(self):
        """The keys with nonzero coefficient, ascending in key_order."""
        return sorted(self.terms, key=self.key_order)

    def __add__(self, other):
        self._check(other)
        den = math.lcm(self.den, other.den)
        a, b = den // self.den, den // other.den
        acc = {k: x * a for k, x in self.code_terms.items()}
        get = acc.get
        acc.update({k: get(k, 0) + x * b
                    for k, x in other.code_terms.items()})
        return self._like(acc, den)

    def __neg__(self):
        return self._like({k: -x for k, x in self.code_terms.items()},
                          self.den)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        c = self.ring.of(c)
        num = c.numerator
        return self._like({k: x * num for k, x in self.code_terms.items()},
                          self.den * c.denominator)

    def __mul__(self, other):
        if isinstance(other, Combination):
            return self.mul_shared(other, None)
        return self.scale(other)

    __rmul__ = scale

    def mul_shared(self, other, memo):
        """Product reusing a caller-held shuffle memo across many calls.

        The memo belongs to this ring, weight and alphabet; reusing it
        with others raises ValueError.  None shares nothing.
        """
        self._check(other)
        check_memo(memo, self.ring, self.lam, self.semigroup)
        return self._times(other, memo)

    def _times(self, other, memo):
        """The product with an operand of the same kind, ring, weight
        and alphabet, sharing memo (a dict that holds products over these
        only, or None); neither is checked."""
        acc, den = shuffle_sum(self.ring, self.lam, self.codec, memo,
                               self.code_terms.items(),
                               other.code_terms.items(), self.heads)
        return self._like(acc, self.den * other.den * den)

    def __eq__(self, other):
        return (type(other) is type(self) and self.ring == other.ring
                and self.lam == other.lam
                and self.semigroup == other.semigroup
                and self.den == other.den
                and self.code_terms == other.code_terms)

    def _listed(self):
        """The (key, value) terms, listed in the subclass's direction."""
        order = self.key_order
        return sorted(self.terms.items(), key=lambda kv: order(kv[0]),
                      reverse=self.descending)

    def render(self, ascii_mode=False):
        if not self.code_terms:
            return "0"
        R = self.ring
        dot = "*" if ascii_mode else "·"
        parts = []
        for k, v in self._listed():
            c = R.format(v)
            body = self._key_text(k, ascii_mode)
            if c == "1":
                parts.append(body)
            elif c == "-1":
                parts.append("-" + body)
            else:
                parts.append(f"{c}{dot}{body}")
        out = parts[0]
        for p in parts[1:]:
            out += " - " + p[1:] if p.startswith("-") else " + " + p
        return out

    def __repr__(self):
        return self.render(ascii_mode=True)

    def to_json(self):
        R = self.ring
        return {
            "ring": R.to_json(),
            "lambda": R.format(self.lam),
            "semigroup": self.semigroup.to_json(),
            "terms": [dict(self._key_json(k), coeff=R.format(v))
                      for k, v in self._listed()],
        }

    @classmethod
    def from_json(cls, data):
        ring = Ring.from_json(data["ring"])
        sg = OrderedSemigroup.from_json(data["semigroup"])
        terms = {}
        for entry in data["terms"]:
            terms[cls._key_from_json(sg, entry)] = ring.parse(entry["coeff"])
        return cls(ring, ring.parse(data["lambda"]), sg, terms)


class TensorPoly(Combination):
    """Linear combination of tensor words under the mixable shuffle."""

    __slots__ = ()

    descending = True

    @staticmethod
    def key_order(word):
        return word.pro_length_key

    @staticmethod
    def code_key(word, codec=None):
        """The code string of a word, which must be over codec if given."""
        if codec is not None and word.codec is not codec and word.codes:
            raise ValueError("word %r is not over this alphabet" % (word,))
        return word.codes

    def _word_keys(self):
        codec = self.codec
        return [_from_codes(codec, t) for t in self.code_terms]

    # named in each class body, so a tracer can wrap each kind's product
    mul_shared = Combination.mul_shared

    @staticmethod
    def _key_text(word, ascii_mode):
        return word.display(ascii_mode)

    @staticmethod
    def _key_json(word):
        return {"word": [l.name for l in word.letters]}

    @staticmethod
    def _key_from_json(semigroup, entry):
        return Word(tuple(semigroup.parse(t) for t in entry["word"]))

    @classmethod
    def zero(cls, ring, lam, semigroup):
        return cls(ring, lam, semigroup, {})

    @classmethod
    def unit(cls, ring, lam, semigroup):
        return cls(ring, lam, semigroup, {empty_word(): ring.one})

    @classmethod
    def from_word(cls, ring, lam, semigroup, word, coeff=1):
        return cls(ring, lam, semigroup, {word: ring.of(coeff)})

    def coefficient(self, word):
        """The coefficient of a word, by one lookup of its code string;
        zero for a word over another alphabet."""
        x = None
        if word.codec is self.codec or not word.codes:
            x = self.code_terms.get(word.codes)
        if x is None:
            return self.ring.zero
        return Fraction(x, self.den) if self.ring.kind == Q else x

    def leading_term(self):
        """(word, coeff) at the pro-length-largest word, or None."""
        terms = self.terms
        if not terms:
            return None
        word = max(terms, key=self.key_order)
        return word, terms[word]

    def shuffle_power(self, k):
        """k-th power, expanded multinomially into joint shuffles, one
        per multiset of k terms."""
        R = self.ring
        if k < 0:
            raise ValueError("negative shuffle power %d" % k)
        if k == 0:
            return TensorPoly.unit(R, self.lam, self.semigroup)
        if not self.code_terms:
            return TensorPoly.zero(R, self.lam, self.semigroup)
        codec = self.codec
        merge = not R.is_zero(self.lam)
        mod = R.modulus
        top = k * max(map(len, self.code_terms)) if merge else 0
        weights = _lam_powers(self.lam, top, mod)
        terms = list(self.code_terms.items())
        acc = {}
        memo = {}
        for multiset in itertools.combinations_with_replacement(
                range(len(terms)), k):
            coeff = math.factorial(k)
            for i, group in itertools.groupby(multiset):
                e = len(tuple(group))
                coeff = coeff // math.factorial(e) * terms[i][1] ** e
            if mod is not None and coeff % mod == 0:
                continue
            factors = [terms[i][0] for i in multiset]
            size = sum(map(len, factors))
            scaled = [coeff * w for w in weights]
            shuffled = _multi_shuffle(factors, codec, merge, mod, memo)
            if not acc:
                acc = {t: scaled[size - len(t)] * c
                       for t, c in shuffled.items()}
                continue
            get = acc.get
            for t, c in shuffled.items():
                acc[t] = get(t, 0) + scaled[size - len(t)] * c
        return self._like(acc, self.den ** k * self.lam.denominator ** top)


def word_poly(ring, lam, semigroup, letters, coeff=1):
    """Convenience: the polynomial with a single given word."""
    return TensorPoly.from_word(ring, lam, semigroup, Word(letters), coeff)


def shuffle_oracle(x, y):
    """Product of two polynomials computed by the enumeration oracle."""
    x._check(y)
    R = x.ring
    acc = {}
    y_terms = y.terms.items()
    for wu, cu in x.terms.items():
        for wv, cv in y_terms:
            c = R.mul(cu, cv)
            prods = shuffle_letters_oracle(wu.letters, wv.letters, R, x.lam)
            for letters, k in prods.items():
                _accumulate(acc, R, letters, R.mul(c, k))
    return TensorPoly(R, x.lam, x.semigroup,
                      {Word(l): c for l, c in acc.items()})


def length_rescale(x, c):
    """Multiply each word by c to the power of its length.

    With c invertible this is the map that identifies the product at
    weight lambda with the product at weight c*lambda.
    """
    c = x.ring.of(c)
    top = max(map(len, x.code_terms), default=0)
    powers = _lam_powers(c, top, None)
    return x._like({t: v * powers[len(t)] for t, v in x.code_terms.items()},
                   x.den * c.denominator ** top)


def with_weight(x, lam):
    """The same combination of words, re-tagged with another weight."""
    return TensorPoly._canonical(x.ring, x.ring.of(lam), x.semigroup,
                                 dict(x.code_terms), x.den)


def graded_basis(semigroup, degree, max_length=None):
    """All words of exactly the given degree, ascending pro-length order,
    as a tuple; over any coefficient ring they are a basis of the
    degree-n slice of the word space.

    Alphabets with an identity letter have infinitely many words per
    degree and need the length bound.
    """
    layers = _word_pieces(letter_codec(semigroup), degree, max_length)
    return tuple(w for layer in layers for w in layer.get(degree, ()))


def eettl_representative(ring, lam, semigroup, word, p):
    """The combination w - w^(p) with the letterwise p-th power.

    Only words that are tensor powers u^(p^k) of a Lyndon word u and are
    moved by the letterwise power map qualify; these differences generate
    the nilpotent factor in the split structure over F_p.
    """
    factors = cfl_factorize(word)
    if len(factors) != 1:
        raise ValueError("not a tensor power of a single Lyndon word")
    base, mult = factors[0]
    k = mult
    while k % p == 0:
        k //= p
    if k != 1:
        raise ValueError("tensor multiplicity %d is not a power of %d"
                         % (mult, p))
    moved = componentwise_p_power(word, p)
    if moved == word:
        raise ValueError("word is fixed by the letterwise power map")
    poly = TensorPoly.from_word(ring, lam, semigroup, word)
    return poly - TensorPoly.from_word(ring, lam, semigroup, moved)

"""Free commutative Rota-Baxter algebra on a monoid alphabet.

Elements are combinations of pairs (head, tail): a distinguished first
slot holding a monoid element and a tensor word tail.  The product
multiplies heads in the monoid and tails by the mixable shuffle of the
same weight; the operator P shifts the head into the tail and installs
the monoid identity as the new head.  With that product and operator
the Rota-Baxter identity

    P(x) P(y) = P(x P(y)) + P(P(x) y) + lam P(x y)

holds identically, and the algebra is the free commutative one on its
alphabet.  The alphabet must contain an identity, since P needs it.
"""

from .shuffle import memo_codec, ring_values, shuffle_sum
from .words import Word, empty_word, _pretty_name


class RBElement:
    """Combination of head-and-tail tensors over one coefficient ring."""

    __slots__ = ("ring", "lam", "semigroup", "terms")

    def __init__(self, ring, lam, semigroup, terms=None):
        ident = semigroup.identity
        if ident is None:
            raise ValueError("alphabet must contain an identity")
        self.ring = ring
        self.lam = ring.of(lam)
        self.semigroup = semigroup
        clean = {}
        if terms:
            for key, coeff in terms.items():
                c = ring.of(coeff)
                if not ring.is_zero(c):
                    clean[key] = c
        self.terms = clean

    @classmethod
    def _canonical(cls, ring, lam, semigroup, terms):
        """Wrap terms that already hold nonzero canonical values."""
        out = cls.__new__(cls)
        out.ring, out.lam, out.semigroup, out.terms = \
            ring, lam, semigroup, terms
        return out

    @classmethod
    def one(cls, ring, lam, semigroup):
        return cls(ring, lam, semigroup,
                   {(semigroup.identity, empty_word()): ring.one})

    @classmethod
    def from_parts(cls, ring, lam, semigroup, head, tail, coeff=1):
        return cls(ring, lam, semigroup, {(head, tail): ring.of(coeff)})

    def _check(self, other):
        if (self.ring != other.ring or self.lam != other.lam
                or self.semigroup != other.semigroup):
            raise ValueError("incompatible elements")

    def is_zero(self):
        return not self.terms

    def degree(self):
        return max((h.degree + t.degree for h, t in self.terms), default=0)

    def support(self):
        return sorted(self.terms,
                      key=lambda ht: (ht[1].pro_length_key,
                                      self.semigroup.sort_key_of(ht[0].key)))

    def __add__(self, other):
        self._check(other)
        R = self.ring
        acc = dict(self.terms)
        for key, c in other.terms.items():
            cur = acc.get(key)
            if cur is None:
                acc[key] = c
            else:
                s = R.add(cur, c)
                if R.is_zero(s):
                    del acc[key]
                else:
                    acc[key] = s
        return RBElement(R, self.lam, self.semigroup, acc)

    def __neg__(self):
        R = self.ring
        return RBElement(R, self.lam, self.semigroup,
                         {k: R.neg(c) for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        R = self.ring
        cv = R.of(c)
        return RBElement(R, self.lam, self.semigroup,
                         {k: R.mul(cv, x) for k, x in self.terms.items()})

    def __mul__(self, other):
        if not isinstance(other, RBElement):
            return self.scale(other)
        return self.mul_shared(other, None)

    def mul_shared(self, other, memo):
        """Product reusing a caller-held shuffle memo across many calls.

        The memo belongs to this ring, weight and alphabet; reusing it
        with others raises ValueError.  None shares nothing.
        """
        self._check(other)
        R = self.ring
        codec = memo_codec(memo, R, self.lam, self.semigroup)
        left = [(codec.code(h.key), codec.encode(t), c)
                for (h, t), c in self.terms.items()]
        right = [(codec.code(h.key), codec.encode(t), c)
                 for (h, t), c in other.terms.items()]
        acc, den = shuffle_sum(R, self.lam, codec, memo, left, right,
                               heads=True)
        terms = {}
        for h, raw in acc.items():
            head = codec.elements[h]
            terms.update(ring_values(
                R, raw, den, lambda t: (head, codec.decode(t))))
        return RBElement._canonical(R, self.lam, self.semigroup, terms)

    __rmul__ = scale

    def power(self, k):
        out = RBElement.one(self.ring, self.lam, self.semigroup)
        for _ in range(k):
            out = out * self
        return out

    def operator_p(self):
        """Shift each head into its tail, identity becomes the head."""
        ident = self.semigroup.identity
        acc = {}
        for (h, t), c in self.terms.items():
            key = (ident, Word((h,) + t.letters))
            acc[key] = self.ring.add(acc.get(key, self.ring.zero), c)
        return RBElement(self.ring, self.lam, self.semigroup, acc)

    def __eq__(self, other):
        return (isinstance(other, RBElement) and self.ring == other.ring
                and self.lam == other.lam
                and self.semigroup == other.semigroup
                and self.terms == other.terms)

    def render(self, ascii_mode=False):
        if not self.terms:
            return "0"
        R = self.ring
        sep = "(x)" if ascii_mode else "⊗"
        dot = "*" if ascii_mode else "·"
        parts = []
        for h, t in self.support():
            c = R.format(self.terms[(h, t)])
            body = h.name if ascii_mode else _pretty_name(h.name)
            if t.length:
                body += sep + t.display(ascii_mode)
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
        return {
            "ring": self.ring.to_json(),
            "lambda": self.ring.format(self.lam),
            "semigroup": self.semigroup.to_json(),
            "terms": [
                {"head": h.name,
                 "word": [l.name for l in t.letters],
                 "coeff": self.ring.format(self.terms[(h, t)])}
                for h, t in self.support()
            ],
        }

    @classmethod
    def from_json(cls, data):
        from .rings import Ring
        from .semigroups import OrderedSemigroup
        ring = Ring.from_json(data["ring"])
        sg = OrderedSemigroup.from_json(data["semigroup"])
        lam = ring.parse(data["lambda"])
        terms = {}
        for entry in data["terms"]:
            head = sg.parse(entry["head"])
            tail = Word(tuple(sg.parse(t) for t in entry["word"]))
            terms[(head, tail)] = ring.parse(entry["coeff"])
        return cls(ring, lam, sg, terms)


def check_rb_identity(x, y):
    """Does P(x)P(y) equal P(xP(y)) + P(P(x)y) + lam P(xy)?

    Returns (True, None) or (False, difference).
    """
    x._check(y)
    px, py = x.operator_p(), y.operator_p()
    left = px * py
    right = ((x * py).operator_p() + (px * y).operator_p()
             + (x * y).operator_p().scale(x.lam))
    diff = left - right
    return (diff.is_zero(), None if diff.is_zero() else diff)


def nested_p_element(ring, lam, semigroup, n):
    """P applied n times to the multiplicative unit."""
    out = RBElement.one(ring, lam, semigroup)
    for _ in range(n):
        out = out.operator_p()
    return out


def alphabet_generators(semigroup):
    """The degree-one generators x of a unitarized free abelian monoid."""
    from .semigroups import Element
    if semigroup.kind != "unitarize" or semigroup.inner.kind != "free_abelian":
        raise ValueError("expected a unitarized free abelian monoid")
    return [Element(semigroup, ("e", g.key))
            for g in semigroup.inner.generator_elements()]


def rbl_generating_set(ring, lam, semigroup, degree_bound, length_bound):
    """Polynomial generators of the full algebra over the rationals:
    the alphabet generators x as heads, plus 1 (x) w for every Lyndon
    word w within the bounds, the identity-letter word included.
    """
    from .words import enumerate_lyndon
    ident = semigroup.identity
    out = [RBElement.from_parts(ring, lam, semigroup, x, empty_word())
           for x in alphabet_generators(semigroup)]
    for w in enumerate_lyndon(semigroup, degree_bound, length_bound):
        out.append(RBElement.from_parts(ring, lam, semigroup, ident, w))
    return out


def rbaz_interior_identity_span(ring, lam, semigroup, degree_bound,
                                length_bound):
    """Pure tensors within the bounds whose tail contains the identity.

    These words span a complementary direct summand: the rest of the
    algebra is polynomial on an explicit generating set, and no product
    of those generators meets this span.
    """
    from .words import enumerate_words
    ident = semigroup.identity
    out = []
    for tail in enumerate_words(semigroup, degree_bound, length_bound):
        if not any(l.is_identity() for l in tail.letters):
            continue
        for head in semigroup.elements_up_to(degree_bound - tail.degree):
            if head.degree + tail.degree <= degree_bound:
                out.append(RBElement.from_parts(ring, lam, semigroup,
                                                head, tail))
    return out

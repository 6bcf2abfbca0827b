"""Free commutative Rota-Baxter algebra on a monoid alphabet.

Elements are combinations of pairs (head, tail): a distinguished first
slot holding a monoid element and a tensor word tail.  This is the
construction A (x) Sh(A) with A the monoid algebra, so an element is a
tensor polynomial with a head slot, and RBElement shares its coefficient
algebra, term order, text and JSON with TensorPoly through the
Combination core of the shuffle module.  The product
multiplies heads in the monoid and tails by the mixable shuffle of the
same weight; the operator P shifts the head into the tail and installs
the monoid identity as the new head.  With that product and operator
the Rota-Baxter identity

    P(x) P(y) = P(x P(y)) + P(P(x) y) + lam P(x y)

holds identically, and the algebra is the free commutative one on its
alphabet.  The alphabet must contain an identity, since P needs it.
"""

from .semigroups import letter_codec
from .shuffle import Combination, TensorPoly
from .words import Word, _from_codes, empty_word, _pretty_name


class RBElement(Combination):
    """Combination of head-and-tail tensors over one coefficient ring.

    A key is a pair (head, tail): a monoid element and a tensor word.
    Terms are listed in ascending order, tail first, then head.
    """

    __slots__ = ()

    heads = True

    def __init__(self, ring, lam, semigroup, terms=None):
        if semigroup.identity is None:
            raise ValueError("alphabet must contain an identity")
        super().__init__(ring, lam, semigroup, terms)

    @staticmethod
    def key_order(key):
        head, tail = key
        return (tail.pro_length_key, head.sort_key)

    @staticmethod
    def code_key(key, codec=None):
        """(head code, tail code string), both over codec if given."""
        head, tail = key
        if codec is not None and letter_codec(head.semigroup) is not codec:
            raise ValueError("head %r is not over this alphabet" % (head,))
        return head.code, TensorPoly.code_key(tail, codec)

    def _word_keys(self):
        codec = self.codec
        return [(codec.elements[h], _from_codes(codec, t))
                for h, t in self.code_terms]

    mul_shared = Combination.mul_shared

    @staticmethod
    def _key_text(key, ascii_mode):
        head, tail = key
        body = head.name if ascii_mode else _pretty_name(head.name)
        if tail.length:
            body += ("(x)" if ascii_mode else "⊗") + tail.display(ascii_mode)
        return body

    @staticmethod
    def _key_json(key):
        head, tail = key
        return {"head": head.name, "word": [l.name for l in tail.letters]}

    @staticmethod
    def _key_from_json(semigroup, entry):
        return (semigroup.parse(entry["head"]),
                Word(tuple(semigroup.parse(t) for t in entry["word"])))

    @classmethod
    def one(cls, ring, lam, semigroup):
        return cls(ring, lam, semigroup,
                   {(semigroup.identity, empty_word()): ring.one})

    @classmethod
    def from_parts(cls, ring, lam, semigroup, head, tail, coeff=1):
        return cls(ring, lam, semigroup, {(head, tail): ring.of(coeff)})

    def degree(self):
        degrees = self.codec.degrees
        return max((degrees[h] + sum(degrees[ord(c)] for c in t)
                    for h, t in self.code_terms), default=0)

    def power(self, k):
        if k < 0:
            raise ValueError("negative power %d" % k)
        out = RBElement.one(self.ring, self.lam, self.semigroup)
        for _ in range(k):
            out = out * self
        return out

    def operator_p(self):
        """Shift each head into its tail, identity becomes the head."""
        e = self.semigroup.identity.code
        return self._like({(e, chr(h) + t): c
                           for (h, t), c in self.code_terms.items()}, self.den)


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


def alphabet_generators(semigroup):
    """The degree-one generators x of a unitarized free abelian monoid."""
    from .semigroups import Element
    if semigroup.kind != "unitarize" or semigroup.inner.kind != "free_abelian":
        raise ValueError("expected a unitarized free abelian monoid")
    return [Element(semigroup, ("e", g.key))
            for g in semigroup.inner.generator_elements()]

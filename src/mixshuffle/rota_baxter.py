"""Free commutative Rota-Baxter algebra on a monoid alphabet.

Elements are combinations of pairs (head, tail): a distinguished first
slot holding a monoid element and a tensor word tail.  This is the
construction A (x) Sh(A) with A the monoid algebra, so a pair is a word
over the monoid whose first letter multiplies in the monoid and whose
rest mixable-shuffles.  Its code key is that word's code string, the
head's character in front of the tail's, and RBElement shares its
coefficient algebra, term order, text and JSON with TensorPoly through
the Combination core of the shuffle module.  The product
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

    A key is a pair (head, tail): a monoid element and a tensor word, and
    its code key the code string of the word head then tail.  Terms are
    listed in ascending order, tail first, then head.
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
        """The head's character in front of the tail's code string, both
        over codec if given."""
        head, tail = key
        if codec is not None and letter_codec(head.semigroup) is not codec:
            raise ValueError("head %r is not over this alphabet" % (head,))
        return chr(head.code) + TensorPoly.code_key(tail, codec)

    def _word_keys(self):
        codec = self.codec
        return [(codec.elements[ord(k[0])], _from_codes(codec, k[1:]))
                for k in self.code_terms]

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

    degree = Combination.max_degree

    def power(self, k):
        if k < 0:
            raise ValueError("negative power %d" % k)
        out = RBElement.one(self.ring, self.lam, self.semigroup)
        for _ in range(k):
            out = out * self
        return out

    def operator_p(self):
        """Shift each head into its tail, identity becomes the head."""
        e = chr(self.semigroup.identity.code)
        return self._like({e + k: c for k, c in self.code_terms.items()},
                          self.den)


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

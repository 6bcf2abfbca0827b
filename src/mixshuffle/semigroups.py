"""Ordered commutative semigroups used as letter alphabets.

Five constructions: free abelian semigroups with degree-then-lex order,
finite commutative semigroups given by a multiplication table, elementary
abelian p-groups, adjoining an identity below everything, and binary
products with the lexicographic order.  A bare ordered set is also
provided; it multiplies to zero, which is the right reading for weight
zero products (and for any weight, merged letters simply vanish).

Elements are lightweight keys interpreted by their semigroup.  Orders are
total, and each alphabet defines its order once, as a tuple of ints per
letter (sort_key_of); comparisons across different semigroups raise.
Each alphabet, up to equality, has one LetterCodec that numbers its
letters with small ints and tables their products, p-th powers, sorted
letter windows and word pools; words, the product kernels,
elements_up_to and p_power_preimages all read those tables.

classify() tests, inside a degree window, the order/power compatibility
conditions that the structure theorems key on:

  power-order         a > b implies a^p > b^p, and a^p >= a
  power-split         g^{p^2} = g^p, and every p-fixed element is below
                      every non-fixed one
  p-idempotent        finite with g^p = g throughout
  elementary-p-group  finite group of exponent p, identity smallest
  free-abelian        structural tag for the free abelian kind
"""

import functools
import itertools
import json
import sys

from .rings import _is_prime


@functools.total_ordering
class Element:
    __slots__ = ("semigroup", "key", "_hash", "_sort", "_code")

    def __init__(self, semigroup, key):
        self.semigroup = semigroup
        self.key = key
        self._hash = None
        self._sort = None
        self._code = None

    def __mul__(self, other):
        if other.semigroup != self.semigroup:
            raise ValueError("elements of different semigroups")
        k = self.semigroup.multiply_keys(self.key, other.key)
        return None if k is None else Element(self.semigroup, k)

    def __pow__(self, n):
        if n < 1:
            raise ValueError("semigroup powers need n >= 1")
        acc = None
        base = self
        while n:
            if n & 1:
                acc = base if acc is None else acc * base
                if acc is None:
                    return None
            n >>= 1
            if n:
                base = base * base
                if base is None:
                    return None
        return acc

    @property
    def degree(self):
        return self.semigroup.degree_key(self.key)

    @property
    def name(self):
        return self.semigroup.name_key(self.key)

    def is_identity(self):
        return self.semigroup.has_identity and self.key == self.semigroup.identity_key

    def __eq__(self, other):
        return (isinstance(other, Element) and other.key == self.key
                and (other.semigroup is self.semigroup
                     or other.semigroup == self.semigroup))

    def __lt__(self, other):
        if not isinstance(other, Element) or other.semigroup != self.semigroup:
            raise TypeError("cannot compare elements of different semigroups")
        return self.sort_key < other.sort_key

    @property
    def sort_key(self):
        # immutable, so both caches are filled at most once
        s = self._sort
        if s is None:
            s = self._sort = self.semigroup.sort_key_of(self.key)
        return s

    @property
    def code(self):
        """This letter's code in the codec of its alphabet."""
        c = self._code
        if c is None:
            c = self._code = letter_codec(self.semigroup).code(self.key)
        return c

    def __hash__(self):
        h = self._hash
        if h is None:
            h = self._hash = hash(self.key)
        return h

    def __repr__(self):
        return self.name


class LetterCodec:
    """Small-int codes for the letters of one alphabet.

    letter_codec keeps one codec per alphabet up to equality, so a code
    names the same letter under every equal semigroup object.  Codes are
    handed out in first-seen order.  The element, sort key and degree of
    each code are kept, and products and p-th powers of codes are cached
    in tables, so the product kernels never build, hash or multiply an
    Element: they work on code strings, chr(code) per letter as a Word
    holds them, so a code is at most sys.maxunicode.  The word layer's
    data is kept too, as tuples filled on first use: the letter codes of
    each degree bound, ascending; the p-th power preimages of each (code,
    p); the word pieces of each exact (length, degree), which words.py
    builds.
    """

    __slots__ = ("semigroup", "codes", "keys", "elements", "sort_keys",
                 "degrees", "products", "powers", "windows", "preimages",
                 "pieces")

    def __init__(self, semigroup):
        self.semigroup = semigroup
        self.codes = {}
        self.keys = []
        self.elements = []
        self.sort_keys = []
        self.degrees = []
        self.products = {}
        self.powers = {}
        self.windows = {}
        self.preimages = {}
        self.pieces = {}

    def code(self, key):
        """The code of the letter with this Element.key."""
        c = self.codes.get(key)
        if c is None:
            c = len(self.keys)
            if c > sys.maxunicode:
                raise ValueError("letter code %d is past sys.maxunicode: a "
                                 "word holds each code as one character" % c)
            self.codes[key] = c
            letter = Element(self.semigroup, key)
            letter._code = c
            self.keys.append(key)
            self.elements.append(letter)
            self.sort_keys.append(letter.sort_key)
            self.degrees.append(letter.degree)
        return c

    def multiply(self, a, b):
        """The product of two letters as characters, None for zero."""
        try:
            return self.products[a, b]
        except KeyError:
            k = self.semigroup.multiply_keys(self.keys[ord(a)],
                                             self.keys[ord(b)])
            c = None if k is None else chr(self.code(k))
            self.products[a, b] = self.products[b, a] = c
            return c

    def merge(self, a, b):
        """The product of two letters (characters) merged into one slot."""
        c = self.multiply(a, b)
        if c is None:
            raise ValueError(
                "letters %r and %r do not multiply; only weight zero "
                "works over a bare ordered set"
                % (self.elements[ord(a)], self.elements[ord(b)]))
        return c

    def power(self, a, p):
        """The code of the p-th power of a letter, None for zero.

        Taken by repeated products in the semigroup, never from a
        congruence that a verifier checks.
        """
        try:
            return self.powers[a, p]
        except KeyError:
            lp = self.elements[a] ** p
            c = self.powers[a, p] = None if lp is None else self.code(lp.key)
            return c

    def window(self, max_degree):
        """The codes of the letters of degree <= max_degree, ascending."""
        window = self.windows.get(max_degree)
        if window is None:
            sg = self.semigroup
            keys = sorted(sg.iter_keys(max_degree), key=sg.sort_key_of)
            window = self.windows[max_degree] = tuple(map(self.code, keys))
        return window

    def roots(self, a, p):
        """The codes u with u^p == a, all of them: graded roots have
        degree deg(a)/p, finite slots add a bounded slack."""
        roots = self.preimages.get((a, p))
        if roots is None:
            bound = max(self.degrees[a] + self.semigroup.root_degree_slack(),
                        1)
            roots = self.preimages[a, p] = tuple(
                [u for u in self.window(bound) if self.power(u, p) == a])
        return roots


# one codec per alphabet up to equality (semigroups hash by descriptor):
# words compare on their codes, so equal alphabets must share them.  A
# codec lives as long as the process.
_CODECS = {}


def letter_codec(semigroup):
    """The codec shared by every alphabet equal to this one."""
    codec = semigroup._codec
    if codec is None:
        codec = _CODECS.get(semigroup)
        if codec is None:
            codec = _CODECS[semigroup] = LetterCodec(semigroup)
        semigroup._codec = codec
    return codec


class OrderedSemigroup:
    kind = None

    # subclasses implement: multiply_keys, sort_key_of, degree_key, name_key,
    # parse_letter, iter_keys(max_degree), descriptor, to_json
    has_identity = False
    identity_key = None
    is_finite = False
    # this alphabet's LetterCodec, looked up on first use
    _codec = None

    @property
    def identity(self):
        return Element(self, self.identity_key) if self.has_identity else None

    def elements_up_to(self, max_degree):
        codec = letter_codec(self)
        return list(map(codec.elements.__getitem__, codec.window(max_degree)))

    def parse(self, text):
        return Element(self, self.parse_letter(text))

    def root_degree_slack(self):
        # extra degree a p-th root may carry beyond deg(g): one per finite slot
        return 0

    def sort_key_of(self, key):
        """The tuple of ints that places this letter in the order.

        This is the one definition of the alphabet's order: Element
        comparisons and elements_up_to both read it.  Within one
        semigroup no key is a proper prefix of another (uniform length
        per leading tag), so a product alphabet that concatenates the
        keys of its factors is ordered left factor first.
        """
        raise NotImplementedError

    def p_power_preimages(self, g, p):
        """All u with u^p == g, ascending."""
        if g.semigroup != self:
            return []
        codec = letter_codec(self)
        return list(map(codec.elements.__getitem__, codec.roots(g.code, p)))

    def classify(self, p, degree_bound=4):
        tags = set()
        if self.kind == "ordered_set":
            tags.add("zero-mult-set")
            return tags
        elems = self.elements_up_to(degree_bound)
        powers = {g.key: g ** p for g in elems}
        if any(v is None for v in powers.values()):
            return tags
        # elems ascend, so each pair below is already (smaller, larger)
        if all(not (powers[g.key] < g) for g in elems) and all(
                powers[a.key] < powers[b.key]
                for a, b in itertools.combinations(elems, 2)):
            tags.add("power-order")
        split_ok = all((powers[g.key] ** p) == powers[g.key] for g in elems)
        if split_ok:
            fixed = [g for g in elems if powers[g.key] == g]
            moved = [g for g in elems if powers[g.key] != g]
            split_ok = all(f < m for f in fixed for m in moved)
        if split_ok:
            tags.add("power-split")
        if self.is_finite:
            if all(powers[g.key] == g for g in elems):
                tags.add("p-idempotent")
            if self.has_identity:
                e = self.identity
                group = all(any(g * h == e for h in elems) for g in elems)
                if group and all(powers[g.key] == e for g in elems) \
                        and all(e <= g for g in elems):
                    tags.add("elementary-p-group")
        if self.kind == "free_abelian":
            tags.add("free-abelian")
        return tags

    def split_p_fixed(self, p, degree_bound=4):
        """Partition the window into (fixed by g -> g^p, moved by it)."""
        codec = letter_codec(self)
        fixed, moved = [], []
        for g in self.elements_up_to(degree_bound):
            c = g.code
            (fixed if codec.power(c, p) == c else moved).append(g)
        return fixed, moved

    def p_divisible(self, p, degree_bound=4):
        """Window part of the intersection of the p^r-th power images.

        Enough rounds are taken for p^rounds to clear the degree window,
        after which the intersection is stable for graded alphabets.
        """
        if p < 2:
            raise ValueError("p-divisibility needs p >= 2, not %s" % p)
        rounds = 1
        while p ** rounds <= degree_bound:
            rounds += 1
        window = self.elements_up_to(degree_bound)
        result = set(window)
        for r in range(1, rounds + 1):
            image = set()
            for g in window:
                gp = g ** (p ** r)
                if gp is not None:
                    image.add(gp)
            result &= image
        return sorted(result)

    def __eq__(self, other):
        return other is self or (isinstance(other, OrderedSemigroup)
                                 and self.descriptor() == other.descriptor())

    def __hash__(self):
        return hash(self.descriptor())

    def __repr__(self):
        return json.dumps(self.to_json())

    @staticmethod
    def from_json(data):
        if isinstance(data, str):
            data = json.loads(data)
        kind = data["kind"]
        if kind == "free_abelian":
            return FreeAbelian(data["generators"])
        if kind == "ordered_set":
            return OrderedSet(data["letters"])
        if kind == "mu_p":
            return ElementaryPGroup(data["p"], data.get("copies", 1))
        if kind == "p_idempotent":
            return FiniteTableSemigroup(data["table"], data.get("order"),
                                        data.get("names"))
        if kind == "unitarize":
            return Unitarized(OrderedSemigroup.from_json(data["inner"]))
        if kind == "product":
            return ProductSemigroup(OrderedSemigroup.from_json(data["left"]),
                                    OrderedSemigroup.from_json(data["right"]))
        raise ValueError("unknown semigroup kind %r" % kind)


class FreeAbelian(OrderedSemigroup):
    """Free abelian semigroup on an ordered finite generator list.

    Elements are monomials with total degree >= 1.  Order: lower degree
    first; at equal degree the monomial whose sorted letter sequence is
    lexicographically smaller comes first, which amounts to comparing
    exponents of the smallest generator downward, larger exponent first.
    """

    kind = "free_abelian"

    def __init__(self, generators):
        self.generators = tuple(generators)
        if len(set(self.generators)) != len(self.generators):
            raise ValueError("duplicate generator names")

    def multiply_keys(self, k1, k2):
        return tuple(a + b for a, b in zip(k1, k2))

    def degree_key(self, k):
        return sum(k)

    def sort_key_of(self, k):
        return (sum(k),) + tuple(-e for e in k)

    def name_key(self, k):
        parts = []
        for g, e in zip(self.generators, k):
            if e == 1:
                parts.append(g)
            elif e > 1:
                parts.append("%s^%d" % (g, e))
        return "*".join(parts) if parts else "1"

    def parse_letter(self, text):
        exps = [0] * len(self.generators)
        for part in text.strip().split("*"):
            if "^" in part:
                g, e = part.split("^", 1)
                e = int(e)
            else:
                g, e = part, 1
            if g not in self.generators:
                raise ValueError("unknown generator %r" % g)
            exps[self.generators.index(g)] += e
        if sum(exps) < 1:
            raise ValueError("free abelian letters need degree >= 1")
        return tuple(exps)

    def iter_keys(self, max_degree):
        n = len(self.generators)
        if n == 0:
            return
        for d in range(1, max_degree + 1):
            yield from _compositions(d, n)

    def generator_elements(self):
        out = []
        for i in range(len(self.generators)):
            key = tuple(1 if j == i else 0 for j in range(len(self.generators)))
            out.append(Element(self, key))
        return out

    def descriptor(self):
        return ("free_abelian", self.generators)

    def to_json(self):
        return {"kind": "free_abelian", "generators": list(self.generators)}


class OrderedSet(OrderedSemigroup):
    """A bare well-ordered alphabet; all products are zero."""

    kind = "ordered_set"

    def __init__(self, letters):
        self.letters = tuple(letters)
        if len(set(self.letters)) != len(self.letters):
            raise ValueError("duplicate letters")

    def multiply_keys(self, k1, k2):
        return None

    def degree_key(self, k):
        return 1

    def sort_key_of(self, k):
        return (k,)

    def name_key(self, k):
        return self.letters[k]

    def parse_letter(self, text):
        return self.letters.index(text.strip())

    def iter_keys(self, max_degree):
        if max_degree >= 1:
            yield from range(len(self.letters))

    def descriptor(self):
        return ("ordered_set", self.letters)

    def to_json(self):
        return {"kind": "ordered_set", "letters": list(self.letters)}


class FiniteTableSemigroup(OrderedSemigroup):
    """Finite commutative semigroup from an explicit multiplication table.

    table[i][j] is the index of the product.  order lists element indices
    from smallest to largest (default: table order).  Commutativity and
    associativity are checked up front; whether g^p = g holds is a
    property of the pair (table, p) and is left to classify().
    """

    kind = "p_idempotent"
    is_finite = True

    def __init__(self, table, order=None, names=None):
        self.table = tuple(tuple(row) for row in table)
        k = len(self.table)
        for row in self.table:
            if len(row) != k or any(not (0 <= x < k) for x in row):
                raise ValueError("malformed multiplication table")
        for i in range(k):
            for j in range(k):
                if self.table[i][j] != self.table[j][i]:
                    raise ValueError("table is not commutative")
                for l in range(k):
                    if self.table[self.table[i][j]][l] != self.table[i][self.table[j][l]]:
                        raise ValueError("table is not associative")
        self.order = tuple(order) if order is not None else tuple(range(k))
        if sorted(self.order) != list(range(k)):
            raise ValueError("order must be a permutation of element indices")
        self.rank_of = {idx: pos for pos, idx in enumerate(self.order)}
        self.names = tuple(names) if names is not None \
            else tuple("s%d" % i for i in range(k))
        ident = None
        for e in range(k):
            if all(self.table[e][g] == g for g in range(k)):
                ident = e
                break
        self._identity = ident

    @property
    def has_identity(self):
        return self._identity is not None

    @property
    def identity_key(self):
        return self._identity

    def multiply_keys(self, k1, k2):
        return self.table[k1][k2]

    def degree_key(self, k):
        return 0 if k == self._identity else 1

    def sort_key_of(self, k):
        return (self.rank_of[k],)

    def name_key(self, k):
        return self.names[k]

    def parse_letter(self, text):
        return self.names.index(text.strip())

    def iter_keys(self, max_degree):
        for k in range(len(self.table)):
            if self.degree_key(k) <= max_degree:
                yield k

    def root_degree_slack(self):
        return 1

    def descriptor(self):
        return ("table", self.table, self.order, self.names)

    def to_json(self):
        return {"kind": "p_idempotent", "table": [list(r) for r in self.table],
                "order": list(self.order), "names": list(self.names)}


class ElementaryPGroup(OrderedSemigroup):
    """(Z/p)^k with componentwise addition; the identity is smallest."""

    kind = "mu_p"
    is_finite = True
    has_identity = True

    def __init__(self, p, copies=1):
        if not _is_prime(p):
            raise ValueError("p must be a prime, got %r" % (p,))
        self.p = p
        self.copies = copies
        self.identity_key = (0,) * copies

    def multiply_keys(self, k1, k2):
        return tuple((a + b) % self.p for a, b in zip(k1, k2))

    def degree_key(self, k):
        return 0 if k == self.identity_key else 1

    def sort_key_of(self, k):
        return k

    def name_key(self, k):
        if k == self.identity_key:
            return "e"
        parts = []
        for i, e in enumerate(k):
            g = "g%d" % (i + 1) if self.copies > 1 else "g"
            if e == 1:
                parts.append(g)
            elif e > 1:
                parts.append("%s^%d" % (g, e))
        return "*".join(parts)

    def parse_letter(self, text):
        text = text.strip()
        if text == "e":
            return self.identity_key
        exps = [0] * self.copies
        for part in text.split("*"):
            if "^" in part:
                g, e = part.split("^", 1)
                e = int(e)
            else:
                g, e = part, 1
            idx = 0 if g == "g" and self.copies == 1 else int(g[1:]) - 1
            exps[idx] = (exps[idx] + e) % self.p
        return tuple(exps)

    def iter_keys(self, max_degree):
        for key in itertools.product(range(self.p), repeat=self.copies):
            if self.degree_key(key) <= max_degree:
                yield key

    def root_degree_slack(self):
        return 1

    def descriptor(self):
        return ("mu_p", self.p, self.copies)

    def to_json(self):
        return {"kind": "mu_p", "p": self.p, "copies": self.copies}


class Unitarized(OrderedSemigroup):
    """The inner semigroup with a fresh identity adjoined below everything."""

    kind = "unitarize"
    has_identity = True
    identity_key = ("1",)

    def __init__(self, inner):
        self.inner = inner

    @property
    def is_finite(self):
        return self.inner.is_finite

    def multiply_keys(self, k1, k2):
        if k1 == self.identity_key:
            return k2
        if k2 == self.identity_key:
            return k1
        prod = self.inner.multiply_keys(k1[1], k2[1])
        return None if prod is None else ("e", prod)

    def degree_key(self, k):
        if k == self.identity_key:
            return 0
        d = self.inner.degree_key(k[1])
        # an inner quasi-identity is not the identity here, so it counts
        return d if d >= 1 else 1

    def sort_key_of(self, k):
        if k == self.identity_key:
            return (0,)
        return (1,) + self.inner.sort_key_of(k[1])

    def name_key(self, k):
        return "1" if k == self.identity_key else self.inner.name_key(k[1])

    def parse_letter(self, text):
        text = text.strip()
        if text == "1":
            return self.identity_key
        return ("e", self.inner.parse_letter(text))

    def iter_keys(self, max_degree):
        yield self.identity_key
        for k in self.inner.iter_keys(max_degree):
            if self.degree_key(("e", k)) <= max_degree:
                yield ("e", k)

    def root_degree_slack(self):
        return self.inner.root_degree_slack()

    def descriptor(self):
        return ("unitarize", self.inner.descriptor())

    def to_json(self):
        return {"kind": "unitarize", "inner": self.inner.to_json()}


class ProductSemigroup(OrderedSemigroup):
    """Componentwise product with lexicographic order, left factor first."""

    kind = "product"

    def __init__(self, left, right):
        self.left = left
        self.right = right

    @property
    def is_finite(self):
        return self.left.is_finite and self.right.is_finite

    @property
    def has_identity(self):
        return self.left.has_identity and self.right.has_identity

    @property
    def identity_key(self):
        return (self.left.identity_key, self.right.identity_key)

    def multiply_keys(self, k1, k2):
        l = self.left.multiply_keys(k1[0], k2[0])
        r = self.right.multiply_keys(k1[1], k2[1])
        return None if l is None or r is None else (l, r)

    def degree_key(self, k):
        return self.left.degree_key(k[0]) + self.right.degree_key(k[1])

    def sort_key_of(self, k):
        return self.left.sort_key_of(k[0]) + self.right.sort_key_of(k[1])

    def name_key(self, k):
        return "(%s,%s)" % (self.left.name_key(k[0]), self.right.name_key(k[1]))

    def parse_letter(self, text):
        text = text.strip()
        if not (text.startswith("(") and text.endswith(")")):
            raise ValueError("product letters look like (a,b)")
        l, r = text[1:-1].split(",", 1)
        return (self.left.parse_letter(l), self.right.parse_letter(r))

    def iter_keys(self, max_degree):
        for kl in self.left.iter_keys(max_degree):
            dl = self.left.degree_key(kl)
            if dl > max_degree:
                continue
            for kr in self.right.iter_keys(max_degree - dl):
                yield (kl, kr)

    def root_degree_slack(self):
        return self.left.root_degree_slack() + self.right.root_degree_slack()

    def descriptor(self):
        return ("product", self.left.descriptor(), self.right.descriptor())

    def to_json(self):
        return {"kind": "product", "left": self.left.to_json(),
                "right": self.right.to_json()}


def _compositions(total, parts):
    """All tuples of `parts` nonnegative ints summing to total, in
    lexicographic order."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest


def cyclic_group_table(n):
    """Multiplication table of the cyclic group of order n.

    Element i stands for g^(i+1); index n-1 is the identity g^n.  For a
    prime p, the order n = p-1 group is p-idempotent since g^p = g.
    """
    table = [[(i + j + 1) % n for j in range(n)] for i in range(n)]
    names = ["g" if i == 0 else "g^%d" % (i + 1) for i in range(n - 1)]
    names.append("id" if n > 1 else "g")
    return table, names


def min_semilattice(names):
    """Chain semilattice x*y = min(x, y); idempotent for every p.

    Note the top of the chain acts as an identity.
    """
    k = len(names)
    table = [[min(i, j) for j in range(k)] for i in range(k)]
    return FiniteTableSemigroup(table, names=list(names))


def flat_semilattice(names):
    """Meet semilattice of a flat poset: x*x = x, x*y = bottom for x != y.

    Idempotent for every p and has no identity once len(names) >= 3.
    """
    k = len(names)
    table = [[i if i == j else 0 for j in range(k)] for i in range(k)]
    return FiniteTableSemigroup(table, names=list(names))


def semigroup_from_preset(text):
    """Parse compact presets: free:x,y  set:x,y  mu:p,k  idem:<json path>."""
    text = text.strip()
    if ":" not in text:
        raise ValueError("preset looks like kind:args, got %r" % text)
    head, args = text.split(":", 1)
    if head == "free":
        return FreeAbelian([g.strip() for g in args.split(",")])
    if head == "set":
        return OrderedSet([g.strip() for g in args.split(",")])
    if head == "mu":
        parts = [int(x) for x in args.split(",")]
        p = parts[0]
        copies = parts[1] if len(parts) > 1 else 1
        return ElementaryPGroup(p, copies)
    if head == "idem":
        with open(args) as fh:
            return OrderedSemigroup.from_json(json.load(fh))
    raise ValueError("unknown preset %r" % head)

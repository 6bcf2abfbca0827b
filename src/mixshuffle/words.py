"""Tensor words over an ordered semigroup.

A word is a finite tuple of letters.  Two orders matter: plain
lexicographic order (a proper prefix is smaller), which defines Lyndon
words, and pro-length order (shorter first, then letterwise), which is
the order leading terms are read in.

Every word factors uniquely as a non-increasing concatenation of Lyndon
words; cfl_factorize computes it by Duval's algorithm, which only ever
compares letters and so works over any ordered alphabet.

The letterwise p-th power w -> w^(p) (each letter raised to the p-th
power inside the semigroup) drives three constructions used by the
classification of shuffle powers: T spans a set by tensor-repetition
p^k times, E keeps the words that are fixed by or outside the image of
the letterwise power, and subscript_split separates fixed from moved.
"""


class Word:
    __slots__ = ("letters", "keys", "_degree")

    def __init__(self, letters):
        self.letters = tuple(letters)
        self.keys = tuple(l.sort_key for l in self.letters)
        self._degree = None

    @classmethod
    def with_keys(cls, letters, keys):
        """A word from a letter tuple and its already known sort keys."""
        w = cls.__new__(cls)
        w.letters = letters
        w.keys = keys
        w._degree = None
        return w

    @property
    def length(self):
        return len(self.letters)

    @property
    def degree(self):
        if self._degree is None:
            self._degree = sum(l.degree for l in self.letters)
        return self._degree

    @property
    def pro_length_key(self):
        return (len(self.keys), self.keys)

    def suffix(self, i):
        return Word(self.letters[i:])

    def concat(self, other):
        return Word(self.letters + other.letters)

    def tensor_power(self, t):
        return Word(self.letters * t)

    def __eq__(self, other):
        return isinstance(other, Word) and self.letters == other.letters

    def __hash__(self):
        # equal words have equal sort keys, and plain tuples hash in C
        return hash(self.keys)

    def __len__(self):
        return len(self.letters)

    def __repr__(self):
        if not self.letters:
            return "1"
        return "(x)".join(l.name for l in self.letters)

    def display(self, ascii_mode=False):
        if not self.letters:
            return "1"
        if ascii_mode:
            return "(x)".join(l.name for l in self.letters)
        return "⊗".join(_pretty_name(l.name) for l in self.letters)


_SUPERSCRIPTS = str.maketrans("0123456789", "⁰¹²³⁴⁵⁶⁷⁸⁹")


def _pretty_name(name):
    # letter names carry exponents as ^e; show them raised when the
    # output is not forced to plain ascii
    out = []
    i = 0
    while i < len(name):
        if name[i] == "^":
            j = i + 1
            while j < len(name) and name[j].isdigit():
                j += 1
            if j > i + 1:
                out.append(name[i + 1:j].translate(_SUPERSCRIPTS))
                i = j
                continue
        out.append(name[i])
        i += 1
    return "".join(out)


def empty_word():
    return Word(())


def word_compare(u, v, order="lex"):
    """-1, 0, or 1.  lex: letterwise with proper prefixes smaller.
    pro_length: length first, then letterwise."""
    if order == "lex":
        a, b = u.keys, v.keys
    elif order == "pro_length":
        a, b = u.pro_length_key, v.pro_length_key
    else:
        raise ValueError("order must be lex or pro_length")
    return (a > b) - (a < b)


def is_lyndon(w):
    """True when w is strictly smaller than each of its proper suffixes."""
    if len(w) == 0:
        return False
    keys = w.keys
    return all(keys < keys[i:] for i in range(1, len(keys)))


def enumerate_words(semigroup, max_degree, max_length=None):
    """All words with degree <= max_degree (and length <= max_length),
    sorted ascending in pro-length order.

    Alphabets containing an identity letter (degree 0) have infinitely
    many words per degree, so a length bound is required there.
    """
    letters = semigroup.elements_up_to(max_degree)
    has_zero_degree = any(l.degree == 0 for l in letters)
    if max_length is None:
        if has_zero_degree:
            raise ValueError("identity letters present: a length bound is required")
        max_length = max_degree
    out = []

    def extend(prefix, deg_left, len_left):
        for l in letters:
            d = l.degree
            if d > deg_left:
                continue
            cur = prefix + (l,)
            out.append(Word(cur))
            if len_left > 1:
                extend(cur, deg_left - d, len_left - 1)

    if max_length >= 1:
        extend((), max_degree, max_length)
    out.sort(key=lambda w: w.pro_length_key)
    return out


def enumerate_lyndon(semigroup, max_degree, max_length=None):
    return [w for w in enumerate_words(semigroup, max_degree, max_length)
            if is_lyndon(w)]


def cfl_factorize(w):
    """Factor w into Lyndon words, largest first with multiplicities.

    Returns [(u1, m1), ..., (uk, mk)] with u1 > ... > uk in lex order and
    w equal to the concatenation of u1 repeated m1 times, and so on.
    Duval's algorithm; letters only ever get compared, never multiplied.
    """
    s = w.keys
    n = len(s)
    factors = []
    i = 0
    while i < n:
        j, k = i + 1, i
        while j < n and s[k] <= s[j]:
            if s[k] < s[j]:
                k = i
            else:
                k += 1
            j += 1
        flen = j - k
        while i <= k:
            factors.append(Word(w.letters[i:i + flen]))
            i += flen
    grouped = []
    for f in factors:
        if grouped and grouped[-1][0] == f:
            grouped[-1][1] += 1
        else:
            grouped.append([f, 1])
    return [(f, m) for f, m in grouped]


def componentwise_p_power(w, p):
    """The letterwise power: each letter raised to the p-th inside S."""
    powered = []
    for l in w.letters:
        lp = l ** p
        if lp is None:
            raise ValueError("letterwise power undefined: zero product")
        powered.append(lp)
    return Word(powered)


def is_p_power_image(w, p):
    """Is w == u^(p) letterwise for some word u over the same alphabet?"""
    if len(w) == 0:
        return True
    sg = w.letters[0].semigroup
    return all(sg.p_power_preimages(l, p) for l in w.letters)


def operator_T(words, p, max_degree, max_length=None):
    """Close under tensor repetition: all w repeated p^k times in bounds."""
    out = []
    seen = set()
    for w in words:
        k = 0
        while True:
            t = p ** k
            rep = w.tensor_power(t)
            if rep.degree > max_degree or (max_length is not None
                                           and rep.length > max_length):
                break
            if rep not in seen:
                seen.add(rep)
                out.append(rep)
            k += 1
    out.sort(key=lambda w: w.pro_length_key)
    return out


def operator_E(words, p):
    """Keep words fixed by the letterwise p-th power or outside its image."""
    out = []
    for w in words:
        if componentwise_p_power(w, p) == w or not is_p_power_image(w, p):
            out.append(w)
    return out


def subscript_split(words, p):
    """Partition into (fixed by the letterwise power, moved by it)."""
    fixed, moved = [], []
    for w in words:
        (fixed if componentwise_p_power(w, p) == w else moved).append(w)
    return fixed, moved


def standard_generating_sets(semigroup, p, max_degree, max_length=None):
    """The word families the structure results are phrased in.

    Returns a dict with lyn, l1, l2, el, tl, tel and the fixed/moved parts
    tl1, tl2, tel1, tel2, all inside the given bounds, each sorted in
    pro-length order.
    """
    lyn = enumerate_lyndon(semigroup, max_degree, max_length)
    l1, l2 = subscript_split(lyn, p)
    el = operator_E(lyn, p)
    tl = operator_T(lyn, p, max_degree, max_length)
    tel = operator_T(el, p, max_degree, max_length)
    tl1, tl2 = subscript_split(tl, p)
    tel1, tel2 = subscript_split(tel, p)
    return {"lyn": lyn, "l1": l1, "l2": l2, "el": el, "tl": tl, "tel": tel,
            "tl1": tl1, "tl2": tl2, "tel1": tel1, "tel2": tel2}


def tel2_orbit_check(semigroup, p, max_degree, max_length=None):
    """The moved tensor-Lyndon words are exactly the letterwise-power
    orbits of the moved reduced set, with no collisions.

    Checks TL2 == {u^(p^i) : u in TEL2, i >= 0, iterate still moved}
    inside the bounds and that distinct (u, i) give distinct words.
    Iterates that land on a fixed word are cut off there: fixed words
    live in the other part of the split.  Returns (ok, details).
    """
    sets = standard_generating_sets(semigroup, p, max_degree, max_length)
    tl2 = set(sets["tl2"])
    orbit = {}
    collisions = []
    for u in sets["tel2"]:
        i = 0
        cur = u
        local = set()
        while cur.degree <= max_degree and (max_length is None
                                            or cur.length <= max_length):
            if cur in local:
                break
            local.add(cur)
            nxt = componentwise_p_power(cur, p)
            if nxt == cur:
                break
            if cur in orbit:
                collisions.append((orbit[cur], (u, i)))
            else:
                orbit[cur] = (u, i)
            cur = nxt
            i += 1
    ok = not collisions and set(orbit) == tl2
    details = {
        "collisions": collisions,
        "orbit_not_in_tl2": sorted(set(orbit) - tl2, key=lambda w: w.pro_length_key),
        "tl2_not_in_orbit": sorted(tl2 - set(orbit), key=lambda w: w.pro_length_key),
    }
    return ok, details

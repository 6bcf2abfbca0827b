"""Tensor words over an ordered semigroup.

A word is a finite tuple of letters, held as its code string, one
character chr(code) per letter under the one LetterCodec of its
alphabet.  Words compare and hash on that string (equal alphabets share
a codec, and the empty word is the same over every alphabet); letters,
sort keys and degree are read off the codec's tables on each use.  Two
orders matter: plain lexicographic order (a proper prefix is smaller),
which defines Lyndon words, and pro-length order (shorter first, then
letterwise), which is the order leading terms are read in.

Word listings read pools on the codec: the words of each exact length
and degree, built once each from those one letter shorter.  Lyndon words
are generated directly, by the FKM prenecklace walk.  Every word factors
uniquely as a non-increasing concatenation of Lyndon words;
cfl_factorize computes it by Duval's algorithm, which only ever compares
letters and so works over any ordered alphabet.

The letterwise p-th power w -> w^(p) (each letter raised to the p-th
power inside the semigroup) drives three constructions used by the
classification of shuffle powers: T spans a set by tensor-repetition
p^k times, E keeps the words that are fixed by or outside the image of
the letterwise power, and subscript_split separates fixed from moved.
"""

import itertools

from .semigroups import LetterCodec, letter_codec

# the codec of a word built from no letters
_NO_LETTERS = LetterCodec(None)


class Word:
    """A word held as the code string of its letters and its alphabet's
    codec; equality and hashing read the codes, never the letters.

    Letters, sort keys, the pro-length key and the degree are read off
    the codec's tables on each use.  The empty word has no alphabet of
    its own and equals every other empty word.
    """

    __slots__ = ("codes", "codec")

    def __init__(self, letters):
        letters = tuple(letters)
        codecs = {letter_codec(l.semigroup) for l in letters} or {_NO_LETTERS}
        if len(codecs) > 1:
            raise ValueError("letters from different alphabets")
        self.codec, = codecs
        self.codes = "".join([chr(l.code) for l in letters])

    @property
    def letters(self):
        return tuple(map(self.codec.elements.__getitem__,
                         map(ord, self.codes)))

    @property
    def keys(self):
        return tuple(map(self.codec.sort_keys.__getitem__,
                         map(ord, self.codes)))

    @property
    def pro_length_key(self):
        return len(self.codes), self.keys

    @property
    def degree(self):
        return sum(map(self.codec.degrees.__getitem__, map(ord, self.codes)))

    @property
    def length(self):
        return len(self.codes)

    def suffix(self, i):
        return _from_codes(self.codec, self.codes[i:])

    def concat(self, other):
        return Word(self.letters + other.letters)

    def tensor_power(self, t):
        return _from_codes(self.codec, self.codes * t)

    def __eq__(self, other):
        return (isinstance(other, Word) and self.codes == other.codes
                and (self.codec is other.codec or not self.codes))

    def __hash__(self):
        return hash(self.codes)

    def __len__(self):
        return len(self.codes)

    def __repr__(self):
        return self.display(ascii_mode=True)

    def display(self, ascii_mode=False):
        if not self.codes:
            return "1"
        if ascii_mode:
            return "(x)".join(l.name for l in self.letters)
        return "⊗".join(_pretty_name(l.name) for l in self.letters)


_new = object.__new__


def _from_codes(codec, codes):
    """The word with this code string: one object, no per-letter work."""
    w = _new(Word)
    w.codes = codes
    w.codec = codec
    return w


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


# the empty word, the same over every alphabet
_EMPTY = _from_codes(_NO_LETTERS, "")


def empty_word():
    return _EMPTY


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


def _length_bound(codec, max_degree, max_length):
    if max_length is None:
        if any(codec.degrees[c] == 0 for c in codec.window(max_degree)):
            raise ValueError("identity letters present: a length bound is required")
        return max_degree
    return max_length


def _word_pieces(codec, max_degree, max_length):
    """For each length 0..max_length, a dict from degree <= max_degree
    to the nonempty piece of words of exactly that length and degree, in
    lex order.  Pieces are tuples on the codec, shared by every caller; a
    missing one is built from those one letter shorter, once per word.
    """
    max_length = _length_bound(codec, max_degree, max_length)
    pieces = codec.pieces
    window = codec.window(max_degree)
    degrees = [codec.degrees[c] for c in window]
    lo, hi = min(degrees, default=0), max(degrees, default=0)
    layers = [{0: (empty_word(),)}]
    for n in range(1, max_length + 1):
        shorter, layer = layers[-1], {}
        # each letter weighs lo to hi, so no other degree has words
        for e in range(n * lo, min(max_degree, n * hi) + 1):
            piece = pieces.get((n, e))
            if piece is None:
                piece = pieces[n, e] = tuple([
                    _from_codes(codec, c + w.codes)
                    for c, d in zip(map(chr, window), degrees) if d <= e
                    for w in shorter.get(e - d, ())])
            if piece:
                layer[e] = piece
        layers.append(layer)
    return layers


def enumerate_words(semigroup, max_degree, max_length=None):
    """All words with degree <= max_degree (and length <= max_length),
    sorted ascending in pro-length order.

    Alphabets containing an identity letter (degree 0) have infinitely
    many words per degree, so a length bound is required there.
    """
    codec = letter_codec(semigroup)
    sort_keys = codec.sort_keys
    out = []
    for layer in _word_pieces(codec, max_degree, max_length)[1:]:
        run = [w for piece in layer.values() for w in piece]
        if len(layer) > 1:
            # a stable sort of lex-ordered runs merges them
            run.sort(key=lambda w: [sort_keys[ord(c)] for c in w.codes])
        out += run
    return out


def enumerate_lyndon(semigroup, max_degree, max_length=None):
    """The Lyndon words inside the bounds, in pro-length order.

    The FKM walk over prenecklaces (Cattell et al., J. Algorithms 37,
    2000), depth first in lex order: a prenecklace of period p grows by
    letters no smaller than the one p back, and is Lyndon exactly when
    the new letter is larger.  Letters past the degree budget are
    skipped, since degrees need not grow with the order.
    """
    codec = letter_codec(semigroup)
    window = codec.window(max_degree)
    max_length = _length_bound(codec, max_degree, max_length)
    degrees = [codec.degrees[c] for c in window]
    letters = "".join(map(chr, window))
    k = len(window)
    # frames[i] is (letter rank, period, degree left) of the walk's prefix
    # of length i; r is the next rank to try after the last frame
    frames, r, out = [(-1, 0, max_degree)], 0, []
    while frames:
        _, period, left = frames[-1]
        t = len(frames) - 1
        if t >= max_length:
            r = k
        while r < k and degrees[r] > left:
            r += 1
        if r == k:
            r = frames.pop()[0] + 1
            continue
        if not t or r > frames[t + 1 - period][0]:
            period = t + 1
        frames.append((r, period, left - degrees[r]))
        if period == t + 1:
            out.append("".join([letters[f[0]] for f in frames[1:]]))
        r = frames[t + 2 - period][0]
    out.sort(key=len)
    return [_from_codes(codec, codes) for codes in out]


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
            factors.append(_from_codes(w.codec, w.codes[i:i + flen]))
            i += flen
    return [(f, len(list(run))) for f, run in itertools.groupby(factors)]


def componentwise_p_power(w, p):
    """The letterwise power: each letter raised to the p-th inside S."""
    codec = w.codec
    powered = [codec.power(ord(c), p) for c in w.codes]
    if None in powered:
        raise ValueError("letterwise power undefined: zero product")
    return _from_codes(codec, "".join(map(chr, powered)))


def is_p_power_image(w, p):
    """Is w == u^(p) letterwise for some word u over the same alphabet?"""
    roots = w.codec.roots
    return all(roots(ord(c), p) for c in w.codes)


def operator_T(words, p, max_degree, max_length=None):
    """Close under tensor repetition: all w repeated p^k times in bounds,
    for p >= 2 and words that leave the bounds (not the empty word, nor a
    degree-0 word without a length bound)."""
    if p < 2:
        raise ValueError("tensor repetition needs p >= 2, not %s" % p)
    out = set()
    for w in words:
        if not w.degree and (max_length is None or not len(w)):
            raise ValueError("repetitions of %r never leave the bounds" % (w,))
        t = 1
        while w.degree * t <= max_degree and (max_length is None
                                              or len(w) * t <= max_length):
            out.add(w.tensor_power(t))
            t *= p
    return sorted(out, key=lambda w: w.pro_length_key)


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
    return _tel2_orbit(standard_generating_sets(
        semigroup, p, max_degree, max_length), p, max_degree, max_length)


def _tel2_orbit(sets, p, max_degree, max_length):
    """tel2_orbit_check on the generating sets of its bounds."""
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

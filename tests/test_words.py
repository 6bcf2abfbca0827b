"""Words over an ordered alphabet: enumeration, Lyndon machinery, operators.

The Lyndon predicate and the falling factorization are checked against an
oracle built from the rotation definition: a word is Lyndon exactly when it
is strictly smaller than every proper rotation, and the factorization can
be recovered greedily by peeling the longest Lyndon prefix.  The oracle
compares raw sort-key tuples and never calls the functions under test.
"""

import itertools
import json
import random
from collections import Counter

import pytest

from mixshuffle import (
    Element,
    ElementaryPGroup,
    FreeAbelian,
    OrderedSet,
    ProductSemigroup,
    Ring,
    TensorPoly,
    Unitarized,
    Word,
    cfl_factorize,
    componentwise_p_power,
    empty_word,
    enumerate_lyndon,
    enumerate_words,
    is_lyndon,
    min_semilattice,
    operator_E,
    operator_T,
    standard_generating_sets,
    semigroup_from_preset,
    subscript_split,
    tel2_orbit_check,
    word_compare,
)
from mixshuffle.shuffle import graded_basis
from mixshuffle.words import is_p_power_image


# oracle: rotation definition of Lyndon plus greedy longest-prefix CFL


def oracle_is_lyndon(word):
    keys = word.keys
    n = len(keys)
    if n == 0:
        return False
    return all(keys < keys[i:] + keys[:i] for i in range(1, n))


def oracle_cfl(word):
    factors = []
    letters = word.letters
    while letters:
        for cut in range(len(letters), 0, -1):
            if oracle_is_lyndon(Word(letters[:cut])):
                factors.append(Word(letters[:cut]))
                letters = letters[cut:]
                break
    return factors


def all_words_brute(letters, max_degree, max_length):
    # independent enumeration: plain product over lengths
    out = []
    for n in range(1, max_length + 1):
        for combo in itertools.product(letters, repeat=n):
            if sum(l.degree for l in combo) <= max_degree:
                out.append(Word(combo))
    return out


# basic word structure


def test_word_basics():
    f = FreeAbelian(["x", "y"])
    x, y = f.parse("x"), f.parse("y")
    w = Word((x, y, x))
    assert w.length == 3
    assert w.degree == 3
    assert w.suffix(1) == Word((y, x))
    assert w.concat(Word((y,))) == Word((x, y, x, y))
    assert Word((x,)).tensor_power(3) == Word((x, x, x))
    assert len(empty_word()) == 0
    assert empty_word().degree == 0


def test_word_display():
    f = FreeAbelian(["x"])
    x = f.parse("x")
    w = Word((x, x ** 2))
    assert w.display(ascii_mode=True) == "x(x)x^2"
    assert w.display() == "x⊗x²"
    assert empty_word().display(ascii_mode=True) == "1"


def test_word_compare_orders():
    f = FreeAbelian(["x"])
    x = f.parse("x")
    short = Word((x ** 2,))
    long = Word((x, x))
    # lex: the single higher letter dominates; pro-length: length first
    assert word_compare(short, long, "lex") == 1
    assert word_compare(short, long, "pro_length") == -1
    assert word_compare(long, long, "pro_length") == 0
    with pytest.raises(ValueError):
        word_compare(short, long, "weird")


def test_enumerate_words_frozen_counts():
    f1 = FreeAbelian(["x"])
    counts = Counter(w.degree for w in enumerate_words(f1, 6))
    assert [counts[d] for d in range(1, 7)] == [1, 2, 4, 8, 16, 32]
    f2 = FreeAbelian(["x", "y"])
    counts = Counter(w.degree for w in enumerate_words(f2, 4))
    assert [counts[d] for d in range(1, 5)] == [2, 7, 24, 82]


def test_enumerate_words_matches_brute_force():
    f = FreeAbelian(["x", "y"])
    letters = f.elements_up_to(3)
    brute = {w.keys for w in all_words_brute(letters, 3, 3)}
    fast = {w.keys for w in enumerate_words(f, 3)}
    assert fast == brute


def test_enumerate_words_sorted_pro_length():
    f = FreeAbelian(["x", "y"])
    words = enumerate_words(f, 3)
    keys = [w.pro_length_key for w in words]
    assert keys == sorted(keys)


def test_enumerate_needs_length_bound_with_identity_letter():
    u = Unitarized(FreeAbelian(["x"]))
    with pytest.raises(ValueError):
        enumerate_words(u, 3)
    words = enumerate_words(u, 2, max_length=2)
    assert Word((u.identity, u.identity)) in words


def test_is_lyndon_matches_rotation_oracle():
    f = FreeAbelian(["x", "y"])
    for w in enumerate_words(f, 4):
        assert is_lyndon(w) == oracle_is_lyndon(w), w.display(True)
    assert not is_lyndon(empty_word())


def test_lyndon_frozen_counts():
    f1 = FreeAbelian(["x"])
    counts = Counter(w.degree for w in enumerate_lyndon(f1, 6))
    assert [counts[d] for d in range(1, 7)] == [1, 1, 2, 3, 6, 9]
    f2 = FreeAbelian(["x", "y"])
    counts = Counter(w.degree for w in enumerate_lyndon(f2, 4))
    assert [counts[d] for d in range(1, 5)] == [2, 4, 12, 31]


def test_cfl_matches_greedy_oracle():
    f = FreeAbelian(["x", "y"])
    for w in enumerate_words(f, 4):
        expected = oracle_cfl(w)
        got = cfl_factorize(w)
        flat = []
        for factor, mult in got:
            flat.extend([factor] * mult)
        assert flat == expected, w.display(True)
        # multiplicity grouping is strict: adjacent factors differ
        for (a, _), (b, _) in zip(got, got[1:]):
            assert a.keys > b.keys


def test_cfl_reassembles_word():
    f = FreeAbelian(["x", "y"])
    for w in enumerate_words(f, 4):
        letters = []
        for factor, mult in cfl_factorize(w):
            letters.extend(factor.letters * mult)
        assert Word(tuple(letters)) == w


def test_componentwise_p_power():
    f = FreeAbelian(["x", "y"])
    w = Word((f.parse("x"), f.parse("y")))
    assert componentwise_p_power(w, 2).display(True) == "x^2(x)y^2"
    o = OrderedSet(["a"])
    with pytest.raises(ValueError):
        componentwise_p_power(Word((o.parse("a"),)), 2)


def test_operator_T_repeats_within_bounds():
    f = FreeAbelian(["x"])
    x = f.parse("x")
    out = operator_T([Word((x,))], 2, 4)
    assert [w.display(True) for w in out] == ["x", "x(x)x", "x(x)x(x)x(x)x"]


def test_operator_T_refuses_repetitions_that_stay_in_bounds():
    # p < 2 never grows the repeat count, and neither p grows the degree
    # of the empty word or a degree-0 word
    f = FreeAbelian(["x"])
    lyndon = enumerate_lyndon(f, 3)
    for p in (1, 0):
        with pytest.raises(ValueError, match="p >= 2"):
            operator_T(lyndon, p, 3)
    with pytest.raises(ValueError, match="p >= 2"):
        standard_generating_sets(f, 1, 3)
    with pytest.raises(ValueError, match="p >= 2"):
        tel2_orbit_check(f, 1, 3)
    for length in (None, 4):
        with pytest.raises(ValueError, match="never leave the bounds"):
            operator_T([empty_word()], 2, 3, length)
    unit = Word((Unitarized(f).identity,))
    with pytest.raises(ValueError, match="never leave the bounds"):
        operator_T([unit], 2, 3)
    assert [len(w) for w in operator_T([unit], 2, 3, 4)] == [1, 2, 4]


def test_operator_E_on_group_alphabet():
    # in the two-element group the only square is e, so any word touching g
    # fails to be an image and E keeps everything
    m2 = ElementaryPGroup(2, 1)
    words = enumerate_words(m2, 3, 3)
    kept = operator_E(words, 2)
    assert kept == words
    fixed, moved = subscript_split(words, 2)
    assert all(componentwise_p_power(w, 2) == w for w in fixed)
    assert all(componentwise_p_power(w, 2) != w for w in moved)
    assert len(fixed) + len(moved) == len(words)


def test_operator_E_keeps_non_images():
    # x is not a letterwise square over the one-generator free alphabet
    f = FreeAbelian(["x"])
    words = enumerate_words(f, 2)
    kept = operator_E(words, 2)
    assert [w.display(True) for w in kept] == ["x", "x(x)x"]


def test_standard_generating_sets_frozen_mu2():
    m2 = ElementaryPGroup(2, 1)
    sets = standard_generating_sets(m2, 2, 4, 4)
    sizes = {k: len(v) for k, v in sets.items()}
    assert sizes == {"lyn": 8, "l1": 1, "l2": 7, "el": 8, "tl": 13,
                     "tel": 13, "tl1": 3, "tl2": 10, "tel1": 3, "tel2": 10}


def test_standard_generating_sets_frozen_free():
    f = FreeAbelian(["x"])
    sets = standard_generating_sets(f, 2, 4)
    counts = Counter(w.degree for w in sets["tel"])
    assert [counts[d] for d in range(1, 5)] == [1, 1, 2, 3]
    # over a torsion-free alphabet nothing is letterwise fixed, and the
    # repetition closure of the pruned Lyndon set sits inside the full one
    assert sets["tl1"] == []
    assert set(w.keys for w in sets["tel"]) <= set(w.keys for w in sets["tl"])
    assert sets["tel"] == sorted(sets["tel"], key=lambda w: w.pro_length_key)


def test_tel2_orbit_check():
    m2 = ElementaryPGroup(2, 1)
    ok, details = tel2_orbit_check(m2, 2, 4, 4)
    assert ok
    assert details == {"collisions": [], "orbit_not_in_tl2": [],
                       "tl2_not_in_orbit": []}


# Word identity: a word is its letter codes under the one codec of its
# alphabet, however it was built


ALPHABETS = {
    # a fresh alphabet object per call, equal to every other one it makes,
    # and a weight at which its letters multiply
    "free": (lambda: FreeAbelian(["x", "y"]), 1),
    "mu": (lambda: semigroup_from_preset("mu:3,1"), 1),
    "table": (lambda: min_semilattice(["a", "b", "c"]), 1),
    "unitarized": (lambda: Unitarized(FreeAbelian(["x"])), 1),
    "product": (lambda: ProductSemigroup(FreeAbelian(["x"]),
                                         ElementaryPGroup(2, 1)), 1),
    "set": (lambda: OrderedSet(["a", "b"]), 0),
}


@pytest.mark.parametrize("name", sorted(ALPHABETS))
def test_decoded_words_match_words_built_from_letters(name):
    make, lam = ALPHABETS[name]
    sg, twin = make(), make()
    assert sg == twin and sg is not twin
    words = enumerate_words(sg, 3, 3)
    assert words == sorted(words, key=lambda w: w.pro_length_key)
    Q = Ring.rationals()
    u, v = words[len(words) // 3], words[-1]
    product = TensorPoly(Q, lam, sg, {u: 1}) * TensorPoly(Q, lam, sg, {v: 2})
    assert len(product.terms) > 1
    for w, c in product.terms.items():
        for rebuilt in (Word(w.letters),
                        Word(twin.parse(l.name) for l in w.letters)):
            assert rebuilt == w and not rebuilt != w
            assert hash(rebuilt) == hash(w)
            assert rebuilt.keys == w.keys
            assert rebuilt.pro_length_key == w.pro_length_key
            assert rebuilt.degree == w.degree == sum(l.degree
                                                     for l in w.letters)
            assert rebuilt.length == w.length == len(w.letters)
            assert product.coefficient(rebuilt) == c
    # JSON names the letters, so a decoded product survives a round trip
    data = json.loads(json.dumps(product.to_json()))
    back = TensorPoly.from_json(data)
    assert back == product
    assert back.to_json() == data


def test_letterwise_powers_are_repeated_products():
    for name in ("free", "mu", "table", "product"):
        sg = ALPHABETS[name][0]()
        for w in enumerate_words(sg, 3, 3):
            for p in (2, 3, 5):
                assert componentwise_p_power(w, p) == \
                    Word(l ** p for l in w.letters), (name, w, p)


def test_words_over_different_alphabets_are_different():
    # two alphabets no other test uses, so each hands out code 0 first
    a = FreeAbelian(["identity_test_a"])
    b = OrderedSet(["identity_test_b"])
    u = Word(a.elements_up_to(1))
    v = Word(b.elements_up_to(1))
    assert u.codes == v.codes
    assert u != v and not u == v
    assert len({u, v}) == 2
    assert Word(a.elements_up_to(1)) == u


def test_empty_words_are_equal_across_alphabets():
    empties = [empty_word(), Word(())]
    for name in sorted(ALPHABETS):
        w = enumerate_words(ALPHABETS[name][0](), 2, 2)[-1]
        empties += [w.suffix(w.length), w.tensor_power(0)]
    for e in empties:
        assert e == empty_word() and hash(e) == hash(empty_word())
        assert e.letters == () and e.keys == () and e.degree == 0
        assert e.display(True) == "1"
    assert len(set(empties)) == 1


def test_letters_from_unequal_alphabets_do_not_make_a_word():
    x = FreeAbelian(["x"]).parse("x")
    y = FreeAbelian(["y"]).parse("y")
    with pytest.raises(ValueError):
        Word((x, y))
    with pytest.raises(ValueError):
        Word((x,)).concat(Word((y,)))
    assert Word((x,)).concat(empty_word()) == Word((x,))


# No walk nests one call per letter, so bounds past the interpreter's
# recursion limit work


def test_enumerate_words_past_the_recursion_limit():
    a = semigroup_from_preset("set:a")
    words = enumerate_words(a, 1500)
    assert [w.length for w in words] == list(range(1, 1501))
    assert words[-1] == Word(a.elements_up_to(1) * 1500)


def test_enumerate_lyndon_past_the_recursion_limit():
    a = semigroup_from_preset("set:a")
    assert enumerate_lyndon(a, 1500) == [Word(a.elements_up_to(1))]


# Seeded differential tests of the word pools, the Lyndon walk and the
# root table against oracles built here: itertools.product over letters
# sorted from iter_keys, the is_lyndon filter, and repeated products


ORACLE_ALPHABETS = {
    "free1": lambda: FreeAbelian(["x"]),
    "free2": lambda: FreeAbelian(["x", "y"]),
    "free3": lambda: FreeAbelian(["x", "y", "z"]),
    "mu2": lambda: semigroup_from_preset("mu:2,1"),
    "mu3": lambda: semigroup_from_preset("mu:3,1"),
    "set": lambda: semigroup_from_preset("set:a,b"),
    "unitarized": lambda: Unitarized(FreeAbelian(["x"])),
    # letter degrees that do not grow with the order
    "product": lambda: ProductSemigroup(Unitarized(FreeAbelian(["x"])),
                                        FreeAbelian(["y"])),
    # roots of a higher degree than their power
    "product_finite": lambda: ProductSemigroup(ElementaryPGroup(2, 1),
                                               ElementaryPGroup(3, 1)),
    "table": lambda: min_semilattice(["a", "b", "c"]),
}


def oracle_letters(sg, max_degree):
    keys = sorted(sg.iter_keys(max_degree), key=sg.sort_key_of)
    return [Element(sg, k) for k in keys]


def oracle_words(sg, max_degree, max_length):
    letters = oracle_letters(sg, max_degree)
    low = min((l.degree for l in letters), default=0)
    out = []
    for n in range(1, (max_degree if max_length is None else max_length) + 1):
        # the other n - 1 letters weigh at least low each
        usable = [l for l in letters
                  if l.degree <= max_degree - (n - 1) * low]
        out += [Word(combo) for combo in itertools.product(usable, repeat=n)
                if sum(l.degree for l in combo) <= max_degree]
    return sorted(out, key=lambda w: w.pro_length_key)


def oracle_bounds(name, sg):
    """Five seeded (degree, length) draws, plus the largest bounds and
    the empty corners."""
    lengths = [1, 2, 3, 4, 5]
    if not any(True for _ in sg.iter_keys(0)):
        lengths.append(None)
    rng = random.Random("word pools " + name)
    draws = {(rng.randint(1, 5), rng.choice(lengths)) for _ in range(5)}
    fixed = {(5, lengths[-1]), (5, 5), (0, 2), (3, 0)}
    return sorted(draws | fixed, key=repr)


@pytest.mark.parametrize("name", sorted(ORACLE_ALPHABETS))
def test_word_layer_matches_oracles(name):
    sg = ORACLE_ALPHABETS[name]()
    for deg, length in oracle_bounds(name, sg):
        brute = oracle_words(sg, deg, length)
        assert enumerate_words(sg, deg, length) == brute, (deg, length)
        lyndon = [w for w in brute if is_lyndon(w)]
        assert enumerate_lyndon(sg, deg, length) == lyndon, (deg, length)
        for d in range(deg + 1):
            exact = [w for w in brute if w.degree == d]
            assert list(graded_basis(sg, d, length)) == \
                [empty_word()] * (d == 0) + exact, (d, length)
        letters = oracle_letters(sg, deg)
        assert sg.elements_up_to(deg) == letters
        # a root of a letter of degree <= deg has degree <= deg + 2 here
        candidates = oracle_letters(sg, deg + 2)
        for p in (2, 3):
            roots = {g: [u for u in candidates if u ** p == g]
                     for g in letters}
            for g in letters:
                assert sg.p_power_preimages(g, p) == roots[g], (g, p)
            for w in brute:
                assert is_p_power_image(w, p) == \
                    all(roots[l] for l in w.letters), (w, p)
            if name == "set" and lyndon:
                # the letters of a bare set have no powers
                with pytest.raises(ValueError):
                    standard_generating_sets(sg, p, deg, length)
                continue
            # the families composed from the oracle's Lyndon words
            l1, l2 = subscript_split(lyndon, p)
            el = operator_E(lyndon, p)
            tl = operator_T(lyndon, p, deg, length)
            tel = operator_T(el, p, deg, length)
            tl1, tl2 = subscript_split(tl, p)
            tel1, tel2 = subscript_split(tel, p)
            assert standard_generating_sets(sg, p, deg, length) == {
                "lyn": lyndon, "l1": l1, "l2": l2, "el": el, "tl": tl,
                "tel": tel, "tl1": tl1, "tl2": tl2, "tel1": tel1,
                "tel2": tel2}, (deg, length, p)
    if any(True for _ in sg.iter_keys(0)):
        for listing in (enumerate_words, enumerate_lyndon, graded_basis):
            with pytest.raises(ValueError):
                listing(sg, 3)


# The pools are shared, the listings handed out are not


def test_listings_are_fresh_and_pools_are_shared():
    sg = FreeAbelian(["x", "y"])
    x = sg.parse("x")
    calls = {
        "words": lambda: enumerate_words(sg, 4, 3),
        "lyndon": lambda: enumerate_lyndon(sg, 4),
        "graded": lambda: list(graded_basis(sg, 3)),
        "letters": lambda: sg.elements_up_to(3),
        "roots": lambda: sg.p_power_preimages(x ** 2, 2),
        "sets": lambda: standard_generating_sets(sg, 2, 4)["tl"],
    }
    for name, call in calls.items():
        expected = list(call())
        for mutate in (lambda out: out.append(out[0]),
                       lambda out: out.__setitem__(0, out[-1]),
                       lambda out: out.__setitem__(slice(1, None), [])):
            out = call()
            mutate(out)
            assert call() == expected, name
    assert isinstance(graded_basis(sg, 3), tuple)
    # an equal alphabet built afresh reads the same Word objects
    words = enumerate_words(sg, 4, 3)
    twin = FreeAbelian(["x", "y"])
    assert twin is not sg
    assert all(a is b for a, b in zip(enumerate_words(twin, 4, 3), words))
    cubic = [w for w in words if w.degree == 3]
    assert all(a is b for a, b in zip(graded_basis(twin, 3), cubic))
    # an unequal alphabet with the same shape has pools of its own
    other = enumerate_words(FreeAbelian(["a", "b"]), 4, 3)
    assert len(other) == len(words)
    assert not {id(w) for w in other} & {id(w) for w in words}
    assert all(a != b for a, b in zip(other, words))

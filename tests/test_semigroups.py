"""Ordered semigroups: element algebra, classification, presets, JSON."""

import json
import sys

import pytest

from mixshuffle import (
    ElementaryPGroup,
    FiniteTableSemigroup,
    FreeAbelian,
    OrderedSemigroup,
    OrderedSet,
    ProductSemigroup,
    Unitarized,
    cyclic_group_table,
    flat_semilattice,
    min_semilattice,
    semigroup_from_preset,
)
from mixshuffle.semigroups import LetterCodec


def test_free_abelian_element_algebra():
    f = FreeAbelian(["x", "y"])
    x, y = f.parse("x"), f.parse("y")
    assert (x * y).name == "x*y"
    assert (x * y).degree == 2
    assert (x ** 3).name == "x^3"
    assert (x ** 3).degree == 3
    assert x * y == y * x
    assert f.kind == "free_abelian"


def test_free_abelian_ordering_degree_first():
    f = FreeAbelian(["x", "y"])
    x, y = f.parse("x"), f.parse("y")
    assert x < y
    assert x < x ** 2
    assert y < x * y


def test_free_abelian_enumeration():
    f = FreeAbelian(["x", "y"])
    names = [e.name for e in f.elements_up_to(2)]
    assert names == ["x", "y", "x^2", "x*y", "y^2"]
    one_gen = FreeAbelian(["x"])
    assert [e.name for e in one_gen.elements_up_to(3)] == ["x", "x^2", "x^3"]


def test_ordered_set_products_vanish():
    o = OrderedSet(["a", "b"])
    assert o.parse("a") * o.parse("b") is None
    assert o.parse("a") * o.parse("a") is None
    assert all(e.degree == 1 for e in o.elements_up_to(5))


def test_elementary_p_group():
    m2 = ElementaryPGroup(2, 1)
    g = m2.parse("g")
    assert (g * g).name == "e"
    assert g.degree == 1
    assert [e.name for e in m2.elements_up_to(1)] == ["e", "g"]
    m32 = ElementaryPGroup(3, 2)
    assert len(m32.elements_up_to(1)) == 9
    for e in m32.elements_up_to(1):
        assert (e ** 3) == m32.identity


@pytest.mark.parametrize("p", [-3, 0, 1, 4, 6, 9])
def test_elementary_p_group_needs_a_prime(p):
    with pytest.raises(ValueError, match="p must be a prime"):
        ElementaryPGroup(p)


def test_unitarized_adjoins_identity():
    u = Unitarized(FreeAbelian(["x"]))
    assert u.identity.name == "1"
    assert u.identity.degree == 0
    assert u.parse("1").is_identity()
    x = u.parse("x")
    assert (u.identity * x) == x
    assert (x * x).name == "x^2"
    assert [e.name for e in u.elements_up_to(2)] == ["1", "x", "x^2"]


def test_product_semigroup():
    m2 = ElementaryPGroup(2, 1)
    pr = ProductSemigroup(m2, m2)
    e = pr.parse("(g,e)")
    assert e.name == "(g,e)"
    assert e.degree == 1
    assert (e * e).name == "(e,e)"
    assert [x.name for x in pr.elements_up_to(1)] == ["(e,e)", "(e,g)", "(g,e)"]


def test_semilattices():
    ms = min_semilattice(["a", "b", "c"])
    assert (ms.parse("a") * ms.parse("c")).name == "a"
    assert (ms.parse("b") * ms.parse("b")).name == "b"
    fs = flat_semilattice(["a", "b", "c"])
    # idempotent, and distinct letters collapse to the bottom letter
    assert (fs.parse("b") * fs.parse("b")).name == "b"
    assert (fs.parse("b") * fs.parse("c")).name == "a"


def test_cyclic_group_table():
    table, names = cyclic_group_table(3)
    assert names == ["g", "g^2", "id"]
    g = FiniteTableSemigroup(table, names=names)
    gen = g.parse("g")
    assert (gen * gen).name == "g^2"
    assert (gen ** 3).name == "id"
    assert (gen ** 3).is_identity()
    table1, names1 = cyclic_group_table(1)
    assert names1 == ["g"]
    triv = FiniteTableSemigroup(table1, names=names1)
    assert (triv.parse("g") * triv.parse("g")).name == "g"


# classification


def test_classify_free_abelian():
    assert sorted(FreeAbelian(["x"]).classify(2)) == ["free-abelian", "power-order"]
    assert sorted(Unitarized(FreeAbelian(["x"])).classify(2)) == ["power-order"]


def test_classify_elementary_p_group():
    assert sorted(ElementaryPGroup(2, 1).classify(2)) == [
        "elementary-p-group", "power-split"]
    assert sorted(ElementaryPGroup(3, 2).classify(3)) == [
        "elementary-p-group", "power-split"]


def test_classify_flat_semilattice():
    tags = sorted(flat_semilattice(["a", "b", "c"]).classify(3))
    assert tags == ["p-idempotent", "power-order", "power-split"]


def test_classify_ordered_set():
    assert sorted(OrderedSet(["a", "b"]).classify(2)) == ["zero-mult-set"]


def test_split_p_fixed():
    fixed, moved = ElementaryPGroup(2, 1).split_p_fixed(2)
    assert [e.name for e in fixed] == ["e"]
    assert [e.name for e in moved] == ["g"]
    fixed, moved = FreeAbelian(["x"]).split_p_fixed(2)
    assert fixed == []
    assert [e.name for e in moved] == ["x", "x^2", "x^3", "x^4"]
    fixed, moved = flat_semilattice(["a", "b", "c"]).split_p_fixed(3)
    assert [e.name for e in fixed] == ["a", "b", "c"]
    assert moved == []


def test_p_divisible():
    # the identity of a p-group is the image of every p-th power
    assert [e.name for e in ElementaryPGroup(2, 1).p_divisible(2)] == ["e"]
    assert FreeAbelian(["x"]).p_divisible(2) == []
    sl = flat_semilattice(["a", "b"])
    assert [e.name for e in sl.p_divisible(3)] == ["a", "b"]
    # the round count would grow without end below p = 2
    for p in (1, 0):
        with pytest.raises(ValueError, match="p >= 2"):
            FreeAbelian(["x"]).p_divisible(p, 4)


def test_p_power_preimages():
    f = FreeAbelian(["x"])
    x = f.parse("x")
    assert [e.name for e in f.p_power_preimages(x ** 2, 2)] == ["x"]
    assert f.p_power_preimages(x, 2) == []
    # codes are numbered per alphabet, so a letter of another alphabet can
    # carry the very code of x^2 here
    other = FreeAbelian(["foreign_u"])
    h = next(h for h in other.elements_up_to((x ** 2).code + 1)
             if h.code == (x ** 2).code)
    assert f.p_power_preimages(h, 2) == []


def test_codes_stop_at_the_last_character():
    # a word holds one character chr(code) per letter, so the codec hands
    # out codes up to sys.maxunicode and refuses the next one
    codec = LetterCodec(FreeAbelian(["x"]))
    codec.keys = [None] * sys.maxunicode
    assert chr(codec.code((1,))) == chr(sys.maxunicode)
    assert codec.code((1,)) == sys.maxunicode
    with pytest.raises(ValueError, match="past sys.maxunicode"):
        codec.code((2,))
    assert (2,) not in codec.codes
    assert len(codec.keys) == sys.maxunicode + 1


# the order: each alphabet defines it once, so these lists are written out
# by hand


ORDERED = [
    (FreeAbelian(["x", "y"]), 3,
     ["x", "y", "x^2", "x*y", "y^2", "x^3", "x^2*y", "x*y^2", "y^3"]),
    (OrderedSet(["b", "a", "c"]), 1, ["b", "a", "c"]),
    (FiniteTableSemigroup([[0, 0, 0], [0, 1, 1], [0, 1, 2]], order=[2, 0, 1],
                          names=["a", "b", "c"]), 1, ["c", "a", "b"]),
    (semigroup_from_preset("mu:3,2"), 1,
     ["e", "g2", "g2^2", "g1", "g1*g2", "g1*g2^2", "g1^2", "g1^2*g2",
      "g1^2*g2^2"]),
    (Unitarized(FreeAbelian(["x", "y"])), 2,
     ["1", "x", "y", "x^2", "x*y", "y^2"]),
    # sort keys of lengths 2 (left factor 1) and 4
    (ProductSemigroup(Unitarized(FreeAbelian(["x"])),
                      semigroup_from_preset("mu:2,1")), 2,
     ["(1,e)", "(1,g)", "(x,e)", "(x,g)", "(x^2,e)"]),
]


@pytest.mark.parametrize("sg, degree, names", ORDERED,
                         ids=[sg.kind for sg, _, _ in ORDERED])
def test_order_is_pinned(sg, degree, names):
    elems = sg.elements_up_to(degree)
    assert [e.name for e in elems] == names
    assert sorted(reversed(elems)) == elems
    assert sorted(sg.parse(n) for n in reversed(names)) == elems
    for i, a in enumerate(elems):
        for j, b in enumerate(elems):
            assert (a < b) == (i < j)
            assert (a <= b) == (i <= j)


def test_order_across_semigroup_objects():
    x = FreeAbelian(["x", "y"]).parse("x")
    y = FreeAbelian(["x", "y"]).parse("y")
    assert x < y and not y < x
    with pytest.raises(TypeError):
        x < FreeAbelian(["y", "x"]).parse("y")
    with pytest.raises(TypeError):
        x < Unitarized(FreeAbelian(["x", "y"])).parse("y")
    with pytest.raises(TypeError):
        x < "y"


@pytest.mark.parametrize("p", [2, 3, 5])
def test_power_table_matches_repeated_products(p):
    # oracle: Element.__pow__ over a window wider than any root can reach;
    # with two finite slots, roots of (e,e) have degree up to 2
    mu2 = semigroup_from_preset("mu:2,1")
    for sg in [sg for sg, _, _ in ORDERED] + [ProductSemigroup(mu2, mu2)]:
        window = sg.elements_up_to(4)
        for bound in range(5):
            fixed, moved = sg.split_p_fixed(p, bound)
            scan = sg.elements_up_to(bound)
            assert fixed == [g for g in scan if g ** p == g]
            assert moved == [g for g in scan if g ** p != g]
        targets = list(window)
        targets += [u ** p for u in sg.elements_up_to(2)
                    if u ** p is not None and u ** p not in targets]
        for g in targets:
            wide = sg.elements_up_to(g.degree + 2)
            assert sg.p_power_preimages(g, p) == \
                [u for u in wide if u ** p == g]


# presets and serialization


def test_presets():
    assert isinstance(semigroup_from_preset("free:x,y"), FreeAbelian)
    assert isinstance(semigroup_from_preset("set:a,b"), OrderedSet)
    mu = semigroup_from_preset("mu:3,2")
    assert isinstance(mu, ElementaryPGroup)
    assert len(mu.elements_up_to(1)) == 9


def test_preset_table_file(tmp_path):
    sl = flat_semilattice(["a", "b"])
    path = tmp_path / "semilattice.json"
    path.write_text(json.dumps(sl.to_json()))
    loaded = semigroup_from_preset("idem:%s" % path)
    assert loaded == sl
    assert (loaded.parse("a") * loaded.parse("b")).name == "a"


def test_bad_preset_rejected():
    with pytest.raises(Exception):
        semigroup_from_preset("nosuch:x")
    # Z/4 is not an elementary p-group
    for text in ("mu:4", "mu:4,1"):
        with pytest.raises(ValueError, match="p must be a prime"):
            semigroup_from_preset(text)


def test_json_round_trips():
    for sg in (FreeAbelian(["x", "y"]), OrderedSet(["a"]),
               ElementaryPGroup(2, 2), flat_semilattice(["a", "b"])):
        assert OrderedSemigroup.from_json(sg.to_json()) == sg

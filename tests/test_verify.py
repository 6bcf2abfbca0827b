"""The structure verifiers: reports, flagship configurations, refusals.

Dimension tables asserted here were captured from independently cross
checked runs: every cell already requires dimension == monomial count ==
achieved rank internally, and the counts are pinned again literally so a
regression in any of the three shows up as a diff against this file.
"""

import inspect
import itertools
import json
import random
import sys
from fractions import Fraction

import pytest

import mixshuffle as mx
from mixshuffle import (
    ConfigurationError,
    ElementaryPGroup,
    FreeAbelian,
    Matrix,
    OrderedSet,
    PresentedAlgebra,
    Ring,
    SparseEliminator,
    TensorPoly,
    Word,
    GeneratorSymbol,
    check_independence,
    check_spanning,
    compute_cokernel_basis,
    enumerate_lyndon,
    flat_semilattice,
    verify_fp_nonzero,
    verify_fp_weight0,
    verify_nested_summand,
    verify_radford_hoffman,
    verify_rb_structure,
    verify_semigroup_props,
    verify_z_polynomial,
    verify_zp,
    word_poly,
    word_symbol,
)
from mixshuffle import verify as verify_module
from mixshuffle.rings import elementary_divisors, unit_pivot_elimination


def from_columns(ring, columns, nrows):
    """The dense Matrix with these columns, lists of nrows entries."""
    return Matrix(ring, [[c[i] for c in columns] for i in range(nrows)],
                  nrows=nrows, ncols=len(columns))


def cells_of(report):
    return [(c.degree, c.dimension, c.monomials, c.rank) for c in report.cells]


def dims_of(report):
    return [c.dimension for c in report.cells]


def check_names(report):
    return [(c.name, c.ok) for c in report.checks]


# rational and field verifiers


def test_radford_one_generator():
    r = verify_radford_hoffman(FreeAbelian(["x"]), 0, 6)
    assert r.passed and r.exit_code == 0
    assert r.theorem == "radford"
    assert dims_of(r) == [1, 1, 2, 4, 8, 16, 32]
    for degree, dim, mono, rank in cells_of(r):
        assert dim == mono == rank


def test_radford_two_generators():
    r = verify_radford_hoffman(FreeAbelian(["x", "y"]), 0, 4)
    assert r.passed
    assert dims_of(r) == [1, 2, 7, 24, 82]


def test_weighted_rational_structure():
    r = verify_radford_hoffman(FreeAbelian(["x"]), Fraction(5, 3), 4)
    assert r.passed
    assert r.theorem == "msq"
    assert dims_of(r) == [1, 1, 2, 4, 8]
    assert ("length rescaling intertwines weights", True) in check_names(r)


def test_fp_weight_zero():
    r = verify_fp_weight0(FreeAbelian(["x"]), 2, 4)
    assert r.passed
    assert dims_of(r) == [1, 1, 2, 4, 8]
    # nilpotency of the square of every repeated generator is spot checked
    assert ("relation x^2 = 0", True) in check_names(r)
    assert ("relations spot checked", True) in check_names(r)


def test_fp_weight_zero_zero_multiplication_alphabet():
    r = verify_fp_weight0(OrderedSet(["a", "b"]), 2, 4)
    assert r.passed
    assert dims_of(r) == [1, 2, 4, 8, 16]


def test_fp_nonzero_free_alphabet():
    r = verify_fp_nonzero(FreeAbelian(["x"]), 2, 1, 5)
    assert r.passed
    assert dims_of(r) == [1, 1, 2, 4, 8, 16]
    assert ("classification", True) in check_names(r)


def test_fp_nonzero_group_alphabet():
    r = verify_fp_nonzero(ElementaryPGroup(2, 1), 2, 1, 5, 5)
    assert r.passed
    assert dims_of(r) == [6, 15, 20, 15, 6, 1]
    names = dict(check_names(r))
    assert names["classification"]
    assert names["moved family is the power orbit of the reduced family"]
    assert names["relation [g-e]^2 = 0"]


def test_fp_nonzero_idempotent_alphabet():
    r = verify_fp_nonzero(flat_semilattice(["a", "b", "c"]), 3, 1, 5, 5)
    assert r.passed
    assert dims_of(r) == [1, 3, 9, 27, 81, 243]


def test_zp_lift():
    r = verify_zp(FreeAbelian(["x"]), 2, 6, 1, 5)
    assert r.passed
    assert dims_of(r) == [1, 1, 2, 4, 8, 16]
    names = dict(check_names(r))
    assert names["letterwise power congruence for x"]
    assert names["degree 3 indecomposables keep Lyndon rank at p"]
    # the verdicts are stable at precision N+2
    lifted = verify_zp(FreeAbelian(["x"]), 2, 8, 1, 5)
    assert [(c.ok, c.rank) for c in lifted.cells] == [
        (c.ok, c.rank) for c in r.cells]


# integral verifiers


def test_z_polynomial_structure():
    r = verify_z_polynomial(FreeAbelian(["x"]), 1, 6)
    assert r.passed
    assert dims_of(r) == [1, 1, 2, 4, 8, 16, 32]
    details = {c.name: c.detail for c in r.checks}
    assert details["degree 5 cokernel free of Lyndon rank"].startswith("rank 6")
    assert details["degree 6 cokernel free of Lyndon rank"].startswith("rank 9")


def test_z_polynomial_negative_weight():
    r = verify_z_polynomial(FreeAbelian(["x"]), -1, 4)
    assert r.passed


def test_cokernel_basis_greedy_words():
    info, basis = compute_cokernel_basis(FreeAbelian(["x"]), 1, 2)
    assert info["free"] and info["rank_matches"]
    assert info["divisors"] == [1]
    assert info["method"] == "greedy-words"
    assert info["complement_det"] == 1
    assert info["y_words"] == ["x(x)x"]
    assert [b.render(True) for b in basis] == ["x(x)x"]
    info, basis = compute_cokernel_basis(FreeAbelian(["x"]), 1, 3)
    assert info["y_words"] == ["x(x)x(x)x", "x^2(x)x"]
    assert info["complement_det"] == 1


def test_cokernel_basis_transform_complement():
    # at weight 3, x*x = 2 x(x)x + 3 x^2: the cokernel is free of rank 1,
    # but neither word alone completes the image to a basis
    f = FreeAbelian(["x"])
    Z = Ring.integers()
    info, basis = compute_cokernel_basis(f, 3, 2)
    assert info["free"] and info["divisors"] == [1]
    assert info["method"] == "transform-complement"
    assert info["y_words"] == ["c2_0"]
    x = TensorPoly.from_word(Z, 3, f, Word((f.parse("x"),)))
    rows, _, _, _ = decomposables_smith(f, 3, 2)
    columns = [[poly.terms.get(w, 0) for w in rows]
               for poly in (x * x, basis[0])]
    det = from_columns(Z, columns, len(columns)).det_bareiss()
    assert det in (1, -1)


def decomposables_smith(semigroup, lam, degree):
    """The degree-n words, the decomposables map on them, and D and U of
    Matrix.smith_normal_form of the map made dense."""
    rows, columns = verify_module._decomposables(semigroup, lam, degree)
    dense = [[c.get(i, 0) for i in range(len(rows))] for c in columns]
    d, U, _ = from_columns(Ring.integers(), dense,
                                  len(rows)).smith_normal_form()
    return rows, columns, d, U


def reference_walk(rows, d, U):
    """The greedy complement walk on the words rows with one trial Smith
    form per word, reading the rows of the dense transform U past the
    rank len(d)."""
    Z = Ring.integers()
    rank = len(d)
    size = len(rows) - rank
    words, columns = [], []
    for j in reversed(range(len(rows))):
        if len(words) == size:
            break
        trial = columns + [[U.rows[i][j] for i in range(rank, len(rows))]]
        d, _, _ = from_columns(Z, trial, size).smith_normal_form()
        if len(d) == len(trial) and all(x == 1 for x in d):
            words.append(rows[j].display(True))
            columns = trial
    if len(words) < size:
        return "transform-complement", None, 1
    det = from_columns(Z, columns, size).det_bareiss() if size else 1
    return "greedy-words", words, det


WALK_MAPS = [(names, lam, degree)
             for names, top in ((["x"], 6), (["x", "y"], 4),
                                (["x", "y", "z"], 3))
             for lam in (0, 1, -1, 2, 3) for degree in range(1, top + 1)]


def test_cokernel_walk_matches_trial_smith_walk():
    # seeded differential test: the walk on the classes of the unit-pivot
    # elimination against the walk on the dense Smith transform, also on
    # a seeded reordering of the map's columns, which reorders the pivots
    rng = random.Random(22)
    methods = set()
    for names, lam, degree in WALK_MAPS:
        f = FreeAbelian(names)
        rows, columns, d, U = decomposables_smith(f, lam, degree)
        method, words, det = reference_walk(rows, d, U)
        for order in (columns, rng.sample(columns, len(columns))):
            info, basis = verify_module._cokernel_basis(f, lam, degree, rows,
                                                        order)
            where = (names, lam, degree)
            assert info["divisors"] == d, where
            assert info["method"] == method, where
            assert info["complement_det"] == abs(det), where
            if words is not None:
                assert info["y_words"] == words, where
            assert len(basis) == info["coker_rank"] == len(rows) - len(d)
        methods.add(method)
    assert methods == {"greedy-words", "transform-complement"}


def test_cokernel_classes_present_the_cokernel():
    # the free coordinates are a map Z^m -> Z^k, k = m - rank, that kills
    # every column and is onto; its kernel is then saturated and of the
    # image's rank, so it is the saturation of the image and they present
    # the free part of the cokernel, whatever the divisors are.  Each
    # divisor above 1 adds one torsion coordinate after them, in which a
    # column's class is a multiple of it.  The maps include residuals of
    # every kind: free1 degree 6 at weight 1 leaves one with divisors [1],
    # weight 2 ones with a 2
    Z = Ring.integers()
    kinds = set()
    for names, lam, degree in WALK_MAPS:
        f = FreeAbelian(names)
        rows, columns, d, _ = decomposables_smith(f, lam, degree)
        _, _, residual = unit_pivot_elimination(columns)
        divisors, classes, moduli = verify_module._cokernel_classes(
            len(rows), columns)
        assert divisors == d, (names, lam, degree)
        kinds.add((residual.ncols > 0, all(x == 1 for x in d)))
        k = len(rows) - len(d)
        assert moduli == [0] * k + [x for x in d if x > 1]
        for column in columns:
            cls = verify_module._class_of(classes, column)
            assert not any(x for c, x in cls.items() if c < k)
            assert all(x % moduli[c] == 0 for c, x in cls.items() if c >= k)
        if k:
            dense = [[cls.get(c, 0) for c in range(k)] for cls in classes]
            D, _, _ = from_columns(Z, dense, k).smith_normal_form()
            assert D == [1] * k, (names, lam, degree)
    assert kinds == {(False, True), (True, True), (True, False)}
    rows, columns = verify_module._decomposables(FreeAbelian(["x"]), 1, 6)
    assert unit_pivot_elimination(columns)[2].ncols


def membership_maps(rng):
    """Seeded random small matrices over Z, then the WALK_MAPS
    decomposables maps, each as (m, sparse columns on rows 0..m-1)."""
    entries = (-6, -3, -2, -1, 0, 0, 0, 1, 2, 3, 4, 9)
    for _ in range(60):
        m = rng.randint(1, 5)
        yield m, [{i: rng.choice(entries) for i in range(m)}
                  for _ in range(rng.randint(0, 5))]
    for names, lam, degree in WALK_MAPS:
        rows, columns = verify_module._decomposables(FreeAbelian(names), lam,
                                                     degree)
        yield len(rows), columns


@pytest.mark.parametrize("ring", (Ring.integers(), Ring.truncated_padic(2, 4),
                                  Ring.truncated_padic(3, 4)), ids=repr)
def test_cokernel_membership_matches_the_solver(ring):
    # seeded differential test: e_i lies in the span of the columns over Z
    # or Z/q exactly when Matrix.solve finds a preimage, on the columns in
    # canonical form, as check_spanning reads them; the maps reuse one
    # _ZSolver, Matrix.solve's factorization, on their integer columns.
    # Over Z every column's class is 0 in the free coordinates and a
    # multiple of the modulus in the torsion ones
    q = ring.modulus or 0
    seen = set()
    for m, columns in membership_maps(random.Random("membership %r" % ring)):
        dense = [[c.get(i, 0) for i in range(m)] for c in columns]
        if m <= 5:
            solve = from_columns(ring, dense, m).solve
        else:
            solve = verify_module._ZSolver(Matrix._raw(
                ring, [list(r) for r in zip(*dense)], m, len(dense))).solve
        canonical = [{i: ring.of(x) for i, x in c.items()} for c in columns]
        unreachable = set(verify_module._unreachable(m, canonical, q))
        for i in range(m):
            e = [int(j == i) for j in range(m)]
            assert (i in unreachable) == (solve(e) is None), (m, columns, i)
            seen.add(("unreachable", i in unreachable))
        divisors, classes, moduli = verify_module._cokernel_classes(
            m, columns)
        k = m - len(divisors)
        seen.add(("torsion", len(moduli) > k))
        for column in columns:
            cls = verify_module._class_of(classes, column)
            assert not any(x for c, x in cls.items() if c < k)
            assert all(x % moduli[c] == 0 for c, x in cls.items() if c >= k)
    # reachable and unreachable rows, cokernels with and without torsion
    assert seen == {(kind, x) for kind in ("unreachable", "torsion")
                    for x in (True, False)}


def test_cokernel_basis_factors_only_the_residual(monkeypatch):
    # the only Smith forms the complement takes are the residual's, when
    # the unit pivots leave one, and on transform-complement the k x m
    # class matrix's; never the whole map's.  A map with no unit entry is
    # its own residual, so each list is compared exactly
    real = Matrix.smith_normal_form
    shapes = []

    def recording(self):
        shapes.append((self.nrows, self.ncols))
        return real(self)

    monkeypatch.setattr(Matrix, "smith_normal_form", recording)
    seen = set()
    for names, lam, degree in WALK_MAPS:
        f = FreeAbelian(names)
        rows, columns = verify_module._decomposables(f, lam, degree)
        _, _, residual = unit_pivot_elimination(columns)
        del shapes[:]
        info, _ = verify_module._cokernel_basis(f, lam, degree, rows,
                                                columns)
        want = [(residual.nrows, residual.ncols)] if residual.ncols else []
        if info["method"] == "transform-complement":
            want.append((info["coker_rank"], len(rows)))
        assert shapes == want, (names, lam, degree)
        seen.add((info["free"], info["method"]))
    assert seen == {(True, "greedy-words"), (False, "greedy-words"),
                    (True, "transform-complement"),
                    (False, "transform-complement")}


def test_decomposables_divisors_match_the_dense_smith_form():
    # the columns are the products of each unordered pair of lower-degree
    # words; their sparse divisors are the dense Smith D of the same map,
    # also on a seeded reordering of the columns
    rng = random.Random(14)
    Z = Ring.integers()
    for names, top in ((["x"], 7), (["x", "y"], 4), (["x", "y", "z"], 3)):
        f = FreeAbelian(names)
        for lam in (0, 1, -1, 2, 3):
            for degree in range(1, top + 1):
                rows, columns, d, _ = decomposables_smith(f, lam, degree)
                products = [
                    TensorPoly.from_word(Z, lam, f, a)
                    * TensorPoly.from_word(Z, lam, f, b)
                    for i in range(1, degree // 2 + 1)
                    for a, b in itertools.product(
                        mx.graded_basis(f, i), mx.graded_basis(f, degree - i))
                    if 2 * i < degree or a.pro_length_key <= b.pro_length_key]
                assert columns == [{rows.index(w): c for w, c
                                    in prod.terms.items()}
                                   for prod in products], (names, lam, degree)
                shuffled = rng.sample(columns, len(columns))
                assert elementary_divisors(columns) == d, (names, lam,
                                                           degree)
                assert elementary_divisors(shuffled) == d, (names, lam,
                                                            degree)


def test_cokernel_basis_refuses_degrees_below_one():
    for degree in (0, -1):
        with pytest.raises(ConfigurationError):
            compute_cokernel_basis(FreeAbelian(["x"]), 1, degree)


def test_nested_chain():
    chain = [FreeAbelian(["x"]), FreeAbelian(["x", "y"]),
             FreeAbelian(["x", "y", "z"])]
    r = verify_nested_summand(chain, 1, 3)
    assert r.passed
    assert {c.note for c in r.cells} == {"chain step 1", "chain step 2"}


# head-and-tail structure


def test_rb_free_over_rationals():
    r = verify_rb_structure("rbl", weight=Fraction(5, 3),
                            degree_bound=2, length_bound=2)
    assert r.passed
    assert dims_of(r) == [3, 6, 10]


def test_rb_integral():
    r = verify_rb_structure("rbaz", weight=-1, degree_bound=3, length_bound=3)
    assert r.passed
    assert dims_of(r) == [4, 10, 20, 35]
    assert ("degree 3 cokernel free of Lyndon rank", True) in check_names(r)


def test_rb_fp_weight_zero_sector():
    r = verify_rb_structure("rbazp", p=2, weight=1,
                            degree_bound=3, length_bound=3)
    assert r.passed
    assert dims_of(r) == [1, 2, 4, 8]
    assert ("degree 2 monomial count fills the identity-free sector",
            True) in check_names(r)


def test_rb_fp_cases():
    r1 = verify_rb_structure("rbafp1", p=2, weight=0,
                             degree_bound=3, length_bound=3)
    assert r1.passed and dims_of(r1) == [4, 10, 20, 35]
    assert ("relation [x]^2 = 0", True) in check_names(r1)

    r2 = verify_rb_structure("rbafp2", p=2, weight=1,
                             degree_bound=3, length_bound=3)
    assert r2.passed and dims_of(r2) == [4, 10, 20, 35]
    assert ("fixed tensor Lyndon words are identity powers",
            True) in check_names(r2)

    r3 = verify_rb_structure("rbafp3", p=2, weight=1,
                             degree_bound=3, length_bound=3)
    assert r3.passed and dims_of(r3) == [4, 10, 10, 5]
    names3 = dict(check_names(r3))
    assert names3["heads are p-idempotent"]
    assert names3["head monomials enumerate the coefficient algebra"]
    assert names3["every tail generator is fixed"]

    r4 = verify_rb_structure("rbafp4", p=3, weight=1,
                             degree_bound=3, length_bound=3)
    assert r4.passed and dims_of(r4) == [4, 20, 40, 40]
    names4 = dict(check_names(r4))
    assert names4["heads form an elementary p-group"]
    assert names4["head monomials enumerate the coefficient algebra"]


@pytest.mark.parametrize("p", (2, 3, 5))
def test_fixed_generators_past_the_relation_cap_are_p_idempotent(p):
    # check_relations stops at _relation_length_cap(p); one length past
    # it, every fixed power-order generator still has w^p = 1*w at every
    # unit weight, as a shuffle generator and as its Rota-Baxter tail
    length = verify_module._relation_length_cap(p) + 1
    ring = Ring.prime_field(p)
    checked = 0
    for semigroup in (verify_module._unitarized_free(["x"]),
                      verify_module._p_idempotent_heads(p, 1)[0]):
        sets = mx.standard_generating_sets(semigroup, p, length, length)
        fixed_words = [w for w in sets["tl1"] if w.length == length]
        for lam in range(1, p):
            lam = ring.of(lam)
            fixed = [g for g in verify_module._power_order_family(
                ring, lam, semigroup, p, sets)
                if g.relation is not None and g.lead_length == length]
            assert [g.name for g in fixed] == [
                w.display(True) for w in fixed_words]
            tails = verify_module._tails(ring, lam, semigroup, fixed)
            for g, tail in zip(fixed, tails):
                assert g.relation == tail.relation == (
                    "power_scalar", p, ring.one)
                assert g.image.shuffle_power(p) == g.image
                assert tail.image.power(p) == tail.image
                checked += 1
    assert checked >= p - 1


# semigroup property reports


def test_semigroup_props():
    for sg, p in ((FreeAbelian(["x"]), 2), (ElementaryPGroup(3, 1), 3),
                  (flat_semilattice(["a", "b"]), 2)):
        r = verify_semigroup_props(sg, p, 4, 4)
        assert r.passed, sg
        names = dict(check_names(r))
        assert names["classification"]
        assert names["p-power split sizes"]
        assert names["infinitely p-divisible window equals the fixed part"]
    r = verify_semigroup_props(OrderedSet(["a", "b"]), 2, 4, 4)
    assert r.passed
    assert dict(check_names(r))["zero multiplication: no power families"]


# refusal paths: misconfigured requests raise instead of reporting


def test_weight_must_be_p_unit_for_lift():
    with pytest.raises(ConfigurationError):
        verify_zp(FreeAbelian(["x"]), 2, 6, 2, 4)


def test_weight_must_be_integral_for_lift():
    with pytest.raises(ConfigurationError):
        verify_zp(FreeAbelian(["x"]), 2, 6, Fraction(1, 2), 4)


def test_zero_weight_rejected_by_nonzero_verifier():
    with pytest.raises(ConfigurationError):
        verify_fp_nonzero(FreeAbelian(["x"]), 2, 0, 4)


def test_identity_letters_need_length_bound():
    with pytest.raises(ConfigurationError):
        verify_fp_weight0(ElementaryPGroup(2, 1), 2, 4)


def test_unknown_rb_theorem():
    with pytest.raises(ConfigurationError):
        verify_rb_structure("nosuch")


def test_zero_multiplication_needs_weight_zero():
    with pytest.raises(ConfigurationError):
        verify_fp_nonzero(OrderedSet(["a"]), 2, 1, 4, 4)


# the checks are not vacuous: wrong claims fail with a counterexample


def lyndon_algebra(ring, lam, degree_bound, names=("x",)):
    f = FreeAbelian(list(names))
    gens = [word_symbol(ring, lam, f, w)
            for w in enumerate_lyndon(f, degree_bound)]
    return PresentedAlgebra(ring, lam, f, gens,
                            TensorPoly.unit(ring, lam, f))


def test_lyndon_words_do_not_span_over_z():
    alg = lyndon_algebra(Ring.integers(), 1, 6)
    cell = check_spanning(alg, 2)
    assert not cell.ok
    assert cell.note == "word x(x)x is not reachable"
    # the same generators do span over the rationals
    algq = lyndon_algebra(Ring.rationals(), 1, 6)
    assert check_spanning(algq, 2).ok


def test_lyndon_words_not_independent_over_z():
    alg = lyndon_algebra(Ring.integers(), 1, 6)
    cell = check_independence(alg, 2)
    assert not cell.ok
    assert check_independence(lyndon_algebra(Ring.rationals(), 1, 6), 2).ok


# report object


def test_report_render_and_json():
    r = verify_radford_hoffman(FreeAbelian(["x"]), 0, 3)
    text = r.render(ascii_mode=True)
    assert "theorem radford" in text
    assert "degree  dimension  monomials  rank  verdict" in text
    assert text.rstrip().endswith("verdict: PASS")
    data = r.to_json()
    parsed = json.loads(json.dumps(data))
    assert parsed["theorem"] == "radford"
    assert parsed["passed"] is True
    assert [c["dimension"] for c in parsed["cells"]] == [1, 1, 2, 4]


def test_monomials_do_not_recurse_per_generator():
    # more generators than the recursion limit, none of which fits the
    # degree bound: only the empty monomial is left
    Q = Ring.rationals()
    f = FreeAbelian(["x"])
    x = f.parse("x")
    sym = word_symbol(Q, 0, f, Word((x ** 3,)))
    count = sys.getrecursionlimit() + 50
    alg = PresentedAlgebra(Q, 0, f, [sym] * count, TensorPoly.unit(Q, 0, f))
    buckets = alg.monomials_by_degree(2)
    assert buckets == {0: [("1", alg.unit)], 1: [], 2: []}
    assert alg.monomials(0) == [("1", alg.unit)]


def test_unit_over_another_ring_or_alphabet_is_refused():
    # products run in the unit's ring and alphabet, the cells in the
    # algebra's: the two must agree
    f = FreeAbelian(["x"])
    F2, Q = Ring.prime_field(2), Ring.rationals()
    gens = [word_symbol(Q, 0, f, w) for w in enumerate_lyndon(f, 3)]
    for ring, unit in ((F2, TensorPoly.unit(Q, 0, f)),
                       (Q, TensorPoly.unit(Q, 0, FreeAbelian(["y"])))):
        with pytest.raises(ValueError, match="unit is not over"):
            PresentedAlgebra(ring, 0, f, gens, unit)


def test_generator_degree_must_match_its_image():
    # monomials are bucketed by the declared degrees, so every image, a
    # tensor polynomial or a Rota-Baxter element, must have that degree
    Q = Ring.rationals()
    f = FreeAbelian(["x"])
    m = mx.Unitarized(f)
    for unit, image in (
            (TensorPoly.unit(Q, 1, f), word_poly(Q, 1, f, (f.parse("x"),))),
            (mx.RBElement.one(Q, 1, m), mx.RBElement.from_parts(
                Q, 1, m, m.parse("x"), mx.empty_word()))):
        sg = unit.semigroup
        PresentedAlgebra(Q, 1, sg, [GeneratorSymbol("g", image, 1, 0)], unit)
        with pytest.raises(ValueError, match="symbol degree of g differs"):
            PresentedAlgebra(Q, 1, sg, [GeneratorSymbol("g", image, 2, 0)],
                             unit)


def test_generator_powers_do_not_recurse_per_exponent():
    F2 = Ring.prime_field(2)
    f = FreeAbelian(["x"])
    x = f.parse("x")
    alg = PresentedAlgebra(F2, 0, f, [word_symbol(F2, 0, f, Word((x,)))],
                           TensorPoly.unit(F2, 0, f))
    assert alg.power_of(0, 1500).is_zero()
    # over Q the cached powers are the repeated products, and a higher
    # power is built on the cached ones
    Q = Ring.rationals()
    image = word_poly(Q, 1, f, (x,)) + word_poly(Q, 1, f, (x ** 2,))
    sym = GeneratorSymbol("g", image, 2, 1)
    alg = PresentedAlgebra(Q, 1, f, [sym], TensorPoly.unit(Q, 1, f))
    want = TensorPoly.unit(Q, 1, f)
    for e in range(1, 5):
        want = want * image
        assert alg.power_of(0, e) == want
    assert alg.power_of(0, 7) == want * image * image * image
    assert sorted(alg._powers) == [(0, e) for e in range(1, 8)]


def test_failing_report_has_exit_code_one():
    # wire a failing cell through the report by checking a wrong claim
    alg = lyndon_algebra(Ring.integers(), 1, 4)
    cell = check_spanning(alg, 2)
    report = mx.VerificationReport(
        theorem="demo", ring=Ring.integers(), weight=1,
        semigroup=FreeAbelian(["x"]), bounds={"degree": 2, "length": None})
    report.cells.append(cell)
    assert not report.passed
    assert report.exit_code == 1
    assert "FAIL" in report.render(ascii_mode=True)


# failure output: every way a certification cell can fail, with its note


def failing_cells(report):
    return [(c.degree, c.dimension, c.monomials, c.rank, c.ok, c.note)
            for c in report.cells if not c.ok]


def cell_of(cell):
    return (cell.degree, cell.dimension, cell.monomials, cell.rank, cell.ok,
            cell.note)


def patch_cokernel(monkeypatch, degree, lift):
    """Replace the lifted complement of one degree by lift(semigroup,
    weight) -> (names, polynomials)."""
    real = verify_module.compute_cokernel_basis

    def patched(semigroup, weight, n):
        diag, lifted = real(semigroup, weight, n)
        if n == degree:
            names, lifted = lift(semigroup, weight)
            diag = dict(diag, y_words=names)
        return diag, lifted

    monkeypatch.setattr(verify_module, "compute_cokernel_basis", patched)


def patch_tensor_lyndon(monkeypatch, pick):
    """Replace the tensor Lyndon family by pick(generating sets)."""
    real = verify_module.standard_generating_sets

    def patched(*args):
        sets = dict(real(*args))
        sets["tel"] = pick(sets)
        return sets

    monkeypatch.setattr(verify_module, "standard_generating_sets", patched)


def test_field_cells_fail_on_a_dependent_family(monkeypatch):
    f = FreeAbelian(["x"])
    x = f.parse("x")
    real = verify_module.enumerate_lyndon
    monkeypatch.setattr(verify_module, "enumerate_lyndon",
                        lambda *args: real(*args) + [Word((x, x))])
    r = verify_radford_hoffman(f, 1, 3)
    assert failing_cells(r) == [
        (2, 2, 3, 2, False, "dimension 2, monomials 3, new rank 2"),
        (3, 4, 5, 4, False, "dimension 4, monomials 5, new rank 4")]
    assert r.counterexample == "x^2 = 2*[x(x)x] + 1*[x^2]"


def test_field_cells_fail_when_an_image_leaves_the_window(monkeypatch):
    real = verify_module._tensor_rows

    def letters_only_in_degree_2(semigroup, degree_bound, length_bound):
        rows = real(semigroup, degree_bound, length_bound)
        rows[2] = [w for w in rows[2] if len(w) == 1]
        return rows

    monkeypatch.setattr(verify_module, "_tensor_rows",
                        letters_only_in_degree_2)
    r = verify_radford_hoffman(FreeAbelian(["x"]), 1, 3)
    assert failing_cells(r) == [
        (2, 1, 2, 1, False, "image of x^2 leaves the window")]
    assert r.counterexample is None


def test_z_cells_fail_on_a_missing_generator(monkeypatch):
    patch_cokernel(monkeypatch, 2, lambda s, lam: ([], []))
    r = verify_z_polynomial(FreeAbelian(["x"]), 1, 3)
    assert failing_cells(r) == [(2, 2, 1, 0, False, "non-square system"),
                                (3, 4, 3, 0, False, "non-square system")]
    assert r.counterexample is None


def test_z_cells_fail_when_an_image_leaves_the_window(monkeypatch):
    def lift(s, lam):
        x = s.parse("x")
        poly = word_poly(Ring.integers(), lam, s, (x, x)) \
            + word_poly(Ring.integers(), lam, s, (x,))
        return ["x(x)x"], [poly]

    patch_cokernel(monkeypatch, 2, lift)
    r = verify_z_polynomial(FreeAbelian(["x"]), 1, 3)
    assert failing_cells(r) == [
        (2, 2, 2, 0, False, "image of [x(x)x] leaves the window"),
        (3, 4, 4, 0, False, "image of x*[x(x)x] leaves the window")]
    assert r.counterexample is None


def test_z_cells_fail_on_a_non_unit_divisor(monkeypatch):
    # the Lyndon word x^2 in place of x(x)x: x*x = 2 x(x)x + x^2
    def lift(s, lam):
        x = s.parse("x")
        return ["x^2"], [word_poly(Ring.integers(), lam, s, (x ** 2,))]

    patch_cokernel(monkeypatch, 2, lift)
    r = verify_z_polynomial(FreeAbelian(["x"]), 1, 3)
    assert failing_cells(r) == [
        (2, 2, 2, 2, False, "elementary divisors [2]"),
        (3, 4, 4, 4, False, "elementary divisors [2]")]
    assert r.counterexample is None


def test_z_cells_fail_on_a_rank_deficit(monkeypatch):
    def lift(s, lam):
        x = word_poly(Ring.integers(), lam, s, (s.parse("x"),))
        return ["xx"], [x * x]

    patch_cokernel(monkeypatch, 2, lift)
    r = verify_z_polynomial(FreeAbelian(["x"]), 1, 3)
    assert failing_cells(r) == [(2, 2, 2, 1, False, "rank 1 of 2"),
                                (3, 4, 4, 3, False, "rank 3 of 4")]
    assert r.counterexample is None


def test_zp_cells_fail_on_lyndon_words(monkeypatch):
    patch_tensor_lyndon(monkeypatch, lambda sets: sets["lyn"])
    r = verify_zp(FreeAbelian(["x"]), 2, 4, 1, 3)
    assert failing_cells(r) == [
        (2, 2, 2, 1, False, "determinant not a unit"),
        (3, 4, 4, 3, False, "determinant not a unit")]
    assert r.counterexample is None


def test_zp_cells_fail_on_a_missing_generator(monkeypatch):
    patch_tensor_lyndon(monkeypatch, lambda sets: [
        w for w in sets["tel"] if w.degree != 2])
    r = verify_zp(FreeAbelian(["x"]), 2, 4, 1, 3)
    assert failing_cells(r) == [
        (2, 2, 1, 1, False, "determinant not a unit"),
        (3, 4, 3, 3, False, "determinant not a unit")]
    assert r.counterexample is None


def test_rbazp_cells_fail_on_lyndon_words(monkeypatch):
    patch_tensor_lyndon(monkeypatch, lambda sets: sets["lyn"])
    r = verify_rb_structure("rbazp", ("x",), 1, 2, 4, 3, 3)
    assert failing_cells(r) == [
        (2, 4, 4, 3, False, "dependent monomials mod 2"),
        (3, 8, 8, 6, False, "dependent monomials mod 2")]
    assert r.counterexample is None


def scale_one_letter_lifts(monkeypatch):
    """Double the lifted complement of the one-letter alphabet in degree 2."""
    real = verify_module._cokernel_basis

    def patched(semigroup, lam, n, rows, columns):
        diag, lifted = real(semigroup, lam, n, rows, columns)
        if len(semigroup.generators) == 1 and n == 2:
            lifted = [poly.scale(2) for poly in lifted]
        return diag, lifted

    monkeypatch.setattr(verify_module, "_cokernel_basis", patched)


def test_nested_cells_fail_on_a_scaled_complement(monkeypatch):
    scale_one_letter_lifts(monkeypatch)
    r = verify_nested_summand([FreeAbelian(["x"]), FreeAbelian(["x", "y"])],
                              1, 3)
    assert failing_cells(r) == [(2, 4, 1, 1, False, "divisors [2]")]
    assert r.counterexample is None


def pad_word(word, big):
    """The word over the larger free alphabet big, each letter's exponent
    vector padded with zeros."""
    width = len(big.generators)
    return Word(tuple(mx.Element(big, l.key + (0,) * (width - len(l.key)))
                      for l in word.letters))


def reference_nested(semigroups, weight, degree_bound):
    """Every nested cell as cell_of gives it, from each lift projected
    onto rows rank.. of the dense Smith transform U of the next
    alphabet's map, whose divisors must all be 1."""
    Z = Ring.integers()
    cells = []
    for step, (small, big) in enumerate(zip(semigroups, semigroups[1:])):
        for n in range(1, degree_bound + 1):
            _, lifted = verify_module.compute_cokernel_basis(small, weight, n)
            rows, _, d, U = decomposables_smith(big, weight, n)
            rank = len(d)
            size = len(rows) - rank
            columns = []
            for poly in lifted:
                vec = {rows.index(pad_word(w, big)): c
                       for w, c in poly.terms.items()}
                columns.append([sum(U.rows[i][j] * c for j, c in vec.items())
                                for i in range(rank, len(rows))])
            d, _, _ = from_columns(Z, columns,
                                          size).smith_normal_form()
            ok = len(d) == len(columns) and all(x == 1 for x in d)
            cells.append((n, size, len(columns), len(d), ok,
                          "chain step %d" % (step + 1) if ok
                          else "divisors %s" % (d,)))
    return cells


@pytest.mark.parametrize("scaled", [False, True])
def test_nested_cells_match_the_transform_projection(monkeypatch, scaled):
    if scaled:
        scale_one_letter_lifts(monkeypatch)
    free = [FreeAbelian(["x", "y", "z"][:k]) for k in (1, 2, 3)]
    for chain, bound in ((free[:2], 4), (free, 3)):
        for lam in (1, -1):
            cells = verify_nested_summand(chain, lam, bound).cells
            assert [cell_of(c) for c in cells] == \
                reference_nested(chain, lam, bound), (len(chain), lam)


def two_call_nested(semigroups, weight, degree_bound):
    """Every nested cell from two elementary_divisors calls per big map:
    alone for its rank r, then with the padded lifts appended, past r."""
    cells = []
    for step, (small, big) in enumerate(zip(semigroups, semigroups[1:])):
        for n in range(1, degree_bound + 1):
            _, lifted = verify_module.compute_cokernel_basis(small, weight, n)
            rows, columns = verify_module._decomposables(big, weight, n)
            lifts = [{rows.index(pad_word(w, big)): c
                      for w, c in poly.terms.items()} for poly in lifted]
            r = len(elementary_divisors(columns))
            d = elementary_divisors(columns + lifts)[r:]
            ok = len(d) == len(lifts) and all(x == 1 for x in d)
            cells.append((n, len(rows) - r, len(lifts), len(d), ok,
                          "chain step %d" % (step + 1) if ok
                          else "divisors %s" % (d,)))
    return cells


def double_two_letter_column(monkeypatch):
    """Double the first column of every two-letter decomposables map."""
    real = verify_module._decomposables

    def patched(semigroup, lam, degree):
        rows, columns = real(semigroup, lam, degree)
        if len(semigroup.generators) == 2 and columns:
            columns = [{i: 2 * c for i, c in columns[0].items()}] + \
                columns[1:]
        return rows, columns

    monkeypatch.setattr(verify_module, "_decomposables", patched)


def maps_at_weight(weight):
    """A patch that builds every decomposables map at this weight, whose
    divisors are not all 1, the lifted bases too, whatever weight the
    nested check runs at."""
    def patch(monkeypatch):
        real = verify_module._decomposables
        monkeypatch.setattr(verify_module, "_decomposables",
                            lambda semigroup, lam, degree:
                            real(semigroup, weight, degree))
    return patch


@pytest.mark.parametrize("patch", [None, scale_one_letter_lifts,
                                   double_two_letter_column] + [
    pytest.param(maps_at_weight(w), id="maps_at_weight_%d" % w)
    for w in (0, 2, 3)])
def test_nested_cells_match_the_two_call_route(monkeypatch, patch):
    # one presentation of each big map's cokernel, torsion relations
    # beside the lifts' classes, against the map factored alone and again
    # with the lifts appended; the doubled column and the maps at weights
    # 0, 2 and 3 have divisors other than 1
    if patch is not None:
        patch(monkeypatch)
    free = [FreeAbelian(["x", "y", "z"][:k]) for k in (1, 2, 3)]
    for chain, bound in ((free[:2], 4), (free, 3)):
        for lam in (1, -1):
            cells = verify_nested_summand(chain, lam, bound).cells
            assert [cell_of(c) for c in cells] == \
                two_call_nested(chain, lam, bound), (len(chain), lam)


def test_nested_check_eliminates_each_big_map_once(monkeypatch):
    # each big map is eliminated once, beside each lifted basis's own;
    # elementary_divisors then reads only the lifts' classes and one
    # relation per divisor of the map other than 1, never its columns
    eliminated, divided = [], []
    real_elim = verify_module.unit_pivot_elimination
    real_divisors = verify_module.elementary_divisors

    def counting_elim(columns):
        eliminated.append(len(columns))
        return real_elim(columns)

    def counting_divisors(columns):
        divided.append(len(columns))
        return real_divisors(columns)

    monkeypatch.setattr(verify_module, "unit_pivot_elimination",
                        counting_elim)
    monkeypatch.setattr(verify_module, "elementary_divisors",
                        counting_divisors)
    chain = [FreeAbelian(["x", "y", "z"][:k]) for k in (1, 2, 3)]
    sizes = {(k, n): len(verify_module._decomposables(chain[k - 1], 1, n)[1])
             for k in (1, 2, 3) for n in (1, 2, 3)}
    r = verify_nested_summand(chain, 1, 3)
    assert r.passed
    assert eliminated == [sizes[k, n] for k in (1, 2) for n in (1, 2, 3)] \
        + [sizes[k, n] for k in (2, 3) for n in (1, 2, 3)]
    assert divided == [c.monomials for c in r.cells]
    del eliminated[:], divided[:]
    double_two_letter_column(monkeypatch)
    r = verify_nested_summand(chain[:2], 1, 3)
    # degree 1 has no column to double; the maps of degrees 2 and 3 have
    # one divisor 2 each, a torsion relation beside the lifts' classes
    assert eliminated == [sizes[k, n] for k in (1, 2) for n in (1, 2, 3)]
    assert divided == [c.monomials + t for c, t in zip(r.cells, (0, 1, 1))]
    assert not r.passed


def test_only_the_complement_walk_factors_the_dense_transform(monkeypatch):
    # verify_zp reads divisors only, and the nested check needs lifted
    # bases for every alphabet but the last
    real = verify_module._cokernel_basis
    calls = []

    def recording(semigroup, lam, n, rows, columns):
        calls.append((len(semigroup.generators), n))
        return real(semigroup, lam, n, rows, columns)

    monkeypatch.setattr(verify_module, "_cokernel_basis", recording)
    assert verify_zp(FreeAbelian(["x"]), 3, 2, 1, 5).passed
    assert calls == []
    chain = [FreeAbelian(["x", "y", "z"][:k]) for k in (1, 2, 3)]
    assert verify_nested_summand(chain, 1, 3).passed
    assert calls == [(k, n) for k in (1, 2) for n in (1, 2, 3)]


def test_nested_check_builds_each_map_once(monkeypatch):
    # three alphabets to degree 3 have 9 distinct maps; the middle
    # alphabet's serve both its lifted bases and the step into it
    real = verify_module._decomposables
    calls = []

    def recording(semigroup, lam, degree):
        calls.append((len(semigroup.generators), degree))
        return real(semigroup, lam, degree)

    monkeypatch.setattr(verify_module, "_decomposables", recording)
    chain = [FreeAbelian(["x", "y", "z"][:k]) for k in (1, 2, 3)]
    assert verify_nested_summand(chain, 1, 3).passed
    assert sorted(calls) == [(k, n) for k in (1, 2, 3) for n in (1, 2, 3)]


def test_nested_cells_fail_on_an_unsaturated_map(monkeypatch):
    # a divisor 2 in the big alphabet's map leaves its image unsaturated,
    # and the image plus the lifts then is not saturated either
    double_two_letter_column(monkeypatch)
    r = verify_nested_summand([FreeAbelian(["x"]), FreeAbelian(["x", "y"])],
                              1, 3)
    assert failing_cells(r) == [(2, 4, 1, 1, False, "divisors [2]"),
                                (3, 12, 2, 2, False, "divisors [1, 2]")]
    assert r.counterexample is None


def test_independence_failure_notes():
    assert cell_of(check_independence(
        lyndon_algebra(Ring.integers(), 1, 6), 2)) == (
        2, 2, 2, 2, False, "not a direct summand: elementary divisors [1, 2]")
    assert cell_of(check_independence(
        lyndon_algebra(Ring.truncated_padic(2, 4), 1, 6), 2)) == (
        2, 2, 2, 1, False, "rank 1 mod 2")
    assert cell_of(check_independence(
        lyndon_algebra(Ring.prime_field(3), 1, 6), 3)) == (
        3, 3, 4, 3, False, "x^3 = 1*[x^3]")


def test_zpn_cells_take_the_rank_mod_p():
    # independent over Q and over Z, dependent mod 3
    R = Ring.truncated_padic(3, 4)
    f = FreeAbelian(["x"])
    x = f.parse("x")
    xx, x2 = Word((x, x)), Word((x ** 2,))
    gens = [GeneratorSymbol(name, TensorPoly(R, 1, f, terms), 2, 2)
            for name, terms in (("a", {xx: 1, x2: 2}), ("b", {xx: 2, x2: 1}))]
    alg = PresentedAlgebra(R, 1, f, gens, TensorPoly.unit(R, 1, f))
    assert cell_of(check_independence(alg, 2)) == (
        2, 2, 2, 1, False, "rank 1 mod 3")
    assert cell_of(check_spanning(alg, 2)) == (
        2, 2, 2, 1, False, "word x^2 is not reachable")


def test_spanning_fails_when_an_image_leaves_the_window():
    # a generator that claims length 0 gets past the length budget
    Q = Ring.rationals()
    f = FreeAbelian(["x"])
    x = f.parse("x")
    bad = GeneratorSymbol("bad", TensorPoly.from_word(Q, 1, f, Word((x, x))),
                          2, 0)
    alg = PresentedAlgebra(Q, 1, f, [word_symbol(Q, 1, f, Word((x,))), bad],
                           TensorPoly.unit(Q, 1, f), length_bound=1)
    assert cell_of(check_spanning(alg, 2)) == (
        2, 1, 1, 0, False, "image of bad leaves the window")


def reference_spanning(algebra, degree):
    """The spanning check that solves for every word, passing or not."""
    ring = algebra.ring
    rows = list(mx.graded_basis(algebra.semigroup, degree,
                                algebra.length_bound))
    index = {w: i for i, w in enumerate(rows)}
    cols = algebra.monomials(degree)
    vectors = []
    for name, img in cols:
        column = [ring.zero] * len(rows)
        for w, c in img.terms.items():
            if w not in index:
                return False, 0, "image of %s leaves the window" % name
            column[index[w]] = c
        vectors.append(column)
    matrix = from_columns(ring, vectors, len(rows))
    if ring.kind == "Z":
        divisors = matrix.smith_normal_form()[0]
        rank = len(divisors)
    elif ring.is_field:
        rank = matrix.row_reduce()[0]
    else:
        reduced = from_columns(
            Ring.prime_field(ring.p),
            [[c % ring.p for c in column] for column in vectors], len(rows))
        rank = reduced.row_reduce()[0]
    for w in rows:
        target = [ring.one if u == w else ring.zero for u in rows]
        if matrix.solve(target) is None:
            return False, rank, "word %s is not reachable" % w.display(True)
    return True, rank, None


SPANNING_RINGS = (Ring.rationals(), Ring.prime_field(2), Ring.prime_field(3),
                  Ring.integers(), Ring.truncated_padic(2, 4),
                  Ring.truncated_padic(3, 4))


@pytest.mark.parametrize("names,top", [(("x",), 4), (("x", "y"), 3)])
@pytest.mark.parametrize("ring", SPANNING_RINGS, ids=repr)
def test_spanning_matches_solving_every_word(names, top, ring):
    # two letters stop at degree 3: at degree 4 the reference solves for
    # 82 words one at a time, longer than the rest of the suite takes
    first_failure = {}
    for lam in (0, 1, 2):
        alg = lyndon_algebra(ring, lam, top, names)
        for degree in range(top + 1):
            cell = check_spanning(alg, degree)
            got = (cell.ok, cell.rank, cell.note)
            assert got == reference_spanning(alg, degree), (lam, degree)
            if not cell.ok:
                first_failure.setdefault(lam, (degree, cell.note))
    if ring.kind == "Zp":
        # Lyndon words span mod p^N only below degree p
        word = "(x)".join(["x"] * ring.p)
        assert first_failure == {
            lam: (ring.p, "word %s is not reachable" % word)
            for lam in (0, 1, 2)}


def test_passing_spanning_check_runs_no_solve(monkeypatch):
    f = FreeAbelian(["x"])
    Z = Ring.integers()
    cokernel_gens = []
    for k in range(1, 5):
        diag, lifted = compute_cokernel_basis(f, 1, k)
        cokernel_gens += [GeneratorSymbol(name, poly, k,
                                          poly.leading_term()[0].length)
                          for name, poly in zip(diag["y_words"], lifted)]
    Zp = Ring.truncated_padic(3, 4)
    tensor_lyndon = mx.standard_generating_sets(f, 3, 4)["tel"]
    algebras = [
        lyndon_algebra(Ring.rationals(), 1, 4, ("x", "y")),
        PresentedAlgebra(Z, 1, f, cokernel_gens, TensorPoly.unit(Z, 1, f)),
        PresentedAlgebra(Zp, 1, f,
                         [word_symbol(Zp, 1, f, w) for w in tensor_lyndon],
                         TensorPoly.unit(Zp, 1, f)),
    ]

    def refuse(*args):
        raise AssertionError("a passing spanning check tested a word")

    monkeypatch.setattr(Matrix, "solve", refuse)
    monkeypatch.setattr(verify_module, "_cokernel_classes", refuse)
    for alg in algebras:
        for degree in range(5):
            assert check_spanning(alg, degree).ok, (alg.ring, degree)


def test_failing_spanning_check_factors_once(monkeypatch):
    # x^2 alone reaches the one-letter word x^2 but not x(x)x, and 3*x^2
    # mod 3^4 neither; the first word out of reach is named from one
    # presentation of the cokernel per failing integral cell, none over
    # Q, not a solve per word, and never a Smith form of the whole cell
    def refuse(*args):
        raise AssertionError("the failure path solved word by word")

    monkeypatch.setattr(Matrix, "solve", refuse)
    presented, shapes = [], []
    real_classes = verify_module._cokernel_classes
    real_smith = Matrix.smith_normal_form

    def counting_classes(m, columns):
        presented.append((m, len(columns)))
        return real_classes(m, columns)

    def recording_smith(self):
        shapes.append((self.nrows, self.ncols))
        return real_smith(self)

    monkeypatch.setattr(verify_module, "_cokernel_classes", counting_classes)
    monkeypatch.setattr(Matrix, "smith_normal_form", recording_smith)
    f = FreeAbelian(["x"])
    x = f.parse("x")
    Zp = Ring.truncated_padic(3, 4)
    cells = ((Ring.rationals(), 1, "x(x)x"), (Ring.integers(), 1, "x(x)x"),
             (Zp, 1, "x(x)x"), (Zp, 3, "x^2"))
    for ring, scale, word in cells:
        gen = GeneratorSymbol("g", TensorPoly(ring, 1, f, {
            Word((x ** 2,)): scale}), 2, 1)
        alg = PresentedAlgebra(ring, 1, f, [gen], TensorPoly.unit(ring, 1, f))
        assert cell_of(check_spanning(alg, 2)) == (
            2, 2, 1, int(scale == 1), False,
            "word %s is not reachable" % word), ring
    assert presented == [(2, 1)] * 3
    assert (2, 1) not in shapes


def test_monomial_names_are_distinct_in_each_degree():
    F2 = Ring.prime_field(2)
    one_letter = lyndon_algebra(F2, 1, 6)
    assert [name for name, _ in one_letter.monomials(2)] == ["[x^2]", "x^2"]
    monoid = mx.Unitarized(FreeAbelian(["x", "y"]))
    with_unit_letter = PresentedAlgebra(
        F2, 1, monoid, [word_symbol(F2, 1, monoid, w)
                        for w in enumerate_lyndon(monoid, 4, 3)],
        TensorPoly.unit(F2, 1, monoid), length_bound=3)
    for alg in (one_letter, lyndon_algebra(F2, 1, 5, ("x", "y")),
                with_unit_letter):
        for degree, bucket in alg.monomials_by_degree(4).items():
            names = [name for name, _ in bucket]
            assert len(set(names)) == len(names), (degree, names)


def test_every_verifier_refuses_negative_bounds():
    f = FreeAbelian(["x"])
    calls = [
        lambda: verify_radford_hoffman(f, 0, -1),
        lambda: verify_radford_hoffman(f, 1, 3, -1),
        lambda: verify_fp_weight0(f, 2, -1),
        lambda: verify_fp_nonzero(f, 2, 1, -1),
        lambda: verify_zp(f, 2, 4, 1, -1),
        lambda: verify_z_polynomial(f, 1, -1),
        lambda: verify_nested_summand([f, FreeAbelian(["x", "y"])], 1, -1),
        lambda: verify_rb_structure("rbl", ("x",), 1, None, None, -2, 3),
        lambda: verify_rb_structure("rbl", ("x",), 1, None, None, 3, -1),
        lambda: verify_rb_structure("rbazp", ("x",), 1, 2, 4, -1),
        lambda: verify_semigroup_props(f, 2, -1),
    ]
    for call in calls:
        with pytest.raises(ConfigurationError):
            call()


def test_rbazp_refuses_an_explicit_precision_zero():
    with pytest.raises(ConfigurationError):
        verify_rb_structure("rbazp", ("x",), 1, 2, 0, 3)
    assert verify_rb_structure("rbazp", ("x",), 1, 2, None, 3).bounds[
        "precision"] == 4


# monomials on the algebra's memo against plain products, fast cells
# against the exact tracked elimination over the rows' own keys


# each ring with the weights drawn over it
DRAW_RINGS = [pytest.param(ring, weights, id=repr(ring)) for ring, weights in (
    (Ring.rationals(), (0, 1, -1, Fraction(5, 3))),
    (Ring.prime_field(2), (0, 1)),
    (Ring.prime_field(3), (0, 1, 2)),
    (Ring.integers(), (1, -1)),
    (Ring.truncated_padic(3, 4), (1, 2, -1)),
)]


def draw_coefficient(rng, ring):
    if ring.kind == "Q":
        return rng.choice((1, -1, 2, Fraction(5, 3), Fraction(-1, 2)))
    if ring.is_field:
        return rng.randrange(1, ring.p)
    return rng.choice((1, -1, 2, 3))


def draw_generators(rng, ring, kind, lam, semigroup, keys_of, leads):
    """One generator per (leading key, degree, length), its image the
    leading key plus up to two smaller keys of the same degree; at random
    one image is then replaced by a multiple of another of the same
    degree, so that some cells are deficient."""
    gens = []
    for lead, degree, length in leads:
        smaller = [k for k in keys_of(degree)
                   if kind.key_order(k) < kind.key_order(lead)]
        terms = {lead: 1}
        for k in rng.sample(smaller, min(len(smaller), rng.randint(0, 2))):
            terms[k] = draw_coefficient(rng, ring)
        gens.append(GeneratorSymbol("g%d" % len(gens),
                                    kind(ring, lam, semigroup, terms),
                                    degree, length))
    return with_a_dependent_image(rng, ring, gens)


def with_a_dependent_image(rng, ring, gens):
    pairs = [(i, j) for i, a in enumerate(gens) for j, b in enumerate(gens)
             if i != j and a.degree == b.degree >= 2]
    if pairs and rng.random() < 0.5:
        i, j = rng.choice(pairs)
        g = gens[i]
        gens[i] = GeneratorSymbol(
            g.name, gens[j].image.scale(draw_coefficient(rng, ring)),
            g.degree, g.lead_length)
    return gens


def draw_tensor_algebra(rng, ring, lam):
    """Lyndon words over Q and F_p, tensor Lyndon words over Z/p^N, each
    perturbed by smaller words, and the lifted cokernel complements over
    Z: families that pass, unless one image was made dependent."""
    names = rng.choice((("x",), ("x", "y")))
    bound = 5 - len(names)
    f = FreeAbelian(list(names))
    if ring.kind == "Z":
        gens = []
        for k in range(1, bound + 1):
            diag, lifted = compute_cokernel_basis(f, lam, k)
            gens += [GeneratorSymbol("g%d" % len(gens), poly, k,
                                     poly.leading_term()[0].length)
                     for poly in lifted]
        gens = with_a_dependent_image(rng, ring, gens)
    else:
        family = enumerate_lyndon(f, bound) if ring.is_field else \
            mx.standard_generating_sets(f, ring.p, bound)["tel"]
        gens = draw_generators(
            rng, ring, TensorPoly, lam, f,
            lambda d: list(mx.graded_basis(f, d)),
            [(w, w.degree, w.length) for w in family])
    alg = PresentedAlgebra(ring, lam, f, gens, TensorPoly.unit(ring, lam, f))
    return alg, {n: list(mx.graded_basis(f, n)) for n in range(bound + 1)}


def draw_rb_algebra(rng, ring, lam, bound, length):
    """The rational Rota-Baxter generators (the head letter and every
    Lyndon tail), perturbed by smaller keys."""
    monoid = mx.Unitarized(FreeAbelian(["x"]))
    ident = monoid.identity
    x = monoid.parse("x")

    def keys_of(d):
        return [(h, t) for h in monoid.elements_up_to(d)
                for t in mx.graded_basis(monoid, d - h.degree, length)]

    leads = [((x, mx.empty_word()), 1, 0)] + [
        ((ident, w), w.degree, w.length)
        for w in enumerate_lyndon(monoid, bound, length)]
    gens = draw_generators(rng, ring, mx.RBElement, lam, monoid, keys_of,
                           leads)
    alg = PresentedAlgebra(ring, lam, monoid, gens,
                           mx.RBElement.one(ring, lam, monoid), length)
    return alg, {n: keys_of(n) for n in range(bound + 1)}


def reference_monomials(alg, bound):
    """{degree: {name: image}} over exponent vectors, each image a chain
    of plain products with no shared memo."""
    out = {n: {} for n in range(bound + 1)}
    gens = alg.generators
    budget = alg.length_bound

    def walk(i, deg, length, parts, image):
        if i == len(gens):
            out[deg]["*".join(parts) or "1"] = image
            return
        g = gens[i]
        walk(i + 1, deg, length, parts, image)
        e = 1
        while (g.cap is None or e <= g.cap) and deg + e * g.degree <= bound \
                and (budget is None or length + e * g.lead_length <= budget):
            image = image * g.image
            walk(i + 1, deg + e * g.degree, length + e * g.lead_length,
                 parts + (g.name if e == 1 else "%s^%d" % (g.name, e),),
                 image)
            e += 1

    walk(0, 0, 0, (), alg.unit)
    return out


def reference_filtered_cells(field, key_order, rows_by_degree,
                             cols_by_degree):
    """Field cells by one exact tracked elimination over the rows' keys,
    each re-keyed by key_order to an orderable tuple."""
    elim = SparseEliminator(field, track=True)
    window = {key_order(k) for keys in rows_by_degree.values() for k in keys}
    counterexample = None
    cells = []
    for n in sorted(set(rows_by_degree) | set(cols_by_degree)):
        dim = len(rows_by_degree.get(n, ()))
        cols = cols_by_degree.get(n, [])
        note = None
        increment = 0
        for name, vec in cols:
            vec = {key_order(k): c for k, c in vec.items()}
            if not window.issuperset(vec):
                note = note or "image of %s leaves the window" % name
            elif elim.insert(vec, tag=name):
                increment += 1
            elif counterexample is None:
                counterexample = verify_module._dependency(elim, name, vec)
        ok = dim == len(cols) == increment and note is None
        if not ok and note is None:
            note = "dimension %d, monomials %d, new rank %d" % (
                dim, len(cols), increment)
        cells.append((n, dim, len(cols), increment, ok, note))
    return cells, counterexample


def reference_square_cells(ring, key_order, rows_by_degree, cols_by_degree):
    """Square cells by dense Smith forms over Z and exact elimination mod p
    over Z/p^N, both over the rows' keys, re-keyed by key_order to
    orderable tuples for the elimination."""
    cells = []
    for n in sorted(rows_by_degree):
        keys = rows_by_degree[n]
        cols = cols_by_degree.get(n, [])
        rank = 0
        note = None
        if ring.kind == "Z" and len(keys) != len(cols):
            note = "non-square system"
        elif any(not set(keys).issuperset(vec) for _, vec in cols):
            note = next("image of %s leaves the window" % name
                        for name, vec in cols if not set(keys).issuperset(vec))
        elif ring.kind == "Z":
            divisors = Matrix(ring, [[vec.get(k, 0) for _, vec in cols]
                                     for k in keys]).smith_normal_form()[0] \
                if cols else []
            rank = len(divisors)
            if any(d != 1 for d in divisors):
                note = "elementary divisors %s" % [d for d in divisors
                                                   if d != 1]
            elif rank != len(keys):
                note = "rank %d of %d" % (rank, len(keys))
        else:
            elim = SparseEliminator(Ring.prime_field(ring.p))
            for _, vec in cols:
                elim.insert({key_order(k): c % ring.p
                             for k, c in vec.items()})
            rank = elim.rank
            if not len(keys) == len(cols) == rank:
                note = "determinant not a unit"
        cells.append((n, len(keys), len(cols), rank, note is None, note))
    return cells


def word_columns(buckets):
    return {n: [(name, image.terms) for name, image in bucket]
            for n, bucket in buckets.items()}


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("ring,weights", DRAW_RINGS)
def test_code_form_cells_match_the_word_key_oracle(ring, weights, seed):
    rng = random.Random("%r/%d" % (ring, seed))
    lam = ring.of(weights[seed % len(weights)])
    drawn = [(mx.TensorPoly, draw_tensor_algebra(rng, ring, lam))]
    if ring.is_field:
        drawn.append((mx.RBElement, draw_rb_algebra(rng, ring, lam, 3, 3)))
    for kind, (alg, rows) in drawn:
        bound = max(rows)
        buckets = alg.monomials_by_degree(bound)
        expected = reference_monomials(alg, bound)
        assert {n: dict(bucket) for n, bucket in buckets.items()} == expected
        columns = word_columns(buckets)
        codes = {n: [kind.code_key(k) for k in keys]
                 for n, keys in rows.items()}
        if ring.is_field:
            report = mx.VerificationReport("draw", ring, lam,
                                           alg.semigroup, {})
            verify_module._filtered_cells(report, ring, codes, buckets)
            assert ([cell_of(c) for c in report.cells],
                    report.counterexample) == reference_filtered_cells(
                        ring, kind.key_order, rows, columns)
        else:
            assert [cell_of(c) for c in verify_module._square_cells(
                ring, codes, buckets)] == reference_square_cells(
                    ring, kind.key_order, rows, columns)


@pytest.mark.parametrize("kind", ["shuffle", "rota-baxter"])
def test_products_with_the_unit_are_the_other_operand(kind):
    # every monomial's first factor multiplies the unit, which is skipped;
    # the images are still the products rebuilt with *, term for term
    Q = Ring.rationals()
    rng = random.Random("unit/" + kind)
    if kind == "shuffle":
        alg, rows = draw_tensor_algebra(rng, Q, Fraction(5, 3))
    else:
        alg, rows = draw_rb_algebra(rng, Q, Fraction(1, 2), 3, 3)
    for g in alg.generators:
        assert alg.multiply(alg.unit, g.image) is g.image
        assert alg.multiply(g.image, alg.unit) is g.image
    bound = max(rows)
    expected = reference_monomials(alg, bound)
    for n, bucket in alg.monomials_by_degree(bound).items():
        assert sorted(name for name, _ in bucket) == sorted(expected[n])
        for name, image in bucket:
            want = expected[n][name]
            assert (image.code_terms, image.den) == \
                (want.code_terms, want.den), (n, name)


# cells that fail the certificate are eliminated once, in their own field


def certificate_off(monkeypatch):
    """Make every cell fail the leading-entry certificate, so each one
    goes through the eliminators."""
    monkeypatch.setattr(verify_module, "_certified",
                        lambda *args, **kwargs: False)


def record_eliminators(monkeypatch):
    """The (ring, tracked) of every eliminator the verifiers make, with
    the certificate off."""
    certificate_off(monkeypatch)
    made = []

    class Recording(SparseEliminator):
        def __init__(self, ring, track=False):
            super().__init__(ring, track)
            made.append((ring, track))

    monkeypatch.setattr(verify_module, "SparseEliminator", Recording)
    return made


P61 = 2 ** 61 - 1


def test_q_cell_rank_falls_back_when_p_divides_a_minor(monkeypatch):
    # a large prime in an entry or a minor changes nothing: the rank is
    # taken exactly over Q, by one untracked elimination
    made = record_eliminators(monkeypatch)
    Q = Ring.rationals()
    for vectors, rank in (
            ([{0: P61}], 1),
            ([{0: 1, 1: 1}, {0: 1, 1: 1 + P61}], 2),  # determinant P
            ([{0: 3 * P61, 1: 1}, {0: 1}, {1: 2 * P61}], 2),
            ([{0: 2, 1: 1}, {1: 5}], 2)):
        del made[:]
        assert verify_module._cell_rank(Q, vectors) == (rank, None)
        assert made == [(Q, False)]


def column_of(ring, f, name, terms, den=1):
    """(name, image) of a window column, its terms over den."""
    return name, TensorPoly(ring, 1, f, {w: ring.divide(ring.of(c),
                                                        ring.of(den))
                                         for w, c in terms.items()})


def test_q_filtered_cells_with_p_in_an_entry_or_a_denominator(monkeypatch):
    made = record_eliminators(monkeypatch)
    Q = Ring.rationals()
    f = FreeAbelian(["x"])
    x = f.parse("x")
    xx, x2 = Word((x, x)), Word((x ** 2,))
    rows = {2: [xx.codes, x2.codes]}

    def column(name, terms, den):
        return column_of(Q, f, name, terms, den)

    def cells(*cols):
        del made[:]
        report = mx.VerificationReport("cell", Q, 1, f, {})
        verify_module._filtered_cells(report, Q, rows, {2: list(cols)})
        return [cell_of(c) for c in report.cells], report.counterexample

    # independent over Q, dependent mod P
    assert cells(column("a", {xx: 1, x2: 1}, 1),
                 column("b", {xx: 1, x2: 1 + P61}, 1)) == (
        [(2, 2, 2, 2, True, None)], None)
    assert made == [(Q, True)]
    # a denominator P scales its column by a unit over Q
    assert cells(column("a", {xx: 1}, P61),
                 column("b", {x2: P61 + 1}, P61)) == (
        [(2, 2, 2, 2, True, None)], None)
    assert made == [(Q, True)]
    # a dependent column over the denominator P is named with its true
    # coefficient
    assert cells(column("a", {xx: 1, x2: 2}, 1),
                 column("b", {xx: 1, x2: 2}, P61)) == (
        [(2, 2, 2, 1, False, "dimension 2, monomials 2, new rank 1")],
        "b = 1/%d*a" % P61)
    assert made == [(Q, True)]


@pytest.mark.parametrize("field", (Ring.rationals(), Ring.prime_field(3)),
                         ids=repr)
def test_failing_window_makes_one_tracked_eliminator(monkeypatch, field):
    # the window goes straight to one tracked elimination in its own
    # field, which names the first dependent column
    made = record_eliminators(monkeypatch)
    f = FreeAbelian(["x"])
    x = f.parse("x")
    xx, x2 = Word((x, x)), Word((x ** 2,))
    report = mx.VerificationReport("cell", field, 1, f, {})
    verify_module._filtered_cells(
        report, field, {1: [Word((x,)).codes], 2: [xx.codes, x2.codes]},
        {1: [column_of(field, f, "c", {Word((x,)): 1})],
         2: [column_of(field, f, "a", {xx: 1, x2: 1}),
             column_of(field, f, "b", {xx: 2, x2: 2})]})
    assert [cell_of(c) for c in report.cells] == [
        (1, 1, 1, 1, True, None),
        (2, 2, 2, 1, False, "dimension 2, monomials 2, new rank 1")]
    assert report.counterexample == "b = 2*a"
    assert made == [(field, True)]


def test_weighted_independence_failure_note():
    Q = Ring.rationals()
    f = FreeAbelian(["x"])
    x = f.parse("x")
    lam = Fraction(5, 3)
    gens = [word_symbol(Q, lam, f, w) for w in enumerate_lyndon(f, 3)] + \
        [word_symbol(Q, lam, f, Word((x, x)))]
    alg = PresentedAlgebra(Q, lam, f, gens, TensorPoly.unit(Q, lam, f))
    assert [cell_of(check_independence(alg, n)) for n in (2, 3)] == [
        (2, 2, 3, 2, False, "x^2 = 2*[x(x)x] + 5/3*[x^2]"),
        (3, 4, 5, 4, False, "x^3 = 2*x*[x(x)x] + 5/3*x*[x^2]")]


# the cells do not depend on the order of their rows


def shuffled(rng, rows_by_degree):
    """Each degree's rows in a random order."""
    return {n: rng.sample(rows, len(rows))
            for n, rows in rows_by_degree.items()}


def driver_cells(ring, rows, buckets):
    """The cells and counterexample of the ring's cell driver."""
    if ring.is_field:
        report = mx.VerificationReport("rows", ring, 0, None, {})
        verify_module._filtered_cells(report, ring, rows, buckets)
        return [cell_of(c) for c in report.cells], report.counterexample
    return [cell_of(c) for c in verify_module._square_cells(
        ring, rows, buckets)], None


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("ring,weights", DRAW_RINGS)
def test_drawn_cells_do_not_depend_on_the_row_order(ring, weights, seed):
    rng = random.Random("rows %r/%d" % (ring, seed))
    lam = ring.of(weights[seed % len(weights)])
    for kind, (alg, rows) in (
            (TensorPoly, draw_tensor_algebra(rng, ring, lam)),
            (mx.RBElement, draw_rb_algebra(rng, ring, lam, 3, 3))):
        codes = {n: [kind.code_key(k) for k in keys]
                 for n, keys in rows.items()}
        buckets = alg.monomials_by_degree(max(rows))
        expected = driver_cells(ring, codes, buckets)
        for _ in range(3):
            assert driver_cells(ring, shuffled(rng, codes),
                                buckets) == expected


# the leading-entry certificate against the eliminations it skips


CERTIFIED_RINGS = [pytest.param(ring, id=repr(ring)) for ring in (
    Ring.rationals(), Ring.prime_field(2), Ring.prime_field(3),
    Ring.truncated_padic(3, 4), Ring.integers())]


def eliminated(ring, vectors):
    """Rank and, over Z, the divisors (else None) of integer columns by
    elimination alone: exact over a field, mod p over Z/p^N, and
    elementary_divisors over Z."""
    if ring.kind == "Z":
        divisors = elementary_divisors(vectors)
        return len(divisors), divisors
    elim = SparseEliminator(ring if ring.is_field
                            else Ring.prime_field(ring.p))
    for vec in vectors:
        elim.insert(vec)
    return elim.rank, None


def draw_columns(rng, ring):
    """Sparse columns of canonical nonzero values over up to 7 rows:
    either with distinct leading rows and random entries below them, or
    with every entry random, empty columns and surplus columns
    included."""
    rows = rng.randint(1, 7)
    values = [v for v in map(ring.of, (1, -1, 2, 3, -3, 4, 9)) if v]

    def value():
        return int(rng.choice(values)) if ring.kind == "Q" \
            else rng.choice(values)

    if rng.random() < 0.5:
        leads = rng.sample(range(rows), rng.randint(1, rows))
        return [{i: value() for i in rng.sample(range(lead),
                                                rng.randint(0, lead))
                 + [lead]} for lead in leads]
    return [{i: value() for i in rng.sample(range(rows),
                                            rng.randint(0, rows))}
            for _ in range(rng.randint(1, rows + 1))]


@pytest.mark.parametrize("ring", CERTIFIED_RINGS)
def test_certificate_implies_full_rank_on_drawn_columns(ring, monkeypatch):
    rng = random.Random("certificate %r" % ring)
    certified = 0
    for _ in range(400):
        vectors = draw_columns(rng, ring)
        want = eliminated(ring, vectors)
        if verify_module._certified(ring, vectors):
            certified += 1
            n = len(vectors)
            assert want == (n, [1] * n if ring.kind == "Z" else None)
        assert verify_module._cell_rank(ring, vectors) == want, vectors
        with monkeypatch.context() as patch:
            certificate_off(patch)
            assert verify_module._cell_rank(ring, vectors) == want, vectors
    assert 20 < certified < 380


def test_certificate_fails_on_crafted_cells():
    Q, Z = Ring.rationals(), Ring.integers()
    F2, F3, Z34 = Ring.prime_field(2), Ring.prime_field(3), \
        Ring.truncated_padic(3, 4)
    certified = verify_module._certified
    for ring, vectors, rank in (
            # a dependent column
            (Q, [{0: 1, 1: 2}, {0: 2, 1: 4}], 1),
            (F3, [{0: 1}, {1: 1}, {0: 2, 1: 1}], 2),
            # two independent columns sharing a leading row
            (Q, [{0: 1, 1: 1}, {1: 1}], 2),
            (F2, [{1: 1}, {0: 1, 1: 1}], 2),
            (Z, [{0: 1, 1: 1}, {1: -1}], 2),
            # a leading entry that is not a unit: 0 mod p, 2 over Z, a
            # zero numerator over Q
            (Z34, [{0: 1, 1: 3}, {0: 1}], 1),
            (Z, [{0: 1, 1: 2}, {0: 1}], 2),
            (Q, [{0: 1, 1: 0}, {1: 1}], 2),
            # an empty column
            (Q, [{0: 1}, {}], 1),
            (F2, [{}], 0),
            (Z, [{0: -1}, {}, {1: 1}], 2)):
        assert not certified(ring, vectors), (ring, vectors)
        assert verify_module._cell_rank(ring, vectors) == \
            eliminated(ring, vectors)
        assert eliminated(ring, vectors)[0] == rank, (ring, vectors)
    assert eliminated(Z, [{0: 1, 1: 2}, {0: 1}])[1] == [1, 2]
    # a row the window does not number fails, however the rest reads
    window = {"a": 0, "b": 1}
    assert certified(Q, [{"a": 1}, {"b": 1}], window.__getitem__)
    assert not certified(Q, [{"a": 1}, {"c": 1}], window.__getitem__)
    assert not certified(Q, [{"b": 1, "c": 1}], window.__getitem__)


def test_filtered_cell_with_an_image_outside_the_window(monkeypatch):
    Q = Ring.rationals()
    f = FreeAbelian(["x", "y"])
    x, y = f.parse("x"), f.parse("y")
    rows = {1: [Word((x,)).codes]}
    cols = {1: [("a", word_poly(Q, 1, f, (x,))),
                ("b", word_poly(Q, 1, f, (y,), 3))]}

    def cells():
        report = mx.VerificationReport("cell", Q, 1, f, {})
        verify_module._filtered_cells(report, Q, rows, cols)
        return [cell_of(c) for c in report.cells], report.counterexample

    expected = ([(1, 1, 2, 1, False, "image of b leaves the window")], None)
    assert cells() == expected
    certificate_off(monkeypatch)
    assert cells() == expected


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("ring,weights", DRAW_RINGS)
def test_drawn_cells_are_the_same_with_the_certificate_off(ring, weights,
                                                           seed,
                                                           monkeypatch):
    rng = random.Random("certificate %r/%d" % (ring, seed))
    lam = ring.of(weights[seed % len(weights)])
    real = verify_module._certified
    verdicts = []

    def recording(*args, **kwargs):
        verdicts.append(real(*args, **kwargs))
        return verdicts[-1]

    monkeypatch.setattr(verify_module, "_certified", recording)
    for kind, (alg, rows) in (
            (TensorPoly, draw_tensor_algebra(rng, ring, lam)),
            (mx.RBElement, draw_rb_algebra(rng, ring, lam, 3, 3))):
        codes = {n: [kind.code_key(k) for k in keys]
                 for n, keys in rows.items()}
        buckets = alg.monomials_by_degree(max(rows))

        def records():
            out = [driver_cells(ring, codes, buckets)]
            out += [cell_of(check_independence(alg, n)) for n in rows]
            if kind is TensorPoly:
                out += [cell_of(check_spanning(alg, n)) for n in rows]
            return out

        expected = records()
        with monkeypatch.context() as patch:
            certificate_off(patch)
            assert records() == expected
    assert True in verdicts


def rerun_on_shuffled_rows(monkeypatch, rng):
    """Patch both cell drivers to run every call again on each degree's
    rows in a random order and to assert the same cells and
    counterexample; returns the list of the calls' rings."""
    filtered = verify_module._filtered_cells
    square = verify_module._square_cells
    rings = []

    def filtered_twice(report, field, rows, cols):
        again = mx.VerificationReport("rows", field, 0, None, {})
        filtered(again, field, shuffled(rng, rows), cols)
        start = len(report.cells)
        filtered(report, field, rows, cols)
        assert [cell_of(c) for c in report.cells[start:]] == \
            [cell_of(c) for c in again.cells]
        assert report.counterexample == again.counterexample
        rings.append(field)

    def square_twice(ring, rows, cols):
        cells = square(ring, rows, cols)
        assert [cell_of(c) for c in square(ring, shuffled(rng, rows),
                                           cols)] == \
            [cell_of(c) for c in cells]
        rings.append(ring)
        return cells

    monkeypatch.setattr(verify_module, "_filtered_cells", filtered_twice)
    monkeypatch.setattr(verify_module, "_square_cells", square_twice)
    return rings


# pinned reports over every ring, on tensor and Rota-Baxter rows,
# passing and failing: each test asserts its own cells and counterexample
PINNED_CELLS = (
    test_radford_two_generators,
    test_weighted_rational_structure,
    test_fp_nonzero_group_alphabet,
    test_zp_lift,
    test_z_polynomial_structure,
    test_rb_free_over_rationals,
    test_rb_integral,
    test_rb_fp_cases,
    test_field_cells_fail_on_a_dependent_family,
    test_field_cells_fail_when_an_image_leaves_the_window,
    test_z_cells_fail_when_an_image_leaves_the_window,
    test_z_cells_fail_on_a_non_unit_divisor,
    test_z_cells_fail_on_a_rank_deficit,
    test_zp_cells_fail_on_lyndon_words,
)


@pytest.mark.parametrize("seed", range(2))
def test_pinned_cells_do_not_depend_on_the_row_order(monkeypatch, seed):
    rings = rerun_on_shuffled_rows(monkeypatch, random.Random(seed))
    for test in PINNED_CELLS:
        with monkeypatch.context() as patch:
            if inspect.signature(test).parameters:
                test(patch)
            else:
                test()
    assert {r.kind for r in rings} == {
        r.kind for r in (Ring.rationals(), Ring.prime_field(2),
                         Ring.integers(), Ring.truncated_padic(2, 2))}


# words change alphabet on letter codes as the Word-level lifts do


def lift_word(monoid, word):
    """A word over the monoid's inner alphabet, letter by letter, as a
    word over the monoid."""
    return Word(tuple(mx.Element(monoid, ("e", l.key))
                      for l in word.letters))


def reference_tails(ring, lam, monoid, gens):
    """The tail images 1 (x) g, each through the constructor from the
    image's Word-keyed terms."""
    ident = monoid.identity
    return [mx.RBElement(ring, lam, monoid, {
        (ident, w if g.image.semigroup == monoid else lift_word(monoid, w)):
        c for w, c in g.image.terms.items()}) for g in gens]


def record_embeddings(monkeypatch):
    """The (source, target, map) of every code map the verifiers make."""
    made = []
    real = verify_module._embedding

    def recording(source, target, key):
        embed = real(source, target, key)
        made.append((source, target, embed))
        return embed

    monkeypatch.setattr(verify_module, "_embedding", recording)
    return made


@pytest.mark.parametrize("letters", (1, 2, 3))
def test_rb_rows_and_tails_match_the_word_lifts(monkeypatch, letters):
    made = record_embeddings(monkeypatch)
    alphabet = ("x", "y", "z")[:letters]
    monoid = verify_module._unitarized_free(alphabet)
    free = monoid.inner
    bound = 4 - letters
    for tail_semigroup in (free, monoid):
        rows = {n: [mx.RBElement.code_key(
            (head, lift_word(monoid, tail) if tail_semigroup == free
             else tail))
            for head in monoid.elements_up_to(n)
            for tail in mx.graded_basis(tail_semigroup, n - head.degree, 2)]
            for n in range(bound + 1)}
        assert verify_module._rb_rows(monoid, tail_semigroup, bound,
                                      2) == rows
    Q, Z = Ring.rationals(), Ring.integers()
    Z9 = Ring.truncated_padic(3, 2)
    lam = Q.of(Fraction(5, 3))
    x, y = mx.enumerate_words(free, 2)[:2]
    halves = TensorPoly(Q, lam, free, {x: Fraction(1, 2),
                                       y: Fraction(-5, 3)})
    assert halves.den == 6
    families = [
        (Q, lam, verify_module._lyndon_family(Q, lam, monoid, bound, 2)),
        (Q, lam, verify_module._lyndon_family(Q, lam, free, bound, None)
         + [GeneratorSymbol("h", halves, halves.max_degree(),
                            halves.leading_term()[0].length)]),
        (Z9, Z9.of(2), verify_module._tel_family(
            Z9, Z9.of(2), free, mx.standard_generating_sets(free, 3,
                                                           bound))),
        (Z, -1, verify_module._cokernel_family(
            free, -1, bound, mx.VerificationReport("z", Z, -1, free, {}))),
    ]
    for ring, lam, gens in families:
        tails = verify_module._tails(ring, lam, monoid, gens)
        assert [t.image for t in tails] == \
            reference_tails(ring, lam, monoid, gens)
        assert [(t.degree, t.lead_length, t.cap, t.relation)
                for t in tails] == [(g.degree, g.lead_length, g.cap,
                                     g.relation) for g in gens]
    words = mx.enumerate_words(free, bound)
    assert made and {(s, t) for s, t, _ in made} == {(free, monoid)}
    for _, _, embed in made:
        assert [embed(w.codes) for w in words] == \
            [lift_word(monoid, w).codes for w in words]


def test_power_split_and_power_order_tails_match_the_constructor():
    # the differences w - w^(p) of rbafp4's family over an elementary
    # p-group, and the power-order family, over it and over a unitarized
    # alphabet, whose tails stay over their own alphabet
    F3 = Ring.prime_field(3)
    lam = F3.of(2)
    for semigroup in (ElementaryPGroup(3, 2),
                      verify_module._unitarized_free(["x"])):
        sets = mx.standard_generating_sets(semigroup, 3, 3, 3)
        for build in (verify_module._power_split_family,
                      verify_module._power_order_family):
            gens = build(F3, lam, semigroup, 3, sets)
            tails = verify_module._tails(F3, lam, semigroup, gens)
            assert [t.image for t in tails] == reference_tails(
                F3, lam, semigroup, gens)
            if isinstance(semigroup, ElementaryPGroup) \
                    and build is verify_module._power_split_family:
                assert any(len(t.image.code_terms) == 2 for t in tails)


def test_nested_padding_matches_the_word_padding(monkeypatch):
    made = record_embeddings(monkeypatch)
    chain = [FreeAbelian(["x", "y", "z"][:k]) for k in (1, 2, 3)]
    assert verify_nested_summand(chain, 1, 3).passed
    assert [(s, t) for s, t, _ in made] == list(zip(chain, chain[1:]))
    for small, big, embed in made:
        words = mx.enumerate_words(small, 4)
        assert [embed(w.codes) for w in words] == \
            [pad_word(w, big).codes for w in words]

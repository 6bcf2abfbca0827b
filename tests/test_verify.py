"""The structure verifiers: reports, flagship configurations, refusals.

Dimension tables asserted here were captured from independently cross
checked runs: every cell already requires dimension == monomial count ==
achieved rank internally, and the counts are pinned again literally so a
regression in any of the three shows up as a diff against this file.
"""

import json
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
    TensorPoly,
    Word,
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
    word_symbol,
)


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
    assert names["verdicts stable at precision 8"]
    assert names["degree 3 indecomposables keep Lyndon rank at p"]


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
    assert info["complement_det"] == -1


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
    columns = [[poly.terms.get(w, 0) for w in info["_rows"]]
               for poly in (x * x, basis[0])]
    det = Matrix.from_columns(Z, columns, len(columns)).det_bareiss()
    assert det in (1, -1)


def reference_walk(info):
    """The greedy complement walk with one trial Smith form per word."""
    Z = Ring.integers()
    U, rank, rows = info["_U"], info["_rank"], info["_rows"]
    size = info["coker_rank"]
    words, columns = [], []
    for j in reversed(range(len(rows))):
        if len(words) == size:
            break
        trial = columns + [[U.rows[i][j] for i in range(rank, len(rows))]]
        d, _, _ = Matrix.from_columns(Z, trial, size).smith_normal_form()
        if len(d) == len(trial) and all(x == 1 for x in d):
            words.append(rows[j].display(True))
            columns = trial
    if len(words) < size:
        return "transform-complement", None, 1
    det = Matrix.from_columns(Z, columns, size).det_bareiss() if size else 1
    return "greedy-words", words, det


def test_cokernel_walk_matches_trial_smith_walk():
    methods = set()
    for names, top in ((["x"], 6), (["x", "y"], 4), (["x", "y", "z"], 3)):
        f = FreeAbelian(names)
        for lam in (1, -1, 2, 3):
            for degree in range(1, top + 1):
                info, basis = compute_cokernel_basis(f, lam, degree)
                method, words, det = reference_walk(info)
                assert info["method"] == method, (names, lam, degree)
                assert info["complement_det"] == det, (names, lam, degree)
                if words is not None:
                    assert info["y_words"] == words, (names, lam, degree)
                assert len(basis) == info["coker_rank"]
                methods.add(method)
    assert methods == {"greedy-words", "transform-complement"}


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


def lyndon_algebra(ring, lam, degree_bound):
    f = FreeAbelian(["x"])
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

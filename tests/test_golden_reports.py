"""Golden JSON reports of the field and integral verifiers.

One fixed draw of each entry of the benchmark's verify menu: the degree
and length bounds and primes are the menu's, and the alphabet names,
weights and precisions are picked here once.  The integral reports were
recorded from the dense Smith-form implementation, the field reports
before TensorPoly and RBElement shared one term-dict core; any change to
the linear algebra or to the term algebra must reproduce them byte for
byte.

Regenerate (only when a report is meant to change) with

    PYTHONPATH=src python tests/test_golden_reports.py
"""

import json
import os
from fractions import Fraction

import pytest

from mixshuffle import FreeAbelian, Ring, semigroup_from_preset, \
    verify_fp_nonzero, verify_fp_weight0, verify_nested_summand, \
    verify_radford_hoffman, verify_rb_structure, verify_semigroup_props, \
    verify_z_polynomial, verify_zp
from mixshuffle import verify as verify_module

HERE = os.path.dirname(__file__)
GOLDEN = os.path.join(HERE, "golden_integral_reports.json")
GOLDEN_FIELD = os.path.join(HERE, "golden_field_reports.json")


def free(names):
    return FreeAbelian(list(names))


def chain(names):
    return [free(names[:k]) for k in range(1, len(names) + 1)]


CASES = {
    "intfr-free1-d5": lambda: verify_z_polynomial(free("x"), 1, 5),
    "intfr-free1-d6": lambda: verify_z_polynomial(free("a"), -1, 6),
    "intfr-free1-d7": lambda: verify_z_polynomial(free("u"), 1, 7),
    "intfr-free2-d3": lambda: verify_z_polynomial(free("st"), -1, 3),
    "isomor-free1-p2": lambda: verify_zp(free("x"), 2, 4, 3, 6),
    "isomor-free1-p3": lambda: verify_zp(free("a"), 3, 6, 2, 6),
    "isomor-free1-p5": lambda: verify_zp(free("u"), 5, 4, -1, 6),
    "isomor-free2-p2": lambda: verify_zp(free("st"), 2, 6, -1, 3),
    "isomor-free2-p3": lambda: verify_zp(free("xy"), 3, 4, 1, 4),
    "rbaz-d4-l3": lambda: verify_rb_structure(
        "rbaz", ("a",), 1, None, None, 4, 3),
    "rbaz-d5-l3": lambda: verify_rb_structure(
        "rbaz", ("u",), -1, None, None, 5, 3),
    "rbaz-d4-l4": lambda: verify_rb_structure(
        "rbaz", ("s",), -1, None, None, 4, 4),
    "rbaz-d3-l4": lambda: verify_rb_structure(
        "rbaz", ("x",), 1, None, None, 3, 4),
    "rbazp-alpha1-p3-d6": lambda: verify_rb_structure(
        "rbazp", ("a",), 1, 3, 6, 6, 3),
    "rbazp-alpha1-p2-d7": lambda: verify_rb_structure(
        "rbazp", ("u",), 1, 2, 4, 7, 3),
    "rbazp-alpha1-p2-d6": lambda: verify_rb_structure(
        "rbazp", ("s",), 1, 2, 6, 6, 3),
    "rbazp-alpha2-p3-d4": lambda: verify_rb_structure(
        "rbazp", ("x", "y"), 1, 3, 4, 4, 3),
    "rbazp-alpha2-p2-d5": lambda: verify_rb_structure(
        "rbazp", ("a", "b"), 1, 2, 6, 5, 3),
    "nested-chain1,2-d4": lambda: verify_nested_summand(chain("uv"), 1, 4),
    "nested-chain1,3-d3": lambda: verify_nested_summand(chain("str"), -1, 3),
}


def mu(text):
    return semigroup_from_preset("mu:" + text)


FIELD_CASES = {
    "radford-free2-d4": lambda: verify_radford_hoffman(free("xy"), 0, 4),
    "radford-free2-d5": lambda: verify_radford_hoffman(free("ab"), 0, 5),
    "radford-free3-d4": lambda: verify_radford_hoffman(free("uvw"), 0, 4),
    "radford-free1-d8": lambda: verify_radford_hoffman(free("s"), 0, 8),
    "msq-free1-d7": lambda: verify_radford_hoffman(free("x"), 2, 7),
    "msq-free2-d4": lambda: verify_radford_hoffman(free("ab"), -1, 4),
    "msq-free2-d5": lambda: verify_radford_hoffman(
        free("uv"), Fraction(5, 3), 5),
    "msq-free3-d4": lambda: verify_radford_hoffman(free("str"), 1, 4),
    "msq-mu3,1-d5": lambda: verify_radford_hoffman(mu("3,1"), 2, 5, 5),
    "psh-free2-p2": lambda: verify_fp_weight0(free("xy"), 2, 5),
    "psh-free2-p3": lambda: verify_fp_weight0(free("st"), 3, 5),
    "psh-free1-p2": lambda: verify_fp_weight0(free("a"), 2, 8),
    "pmsh-free1-p3": lambda: verify_fp_nonzero(free("u"), 3, 2, 7),
    "pmsh-free1-p2": lambda: verify_fp_nonzero(free("x"), 2, -1, 5),
    "pmsh-free2-p2": lambda: verify_fp_nonzero(free("ab"), 2, 3, 5),
    "pmsh-mu2,1-p2": lambda: verify_fp_nonzero(mu("2,1"), 2, 1, 5, 5),
    "pmsh-mu3,1-p3": lambda: verify_fp_nonzero(mu("3,1"), 3, -1, 4, 5),
    "rbl-alpha2-d3-l3": lambda: verify_rb_structure(
        "rbl", ("x", "y"), 2, None, None, 3, 3),
    "rbl-alpha1-d4-l4": lambda: verify_rb_structure(
        "rbl", ("a",), -1, None, None, 4, 4),
    "rbl-alpha1-d5-l4": lambda: verify_rb_structure(
        "rbl", ("s",), 1, None, None, 5, 4),
    "rbafp1-alpha1-p3": lambda: verify_rb_structure(
        "rbafp1", ("u",), 0, 3, None, 4, 4),
    "rbafp1-alpha2-p2": lambda: verify_rb_structure(
        "rbafp1", ("x", "y"), 0, 2, None, 3, 3),
    "rbafp2-alpha1-p3": lambda: verify_rb_structure(
        "rbafp2", ("a",), 2, 3, None, 4, 4),
    "rbafp2-alpha2-p2": lambda: verify_rb_structure(
        "rbafp2", ("s", "t"), -1, 2, None, 3, 3),
    "rbafp3-alpha1-p3": lambda: verify_rb_structure(
        "rbafp3", ("x",), -1, 3, None, 4, 4),
    "rbafp3-alpha2-p2": lambda: verify_rb_structure(
        "rbafp3", ("u", "v"), 1, 2, None, 3, 3),
    "rbafp4-alpha1-p3": lambda: verify_rb_structure(
        "rbafp4", ("s",), 1, 3, None, 4, 4),
    "rbafp4-alpha2-p2": lambda: verify_rb_structure(
        "rbafp4", ("a", "b"), 3, 2, None, 3, 3),
    "props-mu3,1-p3": lambda: verify_semigroup_props(mu("3,1"), 3, 5, 5),
    "props-free2-p2": lambda: verify_semigroup_props(free("uv"), 2, 5),
}

SUITES = ((GOLDEN, CASES), (GOLDEN_FIELD, FIELD_CASES))


def report_text(cases, name):
    return json.dumps(cases[name]().to_json(), sort_keys=True)


def load(path):
    with open(path) as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def golden():
    return load(GOLDEN)


@pytest.fixture(scope="module")
def golden_field():
    return load(GOLDEN_FIELD)


def test_golden_covers_every_case(golden, golden_field):
    assert sorted(golden) == sorted(CASES)
    assert sorted(golden_field) == sorted(FIELD_CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_integral_report_matches_golden(golden, name):
    assert report_text(CASES, name) == golden[name]


@pytest.mark.parametrize("name", sorted(FIELD_CASES))
def test_field_report_matches_golden(golden_field, name):
    assert report_text(FIELD_CASES, name) == golden_field[name]


@pytest.mark.parametrize("path,cases", SUITES, ids=("integral", "field"))
def test_reports_match_golden_with_the_certificate_off(monkeypatch, path,
                                                       cases):
    # every cell then goes through the eliminations that a passing
    # leading-entry certificate skips, which must give the same reports
    monkeypatch.setattr(verify_module, "_certified",
                        lambda *args, **kwargs: False)
    golden = load(path)
    for name in sorted(cases):
        assert report_text(cases, name) == golden[name], name


def test_field_reports_match_golden_with_no_elimination(golden_field,
                                                       monkeypatch):
    # every field window of these reports passes the leading-entry
    # certificate: none reaches the tracked elimination
    def refused(*args):
        raise AssertionError("a field window failed the certificate")

    monkeypatch.setattr(verify_module, "_eliminated", refused)
    for name in sorted(FIELD_CASES):
        assert report_text(FIELD_CASES, name) == golden_field[name], name


if __name__ == "__main__":
    for path, cases in SUITES:
        with open(path, "w") as fh:
            json.dump({name: report_text(cases, name)
                       for name in sorted(cases)}, fh,
                      indent=1, sort_keys=True)
            fh.write("\n")

"""Golden JSON reports of the integral verifiers.

One fixed draw of each integral entry of the benchmark's verify menu:
the degree and length bounds and primes are the menu's, and the alphabet
names, weights and precisions are picked here once.  The reports were
recorded from the dense Smith-form implementation; any change to the
integral linear algebra must reproduce them byte for byte.

Regenerate (only when a report is meant to change) with

    PYTHONPATH=src python tests/test_golden_reports.py
"""

import json
import os

import pytest

from mixshuffle import FreeAbelian, verify_nested_summand, \
    verify_rb_structure, verify_z_polynomial, verify_zp

GOLDEN = os.path.join(os.path.dirname(__file__), "golden_integral_reports.json")


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


def report_text(name):
    return json.dumps(CASES[name]().to_json(), sort_keys=True)


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN) as fh:
        return json.load(fh)


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_integral_report_matches_golden(golden, name):
    assert report_text(name) == golden[name]


if __name__ == "__main__":
    with open(GOLDEN, "w") as fh:
        json.dump({name: report_text(name) for name in sorted(CASES)}, fh,
                  indent=1, sort_keys=True)
        fh.write("\n")

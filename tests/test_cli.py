"""Command line surface: pinned outputs, exit codes, JSON round trips."""

import contextlib
import io
import json
import os
import subprocess
import sys

from mixshuffle import FreeAbelian, Ring, TensorPoly, Word
from mixshuffle.cli import main

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src")


def run(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(list(argv))
    return rc, out.getvalue(), err.getvalue()


# products


def test_mul_default_weight_zero():
    rc, out, _ = run("mul", "x", "x")
    assert rc == 0
    assert out == "2·x⊗x\n"


def test_mul_weighted():
    rc, out, _ = run("mul", "x", "x", "--lambda", "1")
    assert rc == 0
    assert out == "2·x⊗x + x²\n"


def test_mul_ascii():
    rc, out, _ = run("mul", "x", "x", "--lambda", "1", "--ascii")
    assert rc == 0
    assert out == "2*x(x)x + x^2\n"


def test_mul_two_generators_mod_p():
    rc, out, _ = run("mul", "x,y", "y", "--sg", "free:x,y",
                     "--lambda", "1", "--ring", "Fp", "--p", "3")
    assert rc == 0
    assert out == "y⊗x⊗y + 2·x⊗y⊗y + x*y⊗y + x⊗y²\n"


def test_mul_json_round_trip():
    rc, out, _ = run("mul", "x", "x", "--lambda", "1", "--format", "json")
    assert rc == 0
    poly = TensorPoly.from_json(json.loads(out))
    Q = Ring.rationals()
    f = FreeAbelian(["x"])
    x = f.parse("x")
    expected = (TensorPoly.from_word(Q, 1, f, Word((x, x)), 2)
                + TensorPoly.from_word(Q, 1, f, Word((x ** 2,))))
    assert poly == expected


def test_mul_empty_word_is_unit():
    rc, out, _ = run("mul", "1", "x,x", "--lambda", "1")
    assert rc == 0
    assert out == "x⊗x\n"


# word families


def test_lyndon_listing():
    rc, out, _ = run("lyndon", "--deg", "4")
    assert rc == 0
    assert out == ("degree 1 (1): x\n"
                   "degree 2 (1): x²\n"
                   "degree 3 (2): x³, x⊗x²\n"
                   "degree 4 (3): x⁴, x⊗x³, x⊗x⊗x²\n"
                   "total 7\n")


def test_lyndon_listing_past_the_recursion_limit():
    rc, out, _ = run("lyndon", "--sg", "set:a", "--deg", "1500")
    assert rc == 0
    assert out == "degree 1 (1): a\ntotal 1\n"


def test_gens_family_listing():
    rc, out, _ = run("gens", "tel", "--deg", "4")
    assert rc == 0
    assert out.splitlines()[1] == "degree 2 (1): x⊗x"
    assert out.splitlines()[-1] == "total 7"


def test_gens_json_counts():
    rc, out, _ = run("gens", "tel", "--deg", "4", "--format", "json")
    assert rc == 0
    data = json.loads(out)
    assert data["counts"] == {"1": 1, "2": 1, "3": 2, "4": 3}


def test_cfl_factorization():
    rc, out, _ = run("cfl", "b,a,a,b", "--sg", "free:a,b")
    assert rc == 0
    assert out == "b | a⊗a⊗b\n"


# verification reports


def test_verify_table_output():
    rc, out, _ = run("verify", "intfr", "--deg", "4")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "theorem intfr   ring Z   weight 1"
    assert "degree  dimension  monomials  rank  verdict" in lines
    assert lines[-1] == "verdict: PASS"
    assert "check   degree 4 cokernel free of Lyndon rank: pass" \
        "  [rank 3, method greedy-words, det 1]" in lines


def test_verify_json_deterministic_under_seed():
    a = run("verify", "radford", "--deg", "3", "--format", "json", "--seed", "5")
    b = run("verify", "radford", "--deg", "3", "--format", "json", "--seed", "5")
    assert a == b
    assert a[0] == 0
    data = json.loads(a[1])
    assert data["passed"] is True
    assert data["seed"] == 5


def test_verify_psh_needs_p():
    rc, _, err = run("verify", "psh", "--deg", "3")
    assert rc == 2
    assert "needs --p" in err


def test_verify_pmsh_group_alphabet():
    rc, out, _ = run("verify", "pmsh", "--sg", "mu:2,1", "--p", "2",
                     "--lambda", "1", "--deg", "4", "--len", "4")
    assert rc == 0
    assert out.splitlines()[-1] == "verdict: PASS"


# head-and-tail commands


def test_rb_mul():
    rc, out, _ = run("rb", "mul", "1|x", "1|x", "--lambda", "1")
    assert rc == 0
    assert out == "1⊗x² + 2·1⊗x⊗x\n"


def test_rb_operator():
    rc, out, _ = run("rb", "P", "x|x^2")
    assert rc == 0
    assert out == "1⊗x⊗x²\n"


def test_rb_identity_trials():
    rc, out, _ = run("rb", "check-identity", "--trials", "5", "--seed", "3")
    assert rc == 0
    assert out == "operator identity: 5 trials, seed 3: PASS\n"
    again = run("rb", "check-identity", "--trials", "5", "--seed", "3")
    assert again == (rc, out, "")


def test_rb_identity_json():
    rc, out, _ = run("rb", "check-identity", "--trials", "4",
                     "--seed", "1", "--format", "json")
    assert rc == 0
    data = json.loads(out)
    assert data == {"trials": 4, "seed": 1, "failures": [], "passed": True}


def test_rb_identity_failure_exits_1(monkeypatch):
    calls = []

    def fails_second_trial(x, y):
        calls.append((x, y))
        return len(calls) != 2, None

    monkeypatch.setattr("mixshuffle.cli.check_rb_identity", fails_second_trial)
    rc, out, _ = run("rb", "check-identity", "--trials", "3", "--seed", "3")
    assert rc == 1
    assert out == "operator identity: 3 trials, seed 3: FAIL at [1]\n"
    assert len(calls) == 3


# failure modes


def test_unknown_generator_exits_2():
    rc, _, err = run("mul", "zz", "x")
    assert rc == 2
    assert "unknown generator" in err


def test_fp_ring_needs_p():
    rc, _, err = run("mul", "x", "x", "--ring", "Fp")
    assert rc == 2
    assert "--ring Fp needs --p" in err


def test_radford_refuses_nonzero_weight():
    rc, _, err = run("verify", "radford", "--lambda", "1")
    assert rc == 2
    assert "weight zero" in err


def test_unknown_theorem_exits_2():
    rc, _, err = run("verify", "nosuch")
    assert rc == 2


def test_unknown_subcommand_exits_2():
    rc, _, err = run("frobnicate")
    assert rc == 2


def test_negative_degree_bound_exits_2():
    # exit 1 is kept for falsified theorems; a bad bound is bad input
    for argv in (("verify", "radford", "--deg", "-1"),
                 ("verify", "rbl", "--deg", "-2")):
        rc, out, err = run(*argv)
        assert (rc, out) == (2, ""), argv
        assert "degree bound must not be negative" in err


def test_negative_length_bound_exits_2():
    rc, _, err = run("verify", "msq", "--lambda", "1", "--len", "-1")
    assert rc == 2
    assert "length bound must not be negative" in err


def test_explicit_precision_zero_exits_2():
    for argv in (("mul", "x", "x", "--ring", "Zp", "--p", "3",
                  "--precision", "0"),
                 ("verify", "isomor", "--p", "3", "--precision", "0"),
                 ("verify", "rbazp", "--p", "3", "--precision", "0")):
        rc, out, err = run(*argv)
        assert (rc, out) == (2, ""), argv
        assert "precision" in err


def test_generator_family_below_p_two_exits_2():
    rc, out, err = run("gens", "tl", "--p", "1", "--deg", "3")
    assert (rc, out) == (2, "")
    assert "p >= 2" in err


def test_generator_family_refuses_a_non_prime_p():
    rc, out, err = run("gens", "tl", "--p", "4", "--deg", "4")
    assert (rc, out) == (2, "")
    assert "p must be a prime number" in err


def test_unset_precision_keeps_its_default():
    rc, out, _ = run("mul", "x", "x", "--lambda", "1", "--ring", "Zp",
                     "--p", "3", "--format", "json")
    assert rc == 0
    assert json.loads(out)["ring"] == {"kind": "truncated_padic", "p": 3,
                                       "precision": 6}


def test_sixty_one_bit_prime_field():
    rc, out, _ = run("mul", "x", "x", "--ring", "Fp",
                     "--p", str(2 ** 61 - 1))
    assert (rc, out) == (0, "2·x⊗x\n")


def test_non_prime_group_alphabet_exits_2():
    # a malformed alphabet is bad input, not a falsified theorem
    rc, out, err = run("verify", "props", "--sg", "mu:4,1", "--p", "2",
                       "--deg", "3", "--len", "3")
    assert (rc, out) == (2, "")
    assert "p must be a prime" in err


def test_weight_outside_the_ring_exits_2():
    rc, out, err = run("mul", "x", "x", "--ring", "Fp", "--p", "3",
                       "--lambda", "1/3")
    assert (rc, out) == (2, "")
    assert "1/3 is not in ring F3" in err


def test_runs_as_a_module_from_the_source_tree():
    env = dict(os.environ, PYTHONPATH=SRC)
    for argv, code in (
            (["verify", "msq", "--sg", "free:x,y", "--lambda", "5/3",
              "--deg", "5"], 0),
            (["verify", "radford", "--deg", "-1"], 2)):
        done = subprocess.run([sys.executable, "-m", "mixshuffle"] + argv,
                              env=env, capture_output=True, text=True,
                              timeout=120)
        assert done.returncode == code, (argv, done.stderr)

"""Command line front door.

Subcommands compute products and factorizations, list generator families,
run the structure verifications, and work with Rota-Baxter elements.
Output is UTF-8 by default (tensor sign, superscripts); --ascii switches
to a plain spelling, --format json to machine-readable reports.

Exit codes: 0 all checks pass, 1 a verification found a falsification,
2 the request itself was malformed (bad word, bad preset, wrong ring).
"""

import argparse
import json
import random
import sys
from fractions import Fraction

from .rings import Ring
from .semigroups import Unitarized, semigroup_from_preset
from .words import Word, empty_word, enumerate_lyndon, cfl_factorize, \
    standard_generating_sets
from .shuffle import word_poly
from .rota_baxter import RBElement, check_rb_identity
from .verify import ConfigurationError, _require_prime, \
    verify_radford_hoffman, verify_fp_weight0, verify_fp_nonzero, \
    verify_zp, verify_z_polynomial, verify_rb_structure, \
    verify_semigroup_props

GEN_FAMILIES = ("lyn", "l1", "l2", "el", "tl", "tel",
                "tl1", "tl2", "tel1", "tel2")
THEOREMS = ("radford", "msq", "psh", "pmsh", "isomor", "intfr", "rbl",
            "rbafp1", "rbafp2", "rbafp3", "rbafp4", "rbazp", "rbaz",
            "props")

# commands that leave the weight unset fall back per theorem: the
# weight-zero statements run at 0, everything else at 1
_WEIGHT_DEFAULTS = {"radford": "0", "psh": "0", "rbafp1": "0"}


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="mixshuffle",
        description="mixable shuffle and Rota-Baxter algebra toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, ring=False):
        p.add_argument("--sg", default="free:x",
                       help="semigroup preset: free:x,y  set:x,y  mu:p,k  "
                            "idem:<json path>")
        p.add_argument("--lambda", dest="weight", default=None,
                       help="weight as an exact literal, e.g. 1, -1, 5/3")
        p.add_argument("--p", type=int, default=None, help="prime")
        p.add_argument("--precision", type=int, default=None,
                       help="exponent N for Z/p^N")
        p.add_argument("--deg", type=int, default=4, help="degree bound")
        p.add_argument("--len", type=int, default=None, dest="length",
                       help="length bound")
        p.add_argument("--format", choices=("json", "table"),
                       default="table")
        p.add_argument("--seed", type=int, default=None,
                       help="seed for randomized runs, echoed in reports")
        p.add_argument("--ascii", action="store_true",
                       help="spell the tensor sign as (x)")
        if ring:
            p.add_argument("--ring", choices=("Q", "Z", "Fp", "Zp"),
                           default="Q")

    p_mul = sub.add_parser("mul", help="mixable shuffle product of words")
    p_mul.add_argument("left")
    p_mul.add_argument("right")
    common(p_mul, ring=True)

    p_lyn = sub.add_parser("lyndon", help="list Lyndon words per degree")
    common(p_lyn)

    p_cfl = sub.add_parser("cfl", help="Lyndon factorization of a word")
    p_cfl.add_argument("word")
    common(p_cfl)

    p_gens = sub.add_parser("gens", help="list a generator word family")
    p_gens.add_argument("family", choices=GEN_FAMILIES)
    common(p_gens)

    p_verify = sub.add_parser("verify", help="run a structure verification")
    p_verify.add_argument("theorem", choices=THEOREMS)
    common(p_verify)

    p_rb = sub.add_parser("rb", help="Rota-Baxter element operations")
    rb_sub = p_rb.add_subparsers(dest="rb_command", required=True)
    rb_mul = rb_sub.add_parser("mul", help="product of two elements")
    rb_mul.add_argument("left")
    rb_mul.add_argument("right")
    common(rb_mul, ring=True)
    rb_p = rb_sub.add_parser("P", help="apply the Rota-Baxter operator")
    rb_p.add_argument("element")
    common(rb_p, ring=True)
    rb_chk = rb_sub.add_parser("check-identity",
                               help="test the operator identity on "
                                    "random elements")
    rb_chk.add_argument("--trials", type=int, default=50)
    common(rb_chk, ring=True)
    return parser


def _resolve_ring(args):
    if args.ring == "Q":
        return Ring.rationals()
    if args.ring == "Z":
        return Ring.integers()
    if args.p is None:
        raise ConfigurationError("--ring %s needs --p" % args.ring)
    if args.ring == "Fp":
        return Ring.prime_field(args.p)
    return Ring.truncated_padic(args.p, _precision(args))


def _precision(args):
    # an explicit precision is used as given, so 0 is refused downstream
    return 6 if args.precision is None else args.precision


def _resolve_weight(args, default="0"):
    text = args.weight if args.weight is not None else default
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ConfigurationError("cannot parse weight %r" % text)


def _parse_word(semigroup, text):
    text = text.strip()
    if text in ("", "1"):
        return empty_word()
    letters = tuple(semigroup.parse(part) for part in text.split(","))
    return Word(letters)


def _parse_rb(ring, lam, monoid, text):
    if "|" in text:
        head_text, tail_text = text.split("|", 1)
    else:
        head_text, tail_text = text, ""
    head = monoid.parse(head_text)
    tail = _parse_word(monoid, tail_text)
    return RBElement.from_parts(ring, lam, monoid, head, tail)


def _free_alphabet(semigroup):
    if semigroup.kind != "free_abelian":
        raise ConfigurationError(
            "this command builds its own unitarized monoid; pass a free "
            "preset like --sg free:x")
    return tuple(semigroup.generators)


def _print_words(words, degree_bound, ascii_mode, fmt):
    by_degree = {}
    for w in words:
        by_degree.setdefault(w.degree, []).append(w)
    if fmt == "json":
        print(json.dumps({
            "counts": {str(n): len(by_degree.get(n, []))
                       for n in range(1, degree_bound + 1)},
            "words": {str(n): [u.display(True) for u in by_degree.get(n, [])]
                      for n in range(1, degree_bound + 1)},
        }, indent=2))
        return
    for n in range(degree_bound + 1):
        bucket = by_degree.get(n)
        if not bucket:
            continue
        print("degree %d (%d): %s" % (
            n, len(bucket),
            ", ".join(u.display(ascii_mode) for u in bucket)))
    print("total %d" % len(words))


def _cmd_mul(args):
    ring = _resolve_ring(args)
    lam = ring.of(_resolve_weight(args))
    sg = semigroup_from_preset(args.sg)
    left = _parse_word(sg, args.left)
    right = _parse_word(sg, args.right)
    prod = word_poly(ring, lam, sg, left.letters) * \
        word_poly(ring, lam, sg, right.letters)
    if args.format == "json":
        print(json.dumps(prod.to_json(), indent=2))
    else:
        print(prod.render(args.ascii))
    return 0


def _cmd_lyndon(args):
    sg = semigroup_from_preset(args.sg)
    words = enumerate_lyndon(sg, args.deg, args.length)
    _print_words(words, args.deg, args.ascii, args.format)
    return 0


def _cmd_cfl(args):
    sg = semigroup_from_preset(args.sg)
    word = _parse_word(sg, args.word)
    factors = cfl_factorize(word)
    flat = []
    for f, m in factors:
        flat.extend([f] * m)
    if args.format == "json":
        print(json.dumps({
            "word": word.display(True),
            "factors": [{"factor": f.display(True), "multiplicity": m}
                        for f, m in factors],
        }, indent=2))
    else:
        print(" | ".join(f.display(args.ascii) for f in flat) or "1")
    return 0


def _cmd_gens(args):
    sg = semigroup_from_preset(args.sg)
    p = args.p if args.p is not None else 2
    _require_prime(p)
    sets = standard_generating_sets(sg, p, args.deg, args.length)
    _print_words(sets[args.family], args.deg, args.ascii, args.format)
    return 0


def _run_verification(args):
    theorem = args.theorem
    weight = _resolve_weight(args, _WEIGHT_DEFAULTS.get(theorem, "1"))
    deg = args.deg
    length = args.length
    if theorem in ("radford", "msq"):
        if theorem == "radford" and weight != 0:
            raise ConfigurationError("radford runs at weight zero")
        if theorem == "msq" and weight == 0:
            raise ConfigurationError("msq needs a nonzero weight")
        return verify_radford_hoffman(semigroup_from_preset(args.sg),
                                      weight, deg, length)
    if theorem == "psh":
        if weight != 0:
            raise ConfigurationError("psh runs at weight zero")
        _need_p(args)
        return verify_fp_weight0(semigroup_from_preset(args.sg), args.p,
                                 deg, length)
    if theorem == "pmsh":
        _need_p(args)
        return verify_fp_nonzero(semigroup_from_preset(args.sg), args.p,
                                 weight, deg, length)
    if theorem == "isomor":
        _need_p(args)
        return verify_zp(semigroup_from_preset(args.sg), args.p,
                         _precision(args), weight, deg)
    if theorem == "intfr":
        return verify_z_polynomial(semigroup_from_preset(args.sg), weight,
                                   deg)
    if theorem == "props":
        _need_p(args)
        return verify_semigroup_props(semigroup_from_preset(args.sg),
                                      args.p, deg, length)
    alphabet = _free_alphabet(semigroup_from_preset(args.sg))
    return verify_rb_structure(theorem, alphabet, weight, args.p,
                               args.precision, deg,
                               length if length is not None else 3)


def _need_p(args):
    if args.p is None:
        raise ConfigurationError("this theorem needs --p")


def _cmd_verify(args):
    report = _run_verification(args)
    if args.seed is not None:
        report.seed = args.seed
    if args.format == "json":
        print(json.dumps(report.to_json(), indent=2))
    else:
        print(report.render(args.ascii))
    return report.exit_code


def _rb_context(args):
    ring = _resolve_ring(args)
    lam = ring.of(_resolve_weight(args))
    monoid = Unitarized(semigroup_from_preset(args.sg))
    if monoid.inner.kind != "free_abelian":
        raise ConfigurationError("rb elements live over a free preset")
    return ring, lam, monoid


def _print_rb(element, args):
    if args.format == "json":
        print(json.dumps(element.to_json(), indent=2))
    else:
        print(element.render(args.ascii))


def _cmd_rb(args):
    if args.rb_command == "mul":
        ring, lam, monoid = _rb_context(args)
        prod = _parse_rb(ring, lam, monoid, args.left) * \
            _parse_rb(ring, lam, monoid, args.right)
        _print_rb(prod, args)
        return 0
    if args.rb_command == "P":
        ring, lam, monoid = _rb_context(args)
        _print_rb(_parse_rb(ring, lam, monoid, args.element).operator_p(),
                  args)
        return 0
    return _cmd_rb_identity(args)


def _random_rb(rng, ring, lam, monoid, degree_bound, length_bound):
    letters = monoid.elements_up_to(degree_bound)
    terms = {}
    for _ in range(rng.randint(1, 2)):
        budget = degree_bound
        head = rng.choice(letters)
        budget -= head.degree
        tail = []
        for _ in range(rng.randint(0, length_bound)):
            options = [l for l in letters if l.degree <= budget]
            letter = rng.choice(options)
            tail.append(letter)
            budget -= letter.degree
        key = (head, Word(tuple(tail)))
        terms[key] = ring.of(rng.choice((-2, -1, 1, 2)))
    return RBElement(ring, lam, monoid, terms)


def _cmd_rb_identity(args):
    ring, lam, monoid = _rb_context(args)
    seed = args.seed if args.seed is not None else 0
    rng = random.Random(seed)
    length = args.length if args.length is not None else 3
    failures = []
    for trial in range(args.trials):
        x = _random_rb(rng, ring, lam, monoid, args.deg, length)
        y = _random_rb(rng, ring, lam, monoid, args.deg, length)
        if not check_rb_identity(x, y)[0]:
            failures.append(trial)
    passed = not failures
    if args.format == "json":
        print(json.dumps({"trials": args.trials, "seed": seed,
                          "failures": failures, "passed": passed}))
    else:
        print("operator identity: %d trials, seed %d: %s" % (
            args.trials, seed, "PASS" if passed else
            "FAIL at %s" % failures))
    return 0 if passed else 1


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad flags already; normalize odd codes
        return 2 if exc.code not in (0,) else 0
    try:
        if args.command == "mul":
            return _cmd_mul(args)
        if args.command == "lyndon":
            return _cmd_lyndon(args)
        if args.command == "cfl":
            return _cmd_cfl(args)
        if args.command == "gens":
            return _cmd_gens(args)
        if args.command == "verify":
            return _cmd_verify(args)
        return _cmd_rb(args)
    except (ConfigurationError, ValueError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

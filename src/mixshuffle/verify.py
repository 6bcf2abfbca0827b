"""Exact structure checks for mixable shuffle and Rota-Baxter algebras.

Every verifier here follows the same pattern: name a set of polynomial
generators, evaluate all admissible monomials in them degree by degree,
and compare against the full word basis of the algebra with exact linear
algebra.  What "comparison" means depends on the coefficient ring:

* over a field (Q or F_p) a degree slice passes when the word count, the
  monomial count, and the rank of the image matrix agree; the matrix is
  eliminated cumulatively in ascending degree so that merges that lower
  degree (non-graded letter semigroups) are still certified;
* over Z a degree slice must give a square image matrix whose elementary
  divisors are all 1, which pins a Z-module basis: every word is then an
  integral combination of the monomials.  The decomposables map of a
  degree is built sparse; its elementary divisors decide the Z/p^N
  indecomposables, and its unit-pivot elimination, back-substituted,
  presents its cokernel (_cokernel_classes), which the lifted complement
  walk and the nested summand cells read.  Only the residual the unit
  pivots leave is made dense for a Smith form, never the whole map;
* over Z/p^N ranks are taken after reduction mod p.  By Nakayama's lemma
  the images span exactly when their reductions do, and they are a basis
  of a direct summand exactly when their reductions are independent, so a
  square system of full rank mod p has unit determinant and stays a basis
  at any precision.

Monomial images are elements from their generators to the cells, and
elements hold integer numerators over one denominator keyed by letter
codes.  Rows are code keys too, numbered in the order given, which no
rank, divisor or named dependency depends on; each column's numerators
are keyed by row number, so the eliminators hash and compare plain ints.
Every cell is first read once for a certificate: when its columns have
pairwise distinct leading rows, each holding a unit of the ring, a
square minor on those rows is triangular with a unit diagonal, so the
columns are independent (mod p over Z/p^N) and over Z have every
elementary divisor 1.  Only a cell that fails it is eliminated, once, in
its own ring: exactly over Q, mod p over F_p and Z/p^N, and by its
elementary divisors over Z; a field window is eliminated with tracking,
so that its first dependent column is named.  No row or term is read as
a Word or a Fraction on the way to a cell, save the columns of a field
window over Q that fails the certificate.

Each generator family has one builder.  The Rota-Baxter verifiers mirror
Sh(A) = A (x) Sh+(A): each builds only its heads and takes its tails from
its shuffle twin's family through one map, g -> 1 (x) g.  Words change
alphabet (into the monoid, or a larger one) by one map on letter codes.

One helper computes the rank of a cell for every ring (and over Z its
elementary divisors); the spanning check reads its verdict off that rank,
and a failing cell over Z or Z/p^N names its first word out of reach from
the same presentation of its cokernel.

Reports carry one record per degree plus named side checks (generator
relations, cardinality identities, cokernel diagnoses) and serialize to
JSON or a plain table.  Nothing here is randomized; reruns are bytewise
reproducible.
"""

import itertools
import math
import re
from fractions import Fraction

# _ZSolver is unused here; the benchmark tracer wraps verify._ZSolver.solve
from .rings import Ring, Matrix, SparseEliminator, _ZSolver, _is_prime, \
    elementary_divisors, least_residue, unit_pivot_elimination
from .semigroups import Element, Unitarized, FreeAbelian, ProductSemigroup, \
    ElementaryPGroup, FiniteTableSemigroup, cyclic_group_table, letter_codec
from .words import empty_word, enumerate_words, enumerate_lyndon, \
    operator_T, standard_generating_sets, _tel2_orbit, componentwise_p_power
from .shuffle import TensorPoly, graded_basis, shuffle_sum, \
    eettl_representative, length_rescale, with_weight
from .rota_baxter import RBElement, alphabet_generators


class ConfigurationError(ValueError):
    """A verification request that is malformed or out of scope."""


def _require(cond, message):
    if not cond:
        raise ConfigurationError(message)


def _require_prime(p):
    _require(isinstance(p, int) and _is_prime(p),
             "p must be a prime number (p >= 2), not %r" % (p,))


def _require_bounds(degree_bound, length_bound=None):
    _require(degree_bound >= 0, "the degree bound must not be negative")
    _require(length_bound is None or length_bound >= 0,
             "the length bound must not be negative")


def _weight_str(weight):
    return str(Fraction(weight))


# ---------------------------------------------------------------------------
# reports


class CellRecord:
    """One degree slice: word count, monomial count, matrix rank, verdict."""

    __slots__ = ("degree", "dimension", "monomials", "rank", "ok", "note")

    def __init__(self, degree, dimension, monomials, rank, ok, note=None):
        self.degree = degree
        self.dimension = dimension
        self.monomials = monomials
        self.rank = rank
        self.ok = ok
        self.note = note

    def to_json(self):
        data = {"degree": self.degree, "dimension": self.dimension,
                "monomials": self.monomials, "rank": self.rank,
                "ok": self.ok}
        if self.note:
            data["note"] = self.note
        return data

    def __repr__(self):
        return "CellRecord(%d, dim=%d, mon=%d, rank=%d, ok=%s)" % (
            self.degree, self.dimension, self.monomials, self.rank, self.ok)


class CheckRecord:
    """A named non-cell check (relation, cardinality, invariant)."""

    __slots__ = ("name", "ok", "detail")

    def __init__(self, name, ok, detail=None):
        self.name = name
        self.ok = ok
        self.detail = detail

    def to_json(self):
        data = {"name": self.name, "ok": self.ok}
        if self.detail is not None:
            data["detail"] = self.detail
        return data

    def __repr__(self):
        return "CheckRecord(%r, ok=%s)" % (self.name, self.ok)


class VerificationReport:
    """Per-degree records and named checks for one theorem instance.

    The overall verdict is the conjunction of every record.  Exit code
    mapping: 0 when passed, 1 when some record failed; configuration
    problems never produce a report, they raise ConfigurationError.
    """

    def __init__(self, theorem, ring, weight, semigroup, bounds):
        self.theorem = theorem
        self.ring = ring
        self.weight = _weight_str(weight)
        self.semigroup = semigroup
        self.bounds = dict(bounds)
        self.cells = []
        self.checks = []
        self.counterexample = None
        self.seed = None

    @property
    def passed(self):
        return (all(c.ok for c in self.cells)
                and all(c.ok for c in self.checks)
                and self.counterexample is None)

    @property
    def exit_code(self):
        return 0 if self.passed else 1

    def to_json(self):
        return {
            "theorem": self.theorem,
            "ring": self.ring.to_json(),
            "weight": self.weight,
            "semigroup": self.semigroup.to_json(),
            "bounds": self.bounds,
            "cells": [c.to_json() for c in self.cells],
            "checks": [c.to_json() for c in self.checks],
            "counterexample": self.counterexample,
            "seed": self.seed,
            "passed": self.passed,
        }

    def render(self, ascii_mode=False):
        lines = []
        lines.append("theorem %s   ring %r   weight %s" % (
            self.theorem, self.ring, self.weight))
        lines.append("semigroup %s   bounds %s" % (
            self.semigroup.descriptor(), self.bounds))
        if self.seed is not None:
            lines.append("seed %s" % self.seed)
        if self.cells:
            lines.append("degree  dimension  monomials  rank  verdict")
            for c in self.cells:
                row = "%6d  %9d  %9d  %4d  %s" % (
                    c.degree, c.dimension, c.monomials, c.rank,
                    "pass" if c.ok else "FAIL")
                if c.note:
                    row += "  " + c.note
                lines.append(row)
        for c in self.checks:
            row = "check   %s: %s" % (c.name, "pass" if c.ok else "FAIL")
            if c.detail is not None:
                row += "  [%s]" % (c.detail,)
            lines.append(row)
        if self.counterexample:
            lines.append("counterexample: %s" % self.counterexample)
        lines.append("verdict: %s" % ("PASS" if self.passed else "FAIL"))
        text = "\n".join(lines)
        return text.replace("⊗", "(x)") if ascii_mode else text


# ---------------------------------------------------------------------------
# presented algebras


class GeneratorSymbol:
    """A named generator bound to its image polynomial.

    cap bounds the exponent in monomial enumeration (None = unbounded).
    relation is None, ("power_zero", e) for g^e = 0, or
    ("power_scalar", e, c) for g^e = c*g, with e >= 2.
    """

    __slots__ = ("name", "image", "degree", "lead_length", "cap", "relation")

    def __init__(self, name, image, degree, lead_length, cap=None,
                 relation=None):
        if relation is not None and relation[1] < 2:
            raise ValueError("relation exponent must be at least 2")
        if degree == 0 and lead_length == 0:
            raise ValueError("generator with degree 0 and length 0")
        self.name = name
        self.image = image
        self.degree = degree
        self.lead_length = lead_length
        self.cap = cap
        self.relation = relation

    def __repr__(self):
        return "GeneratorSymbol(%r, deg=%d, len=%d, cap=%r)" % (
            self.name, self.degree, self.lead_length, self.cap)


def word_symbol(ring, lam, semigroup, word, cap=None, relation=None):
    """Generator symbol for a plain word viewed inside the shuffle algebra."""
    image = TensorPoly.from_word(ring, lam, semigroup, word)
    return GeneratorSymbol(word.display(True), image, word.degree,
                           word.length, cap, relation)


# a generator name that needs no brackets in a monomial name
_ATOMIC_NAME = re.compile(r"[^\W\d]\w*|\[[^\[\]]*\]")


class PresentedAlgebra:
    """Generators with exponent caps, evaluated to the ambient algebra.

    Monomials are bucketed by the total of the symbol degrees; merges can
    push individual image terms below that bucket but never above it, and
    the leading (merge-free) term always sits exactly at it, so bucket
    counts are the right accounting.  When a length bound is given the
    additive leading-length budget prunes the same way.

    Generator images, their powers and the monomials are elements,
    multiplied through the elements' own product body on one shuffle
    memo: compatibility is checked once, in the constructor, so a product
    builds no Word or Fraction and checks nothing.  Powers, monomials
    and the memo are cached on the instance, so evaluating all monomials
    of a window shares almost all of the work.
    """

    def __init__(self, ring, weight, semigroup, generators, unit,
                 length_bound=None):
        self.ring = ring
        self.weight = weight
        self.semigroup = semigroup
        self.generators = list(generators)
        self.unit = unit
        self.length_bound = length_bound
        if unit.ring != ring or unit.semigroup != semigroup:
            raise ValueError("unit is not over %r on %r" % (ring, semigroup))
        for g in self.generators:
            if g.degree == 0 and length_bound is None and g.cap is None:
                raise ConfigurationError(
                    "generator %s has degree 0; a length bound is required"
                    % g.name)
            unit._check(g.image)
            if g.image.max_degree() != g.degree:
                raise ValueError("symbol degree of %s differs from its image"
                                 % g.name)
        self._powers = {}
        self._memo = {}
        self._buckets = {}

    def multiply(self, a, b):
        """The product of two elements over this algebra, on its memo; with
        the algebra's own unit, the other operand itself."""
        if a is self.unit:
            return b
        if b is self.unit:
            return a
        return a._times(b, self._memo)

    def power_of(self, index, exponent):
        """A generator's image to a power, built up one product at a time
        from the highest cached power below it."""
        powers = self._powers
        e = exponent
        while e and (index, e) not in powers:
            e -= 1
        got = powers[index, e] if e else self.unit
        image = self.generators[index].image
        for e in range(e + 1, exponent + 1):
            got = powers[index, e] = self.multiply(got, image)
        return got

    def monomials_by_degree(self, degree_bound):
        """All admissible monomials with total symbol degree <= the bound,
        bucketed by that degree, each as (name, image).

        A name joins generator powers with "*", as g or g^e; a generator
        name that is neither a bare identifier nor one bracket group is
        bracketed, so that the square of x and a generator named x^2 get
        different names.
        """
        cached = self._buckets.get(degree_bound)
        if cached is not None:
            return cached
        buckets = {n: [] for n in range(degree_bound + 1)}
        gens = self.generators
        len_bound = self.length_bound
        labels = [g.name if _ATOMIC_NAME.fullmatch(g.name)
                  else "[%s]" % g.name for g in gens]

        def fits(g, e, deg_used, len_used):
            return ((g.cap is None or e <= g.cap)
                    and deg_used + e * g.degree <= degree_bound
                    and (len_bound is None
                         or len_used + e * g.lead_length <= len_bound))

        # skip[b][i]: the first generator from i on that fits once into a
        # degree budget of b, ignoring the length budget
        skip = []
        for b in range(degree_bound + 1):
            row = [len(gens)] * (len(gens) + 1)
            for i in range(len(gens) - 1, -1, -1):
                g = gens[i]
                ok = (g.cap is None or g.cap >= 1) and g.degree <= b
                row[i] = i if ok else row[i + 1]
            skip.append(row)

        # depth-first over exponent choices, generator by generator: the
        # exponent 0 branch first, then 1, 2, ...; generators that do not
        # fit even once are passed over without nodes of their own
        stack = [(0, 0, 0, (), self.unit)]
        while stack:
            i, deg_used, len_used, parts, image = stack.pop()
            row = skip[degree_bound - deg_used]
            i = row[i]
            while i < len(gens) and not fits(gens[i], 1, deg_used, len_used):
                i = row[i + 1]
            if i == len(gens):
                buckets[deg_used].append(("*".join(parts) or "1", image))
                continue
            g = gens[i]
            children = [(i + 1, deg_used, len_used, parts, image)]
            e = 1
            cur = image
            while fits(g, e, deg_used, len_used):
                cur = self.multiply(cur, g.image)
                label = labels[i] if e == 1 else "%s^%d" % (labels[i], e)
                children.append((i + 1, deg_used + e * g.degree,
                                 len_used + e * g.lead_length,
                                 parts + (label,), cur))
                e += 1
            stack.extend(reversed(children))
        self._buckets[degree_bound] = buckets
        return buckets

    def monomials(self, degree):
        """(name, image) pairs for the monomials of this exact degree."""
        return list(self.monomials_by_degree(degree).get(degree, []))


def check_relations(algebra, max_length=None):
    """Verify declared generator relations on their images.

    Power computations cube in the word length, so callers working over
    long boxes cap the checked leading length and the summary record says
    how many generators were covered.
    """
    checks = []
    total = skipped = 0
    for i, g in enumerate(algebra.generators):
        if g.relation is None:
            continue
        total += 1
        if max_length is not None and g.lead_length > max_length:
            skipped += 1
            continue
        kind, exponent = g.relation[0], g.relation[1]
        power = algebra.power_of(i, exponent)
        if kind == "power_zero":
            ok = power.is_zero()
            detail = "%s^%d = 0" % (g.name, exponent)
        elif kind == "power_scalar":
            scalar = g.relation[2]
            ok = power == g.image.scale(scalar)
            detail = "%s^%d = %s*%s" % (g.name, exponent,
                                        algebra.ring.format(scalar), g.name)
        else:
            raise ValueError("unknown relation kind %r" % kind)
        checks.append(CheckRecord("relation " + detail, ok))
    if skipped:
        checks.append(CheckRecord(
            "relations spot checked", True,
            "%d of %d within length %d" % (total - skipped, total,
                                           max_length)))
    return checks


# ---------------------------------------------------------------------------
# linear algebra drivers


def _certified(ring, columns, key=None):
    """Do these sparse columns, {row: value}, certify their own full rank?

    They do when every column is nonempty, their leading rows (largest by
    key) are pairwise distinct, and each leading entry is a unit of ring
    (over Q, whose columns may be numerators, any nonzero value).  A square
    minor on the leading rows is then triangular with a unit diagonal: the
    columns are independent over a field and mod p over Z/p^N, and over Z
    every elementary divisor is 1.  A row that key does not know
    (KeyError) fails the certificate.
    """
    leads = set()
    is_unit = ring.is_unit
    try:
        for column in columns:
            if not column:
                return False
            lead = max(column, key=key)
            if lead in leads or not is_unit(column[lead]):
                return False
            leads.add(lead)
    except KeyError:
        return False
    return True


def _ranks(rows):
    """Each row's code key, a code string, mapped to its place in the
    given order."""
    return {r: i for i, r in enumerate(rows)}


def _ranked(rank, cols):
    """The columns, (name, image), whose keys all lie in the window, each
    as (name, image, {rank: numerator}), and a note naming the first
    column that leaves it (None when none does)."""
    inside = []
    note = None
    for name, image in cols:
        try:
            inside.append((name, image, {rank[k]: x for k, x
                                         in image.code_terms.items()}))
        except KeyError:
            if note is None:
                note = "image of %s leaves the window" % name
    return inside, note


def _field_values(vec, den):
    """The field values of a column held as integers over den."""
    if den == 1:
        return vec
    return {k: Fraction(x, den) for k, x in vec.items()}


def _cell_rank(ring, vectors):
    """Rank of the matrix with these sparse integer columns, and over Z its
    nonzero elementary divisors (None over the other rings).

    A column over Q is given by its numerators over one denominator, which
    scales it by a unit.  Columns that pass _certified have full rank, and
    over Z every divisor 1.  The others are eliminated once: exactly over
    Q, mod p over F_p, and mod p over Z/p^N, where by Nakayama's lemma
    the rank decides both spanning and independence at every precision N;
    over Z elementary_divisors gives the divisors.
    """
    if _certified(ring, vectors):
        n = len(vectors)
        return n, [1] * n if ring.kind == "Z" else None
    if ring.kind == "Z":
        divisors = elementary_divisors(vectors)
        return len(divisors), divisors
    elim = SparseEliminator(ring if ring.is_field
                            else Ring.prime_field(ring.p))
    for vec in vectors:
        elim.insert(vec)
    return elim.rank, None


def _dependency(elim, name, vec):
    """'name = combination' for a column in the span of the tracked ones."""
    combo = elim.express(vec) or {}
    parts = ["%s*%s" % (elim.ring.format(c), tag)
             for tag, c in sorted(combo.items(), key=lambda kv: str(kv[0]))]
    return "%s = %s" % (name, " + ".join(parts) or "0")


def _filtered_cells(report, field, rows_by_degree, cols_by_degree):
    """Cumulative full-rank certification over a field.

    Columns are taken in ascending degree; because merges never raise
    degree, the final square full-rank system certifies a basis of the
    whole window even when individual images straddle degrees.  One
    _certified pass over every image, reading its leading row through the
    window's numbering, certifies a window in which every column enlarges
    the span.  Any other window is eliminated once, in the field itself,
    with tracking, so that its first dependent column is named.
    """
    rank = _ranks([r for rows in rows_by_degree.values() for r in rows])
    degrees = sorted(set(rows_by_degree) | set(cols_by_degree))
    cols = [cols_by_degree.get(n, []) for n in degrees]
    if _certified(field, (image.code_terms for bucket in cols
                          for _, image in bucket), rank.__getitem__):
        found = [(len(bucket), None) for bucket in cols]
    else:
        found = _eliminated(report, field, rank, cols)
    for n, bucket, (increment, note) in zip(degrees, cols, found):
        dim = len(rows_by_degree.get(n, ()))
        ok = (dim == len(bucket) == increment) and note is None
        if not ok and note is None:
            note = "dimension %d, monomials %d, new rank %d" % (
                dim, len(bucket), increment)
        report.cells.append(
            CellRecord(n, dim, len(bucket), increment, ok, note))


def _eliminated(report, field, rank, cols):
    """(rank increment, window note) of each degree's columns, eliminated
    cumulatively in one tracked pass; the first dependent column goes to
    the report's counterexample."""
    exact = SparseEliminator(field, track=True)
    found = []
    for inside, note in (_ranked(rank, bucket) for bucket in cols):
        increment = 0
        for name, image, vec in inside:
            vec = _field_values(vec, image.den)
            if exact.insert(vec, tag=name):
                increment += 1
            elif report.counterexample is None:
                report.counterexample = _dependency(exact, name, vec)
        found.append((increment, note))
    return found


def _square_cells(ring, rows_by_degree, cols_by_degree):
    """Per-degree basis certification over Z or Z/p^N.

    Each degree needs as many monomials as words, of full rank: over Z
    with every elementary divisor 1, which makes them a Z-basis of the
    words; over Z/p^N after reduction mod p, which makes the determinant
    a unit.
    """
    cells = []
    for n in sorted(rows_by_degree):
        keys = rows_by_degree[n]
        cols = cols_by_degree.get(n, [])
        rank = 0
        if ring.kind == "Z" and len(keys) != len(cols):
            note = "non-square system"
        else:
            inside, note = _ranked(_ranks(keys), cols)
        if note is None:
            rank, divisors = _cell_rank(ring, [vec for _, _, vec in inside])
            if divisors is None:
                if not len(keys) == len(cols) == rank:
                    note = "determinant not a unit"
            elif any(d != 1 for d in divisors):
                note = "elementary divisors %s" % [
                    d for d in divisors if d != 1]
            elif rank != len(keys):
                note = "rank %d of %d" % (rank, len(keys))
        cells.append(CellRecord(n, len(keys), len(cols), rank, note is None,
                                note))
    return cells


def check_independence(algebra, degree):
    """Do the degree-n monomial images span a free direct summand?

    Over a field that is linear independence.  Over Z it is stronger:
    every elementary divisor of the image matrix must be 1, so the images
    are independent and their span is saturated (a divisor d > 1 means a
    word-lattice vector outside the span has d times it inside).  Over
    Z/p^N it is independence after reduction mod p.  Images with distinct
    unit leading entries (_certified, leading by code string) pass with no
    elimination; only a failing cell is eliminated again to name the
    first dependent monomial.
    """
    ring = algebra.ring
    cols = algebra.monomials_by_degree(degree).get(degree, [])
    universe = {k for _, image in cols for k in image.code_terms}
    rank, divisors = _cell_rank(ring, [image.code_terms
                                       for _, image in cols])
    ok = rank == len(cols) and all(d == 1 for d in divisors or ())
    note = None
    if not ok:
        if ring.is_field:
            # name the first monomial in the span of the ones before it
            elim = SparseEliminator(ring, track=True)
            for name, image in cols:
                vec = _field_values(image.code_terms, image.den)
                if not elim.insert(vec, tag=name):
                    note = _dependency(elim, name, vec)
                    break
        elif divisors is not None:
            note = "not a direct summand: elementary divisors %s" % (
                divisors,)
        else:
            note = "rank %d mod %d" % (rank, ring.p)
    return CellRecord(degree, len(universe), len(cols), rank, ok, note)


def check_spanning(algebra, degree):
    """Is every degree-n basis word a combination of the monomial images?

    The verdict is read off the rank of the images (_cell_rank, so by the
    leading-entry certificate first): they span when it equals the number
    of words, over a field and, by Nakayama's lemma, over Z/p^N, where the
    rank is taken mod p; over Z when moreover every elementary divisor is
    1.  A failing cell names its first word out of reach, from one
    eliminator over a field, over Z and Z/p^N from _unreachable.
    """
    ring = algebra.ring
    if not isinstance(algebra.unit, TensorPoly):
        raise ValueError("spanning checks run on tensor algebras")
    rows = graded_basis(algebra.semigroup, degree, algebra.length_bound)
    cols = algebra.monomials_by_degree(degree).get(degree, [])
    inside, note = _ranked(_ranks([w.codes for w in rows]), cols)
    if note is not None:
        return CellRecord(degree, len(rows), len(cols), 0, False, note)
    # columns over Q are scaled to their numerators: the same span
    vectors = [vec for _, _, vec in inside]
    rank, divisors = _cell_rank(ring, vectors)
    ok = rank == len(rows) and all(d == 1 for d in divisors or ())
    if not ok:
        # one factorization serves every word
        if ring.is_field:
            elim = SparseEliminator(ring)
            for vec in vectors:
                elim.insert(vec)
            unreachable = (i for i in range(len(rows))
                           if not elim.contains({i: 1}))
        else:
            unreachable = _unreachable(len(rows), vectors, ring.modulus or 0)
        i = next(unreachable, None)
        if i is not None:
            note = "word %s is not reachable" % rows[i].display(True)
    return CellRecord(degree, len(rows), len(cols), rank, ok, note)


# ---------------------------------------------------------------------------
# shared builders


def _has_degree_zero_letter(semigroup):
    return any(True for _ in semigroup.iter_keys(0))


def _tensor_rows(semigroup, degree_bound, length_bound):
    """The code strings of the words of each degree."""
    return {n: [w.codes for w in graded_basis(semigroup, n, length_bound)]
            for n in range(degree_bound + 1)}


class _Letters(dict):
    """A str.translate table whose entry for a code is fill(code), set
    on first use."""

    def __init__(self, fill):
        self.fill = fill

    def __missing__(self, c):
        out = self[c] = self.fill(c)
        return out


def _embedding(source, target, key):
    """The map of code strings over source to code strings over target
    that sends the letter with Element.key k to the letter with key
    key(k), by one translation table."""
    keys, code = letter_codec(source).keys, letter_codec(target).code
    table = _Letters(lambda c: code(key(keys[c])))
    return lambda codes: codes.translate(table)


def _relation_length_cap(p):
    # p-th powers of a length-l word have up to (pl)!/(l!)^p terms; keep
    # the checked lengths small enough to stay interactive
    return max(1, 6 // p)


# One builder per generator family: the shuffle verifiers present their
# algebras on these, and each Rota-Baxter verifier takes its tails from
# its twin's family through _tails.


def _lyndon_family(ring, lam, semigroup, degree_bound, length_bound):
    """The Lyndon words, free polynomial generators over Q."""
    return [word_symbol(ring, lam, semigroup, w)
            for w in enumerate_lyndon(semigroup, degree_bound, length_bound)]


def _tel_family(ring, lam, semigroup, sets):
    """The tensor Lyndon words of the reduced Lyndon family."""
    return [word_symbol(ring, lam, semigroup, w) for w in sets["tel"]]


def _nilpotent_family(ring, lam, semigroup, p, degree_bound, length_bound):
    """Weight zero mod p: the tensor Lyndon words, capped at p-1, with
    vanishing p-th powers."""
    lyndon = enumerate_lyndon(semigroup, degree_bound, length_bound)
    return [word_symbol(ring, lam, semigroup, w, cap=p - 1,
                        relation=("power_zero", p))
            for w in operator_T(lyndon, p, degree_bound, length_bound)]


def _power_order_family(ring, lam, semigroup, p, sets):
    """The tensor Lyndon words capped at p-1; the fixed ones have w^p = w."""
    fixed = set(sets["tl1"])
    return [word_symbol(ring, lam, semigroup, w, cap=p - 1,
                        relation=("power_scalar", p, ring.one)
                        if w in fixed else None)
            for w in sets["tl"]]


def _power_split_family(ring, lam, semigroup, p, sets):
    """The fixed reduced tensor Lyndon words, with w^p = w, then the
    nilpotent differences w - w^(p) of the moved ones, all capped at p-1."""
    gens = [word_symbol(ring, lam, semigroup, w, cap=p - 1,
                        relation=("power_scalar", p, ring.one))
            for w in sets["tel1"]]
    for w in sets["tel2"]:
        image = eettl_representative(ring, lam, semigroup, w, p)
        gens.append(GeneratorSymbol(
            _difference_name(w, p), image, image.max_degree(), w.length,
            cap=p - 1, relation=("power_zero", p)))
    return gens


# ---------------------------------------------------------------------------
# rational and F_p shuffle algebra structure


def verify_radford_hoffman(semigroup, weight, degree_bound,
                           length_bound=None):
    """Lyndon monomials are a basis of the rational shuffle algebra."""
    _require_bounds(degree_bound, length_bound)
    ring = Ring.rationals()
    lam = ring.of(Fraction(weight))
    if semigroup.kind == "ordered_set":
        _require(lam == 0, "a bare ordered set only carries weight zero")
    if _has_degree_zero_letter(semigroup):
        _require(length_bound is not None,
                 "letters of degree zero need a length bound")
    theorem = "radford" if lam == 0 else "msq"
    report = VerificationReport(theorem, ring, weight, semigroup,
                                {"degree": degree_bound,
                                 "length": length_bound})
    gens = _lyndon_family(ring, lam, semigroup, degree_bound, length_bound)
    algebra = PresentedAlgebra(ring, lam, semigroup, gens,
                               TensorPoly.unit(ring, lam, semigroup),
                               length_bound)
    rows = _tensor_rows(semigroup, degree_bound, length_bound)
    _filtered_cells(report, ring, rows,
                    algebra.monomials_by_degree(degree_bound))
    if lam != 0:
        report.checks.append(_rescaling_check(ring, lam, semigroup,
                                              min(3, degree_bound),
                                              length_bound))
    return report


def _rescaling_check(ring, lam, semigroup, degree_bound, length_bound):
    """Scaling words by c^length carries the weight c*lam product to the
    weight lam product, on sampled word pairs."""
    c = Fraction(2)
    clam = ring.of(c * lam)
    bound = 3 if length_bound is None else min(length_bound, 3)
    words = enumerate_words(semigroup, degree_bound, bound)[:6]
    ok = True
    for a in words:
        for b in words:
            xa = TensorPoly.from_word(ring, clam, semigroup, a)
            xb = TensorPoly.from_word(ring, clam, semigroup, b)
            left = with_weight(length_rescale(xa * xb, c), lam)
            right = with_weight(length_rescale(xa, c), lam) \
                * with_weight(length_rescale(xb, c), lam)
            if left != right:
                ok = False
    return CheckRecord("length rescaling intertwines weights", ok,
                       "c=%s on %d words" % (c, len(words)))


def verify_fp_weight0(semigroup, p, degree_bound, length_bound=None):
    """Weight-zero mod-p shuffle: truncated polynomials on tensor Lyndon
    words, every generator with vanishing p-th power."""
    _require_bounds(degree_bound, length_bound)
    _require_prime(p)
    if _has_degree_zero_letter(semigroup):
        _require(length_bound is not None,
                 "letters of degree zero need a length bound")
    ring = Ring.prime_field(p)
    lam = ring.zero
    report = VerificationReport("psh", ring, 0, semigroup,
                                {"degree": degree_bound,
                                 "length": length_bound, "p": p})
    gens = _nilpotent_family(ring, lam, semigroup, p, degree_bound,
                             length_bound)
    algebra = PresentedAlgebra(ring, lam, semigroup, gens,
                               TensorPoly.unit(ring, lam, semigroup),
                               length_bound)
    rows = _tensor_rows(semigroup, degree_bound, length_bound)
    _filtered_cells(report, ring, rows,
                    algebra.monomials_by_degree(degree_bound))
    report.checks.extend(check_relations(algebra, _relation_length_cap(p)))
    return report


def _dispatch_tag(semigroup, p, degree_bound):
    tags = semigroup.classify(p, max(4, degree_bound))
    if "free-abelian" in tags:
        return "free-abelian", tags
    if "power-order" in tags:
        return "power-order", tags
    if "power-split" in tags or "elementary-p-group" in tags:
        return "power-split", tags
    raise ConfigurationError(
        "semigroup is not in a verifiable class for nonzero weight; "
        "classification gave %s" % sorted(tags))


def _letterwise_power_checks(ring, lam, semigroup, p, candidates):
    """u^(shuffle p) = u^(letter p) over F_p with a unit weight, checked
    on the first six candidates.

    Mod p only the fully merged interleavings survive, so every letter
    position absorbs p-1 merges, a factor lambda^((p-1)len(u)); that
    factor is 1 by Fermat, since lambda is a unit of F_p."""
    checks = []
    for u in candidates[:6]:
        left = TensorPoly.from_word(ring, lam, semigroup, u).shuffle_power(p)
        right = TensorPoly.from_word(ring, lam, semigroup,
                                     componentwise_p_power(u, p))
        checks.append(CheckRecord(
            "letterwise power congruence for %s" % u.display(True),
            left == right))
    return checks


def _orbit_check(sets, p, degree_bound, length_bound):
    ok, details = _tel2_orbit(sets, p, degree_bound, length_bound)
    return CheckRecord(
        "moved family is the power orbit of the reduced family", ok,
        None if ok else str(details))


def _unit_power_family_check(semigroup, family, p, degree_bound,
                             length_bound):
    """Over a unitarized free monoid the fixed tensor Lyndon words are
    exactly the tensor powers of the bare identity letter."""
    ident = chr(semigroup.identity.code)
    limit = degree_bound if length_bound is None else length_bound
    expected = []
    q = 1
    while q <= limit:
        expected.append(ident * q)
        q *= p
    ok = sorted(w.codes for w in family) == sorted(expected)
    return CheckRecord("fixed tensor Lyndon words are identity powers", ok,
                       "count %d" % len(expected))


def verify_fp_nonzero(semigroup, p, weight, degree_bound, length_bound=None):
    """Nonzero-weight mod-p shuffle structure, dispatched on the p-power
    behaviour of the letter semigroup.

    free abelian: the tensor Lyndon family generates freely.
    power-ordered: all tensor Lyndon words capped at p-1 carry the degree
    accounting, and the fixed ones satisfy w^p = w: mod p only the fully
    merged interleavings survive, with a factor lambda^(p-1) per letter,
    which is 1 by Fermat.
    power-split: fixed generators with w^p = w tensored with nilpotent
    differences w - w^(p) whose p-th powers vanish.
    """
    _require_bounds(degree_bound, length_bound)
    _require_prime(p)
    ring = Ring.prime_field(p)
    lam = ring.of(Fraction(weight))
    _require(lam != 0,
             "weight vanishes mod p; use the weight-zero verifier")
    branch, tags = _dispatch_tag(semigroup, p, degree_bound)
    if _has_degree_zero_letter(semigroup):
        _require(length_bound is not None,
                 "letters of degree zero need a length bound")
    report = VerificationReport("pmsh", ring, weight, semigroup,
                                {"degree": degree_bound,
                                 "length": length_bound, "p": p})
    report.checks.append(CheckRecord("classification", True,
                                     "%s -> %s" % (sorted(tags), branch)))
    sets = standard_generating_sets(semigroup, p, degree_bound, length_bound)
    if branch == "free-abelian":
        gens = _tel_family(ring, lam, semigroup, sets)
        report.checks.extend(_count_check(n, count, lyn) for n, count, lyn
                             in _family_counts(sets, degree_bound))
        report.checks.extend(_letterwise_power_checks(
            ring, lam, semigroup, p,
            [u for u in sets["el"] if u.degree * p <= degree_bound]))
    elif branch == "power-order":
        gens = _power_order_family(ring, lam, semigroup, p, sets)
        report.checks.append(CheckRecord(
            "fixed tensor families agree", sets["tl1"] == sets["tel1"]))
        if semigroup.kind == "unitarize" \
                and semigroup.inner.kind == "free_abelian":
            report.checks.append(_unit_power_family_check(
                semigroup, sets["tel1"], p, degree_bound, length_bound))
        report.checks.append(_orbit_check(sets, p, degree_bound,
                                          length_bound))
        fixed_letters = set(semigroup.split_p_fixed(p, degree_bound)[0])
        moved = [u for u in sets["el"]
                 if u.degree * p <= degree_bound
                 and any(l not in fixed_letters for l in u.letters)]
        report.checks.extend(_letterwise_power_checks(
            ring, lam, semigroup, p, moved))
    else:
        gens = _power_split_family(ring, lam, semigroup, p, sets)
        report.checks.append(_orbit_check(sets, p, degree_bound,
                                          length_bound))
    algebra = PresentedAlgebra(ring, lam, semigroup, gens,
                               TensorPoly.unit(ring, lam, semigroup),
                               length_bound)
    rows = _tensor_rows(semigroup, degree_bound, length_bound)
    _filtered_cells(report, ring, rows,
                    algebra.monomials_by_degree(degree_bound))
    report.checks.extend(check_relations(algebra, _relation_length_cap(p)))
    return report


def _difference_name(word, p):
    return "[%s-%s]" % (word.display(True),
                        componentwise_p_power(word, p).display(True))


def _count_check(n, count, lyndon_count):
    return CheckRecord(
        "degree %d tensor Lyndon count equals Lyndon count" % n,
        count == lyndon_count, "%d" % count)


def _family_counts(sets, degree_bound):
    lyn_by_deg = {}
    for w in sets["lyn"]:
        lyn_by_deg[w.degree] = lyn_by_deg.get(w.degree, 0) + 1
    tel_by_deg = {}
    for w in sets["tel"]:
        tel_by_deg[w.degree] = tel_by_deg.get(w.degree, 0) + 1
    return [(n, tel_by_deg.get(n, 0), lyn_by_deg.get(n, 0))
            for n in range(1, degree_bound + 1)]


# ---------------------------------------------------------------------------
# Z/p^N structure


def _int_weight(weight, p):
    weight = Fraction(weight)
    _require(weight.denominator == 1,
             "this check needs an integer weight literal")
    w = int(weight)
    _require(w % p != 0, "weight must be a unit at p")
    return w


def verify_zp(semigroup, p, precision, weight, degree_bound):
    """Mod p^N the tensor Lyndon monomials are a basis, and the
    indecomposables quotient keeps the Lyndon rank with p-unit divisors.
    One precision decides all: a cell is read mod p (Nakayama's lemma),
    and products over every Z/p^M reduce mod p to the same residues."""
    _require_bounds(degree_bound)
    _require_prime(p)
    _require(precision >= 1, "precision must be positive")
    _require(semigroup.kind == "free_abelian",
             "this check runs over a free abelian semigroup")
    w = _int_weight(weight, p)
    ring = Ring.truncated_padic(p, precision)
    report = VerificationReport("isomor", ring, weight, semigroup,
                                {"degree": degree_bound, "p": p,
                                 "precision": precision})
    sets = standard_generating_sets(semigroup, p, degree_bound)
    lam = ring.of(w)
    algebra = PresentedAlgebra(ring, lam, semigroup,
                               _tel_family(ring, lam, semigroup, sets),
                               TensorPoly.unit(ring, lam, semigroup))
    report.cells.extend(_square_cells(
        ring, _tensor_rows(semigroup, degree_bound, None),
        algebra.monomials_by_degree(degree_bound)))
    for n, count, lyn in _family_counts(sets, degree_bound):
        report.checks.append(_count_check(n, count, lyn))
        rows, columns = _decomposables(semigroup, w, n)
        divisors = elementary_divisors(columns)
        coker_rank = len(rows) - len(divisors)
        report.checks.append(CheckRecord(
            "degree %d indecomposables keep Lyndon rank at p" % n,
            all(d % p != 0 for d in divisors) and coker_rank == lyn,
            "rank %d, divisors %s" % (coker_rank, divisors)))
    fp = Ring.prime_field(p)
    report.checks.extend(_letterwise_power_checks(
        fp, fp.of(w), semigroup, p,
        [u for u in sets["el"] if u.degree * p <= degree_bound]))
    return report


# ---------------------------------------------------------------------------
# integral structure


def _decomposables(semigroup, lam, degree):
    """The degree-n words in graded_basis order, and the decomposables map
    over Z at weight lam: each unordered pair of lower-degree basis words'
    product, by shuffle_sum on one memo, as a {row index: int} column."""
    ring = Ring.integers()
    codec = letter_codec(semigroup)
    rows = graded_basis(semigroup, degree)
    index = {w.codes: i for i, w in enumerate(rows)}
    memo = {}
    columns = []
    for i in range(1, degree // 2 + 1):
        low = [w.codes for w in graded_basis(semigroup, i)]
        high = [w.codes for w in graded_basis(semigroup, degree - i)]
        for a_pos, a in enumerate(low):
            for b in high[a_pos if 2 * i == degree else 0:]:
                prod, _ = shuffle_sum(ring, lam, codec, memo, ((a, 1),),
                                      ((b, 1),))
                columns.append({index[t]: c for t, c in prod.items()})
    return rows, columns


def compute_cokernel_basis(semigroup, weight, degree):
    """Smith diagnosis of the decomposables map in one degree, with a
    lifted complement basis.

    The map (_decomposables) is eliminated by unit pivots
    (_cokernel_classes), which give its elementary divisors and every
    word's class in the cokernel, whose free coordinates present Z^m
    modulo the saturation of the image, whatever the divisors are; it must
    be free, of rank the Lyndon count.  The complement is lifted greedily
    through plain words, largest in pro-length order first, each
    acceptance keeping the chosen set a direct summand, which does not
    depend on the basis the classes are written in.  The walk keeps each
    word's coordinates reduced by a unimodular T that takes the chosen
    words to unit upper triangular form; a word is accepted exactly when
    its reduced coordinates below the chosen rows have gcd 1, and Euclid
    row operations then extend the triangle by one column.  When the walk
    cannot finish, the complement is lifted from the cokernel's coordinate
    vectors by one Smith form of the k x m class matrix.
    """
    _require(degree >= 1, "the degree must be positive")
    weight = Fraction(weight)
    _require(weight.denominator == 1, "integral checks need integer weight")
    lam = int(weight)
    return _cokernel_basis(semigroup, lam, degree,
                           *_decomposables(semigroup, lam, degree))


def _cokernel_classes(m, columns):
    """The elementary divisors of the map with these columns on rows
    0..m-1, and a presentation of its cokernel: each row's class, a sparse
    {coordinate: int}, and each coordinate's modulus.  The first m - rank
    coordinates are free, of modulus 0, and present Z^m modulo the
    saturation of the image; each divisor d > 1 adds one of modulus d.

    A unit pivot (r, u, c) put u*e_r + sum c_i*e_i in the image, so
    class(e_r) = -u * sum c_i*class(e_i) on rows pivoted later or never:
    the classes are back-substituted in reverse pivot order.  A row that
    neither a pivot nor the residual holds is a free coordinate; the
    residual's rows take theirs from the rows of its own Smith transform
    past its rank, then from each row of divisor d > 1 (its image in dZ).
    """
    pivots, res_rows, residual = unit_pivot_elimination(columns)
    divisors = [1] * len(pivots)
    torsion, transform = [], []
    if residual.ncols:
        d, U, _ = residual.smith_normal_form()
        divisors += d
        torsion = [x for x in d if x > 1]
        transform = U.rows[len(d):] + [u for u, x in zip(U.rows, d) if x > 1]
    taken = set(res_rows).union(r for r, _, _ in pivots)
    free = [i for i in range(m) if i not in taken]
    classes = [{} for _ in range(m)]
    for k, i in enumerate(free):
        classes[i][k] = 1
    for k, row in enumerate(transform, len(free)):
        for i, x in zip(res_rows, row):
            if x:
                classes[i][k] = x
    for r, u, c in reversed(pivots):
        classes[r] = {k: -u * y for k, y in _class_of(classes, c).items()
                      if y}
    return divisors, classes, [0] * (m - len(divisors)) + torsion


def _unreachable(m, columns, q):
    """The rows i, ascending, whose e_i the columns do not span over Z/q
    (q = 0 over Z): whose class is not in q times the cokernel.  Entries
    are read as their least residues mod q, which keeps -1 a unit."""
    _, classes, moduli = _cokernel_classes(m, [
        {i: least_residue(x, q) for i, x in column.items()}
        for column in columns])
    gcds = [math.gcd(d, q) for d in moduli]
    return (i for i, cls in enumerate(classes)
            if any(x % gcds[k] if gcds[k] else x for k, x in cls.items()))


def _class_of(classes, vec):
    """The cokernel class of a sparse {row: int} vector."""
    out = {}
    for i, x in vec.items():
        for k, y in classes[i].items():
            out[k] = out.get(k, 0) + x * y
    return out


def _class_matrix(classes, k):
    """The k x m matrix of m words' free coordinates, column j word j's."""
    out = [[0] * len(classes) for _ in range(k)]
    for j, cls in enumerate(classes):
        for i, x in cls.items():
            if i < k:
                out[i][j] = x
    return out


def _greedy_words(rows, reduced):
    """The greedy complement walk over the words rows, on the rows of
    reduced, the words' cokernel coordinates (column j holds word j's;
    reduced is consumed).  Returns the chosen words and the determinant of
    their coordinates, or None when no complement of plain words is
    found."""
    chosen = []
    det = 1
    for j in reversed(range(len(rows))):
        t = len(chosen)
        if t == len(reduced):
            break
        if math.gcd(*[row[j] for row in reduced[t:]]) == 1:
            det *= _euclid_pivot(reduced, t, j)
            chosen.append(rows[j])
    return (chosen, det) if len(chosen) == len(reduced) else None


def _cokernel_basis(semigroup, lam, degree, rows, columns):
    """compute_cokernel_basis on the degree's decomposables map, given."""
    ring = Ring.integers()
    m = len(rows)
    divisors, classes, _ = _cokernel_classes(m, columns)
    coker_rank = m - len(divisors)
    lyndon_count = sum(1 for w in enumerate_lyndon(semigroup, degree)
                       if w.degree == degree)
    offending = [d for d in divisors if d != 1]
    walk = _greedy_words(rows, _class_matrix(classes, coker_rank))
    if walk is not None:
        method = "greedy-words"
        chosen_words, det = walk
        lifted = [TensorPoly.from_word(ring, lam, semigroup, w)
                  for w in chosen_words]
        names = [w.display(True) for w in chosen_words]
    else:
        # no complement of plain words: the class matrix is onto Z^k, so
        # V's first k columns (zip stops at them) times U lift the basis
        method = "transform-complement"
        _, U, V = Matrix._raw(ring, _class_matrix(classes, coker_rank),
                              coker_rank, m).smith_normal_form()
        lifted = [TensorPoly(ring, lam, semigroup, dict(zip(rows, [
            sum(a * b for a, b in zip(v, u)) for v in V.rows])))
            for u in zip(*U.rows)]
        names = ["c%d_%d" % (degree, i) for i in range(coker_rank)]
        det = 1
    diagnosis = {
        "degree": degree,
        "rows": m,
        "divisors": divisors,
        "offending": offending,
        "free": not offending,
        "coker_rank": coker_rank,
        "lyndon_count": lyndon_count,
        "rank_matches": coker_rank == lyndon_count,
        "method": method,
        # the walk's determinant is +-1, its sign set by the coordinates
        "complement_det": abs(det),
        "y_words": names,
    }
    return diagnosis, lifted


def _euclid_pivot(rows, t, j):
    """Row operations on rows[t:] that leave column j with +-1 in row t and
    0 below it, when those entries have gcd 1; returns the determinant of
    the operations times that pivot."""
    while True:
        p = min((i for i in range(t, len(rows)) if rows[i][j]),
                key=lambda i: abs(rows[i][j]))
        pivot = rows[p]
        done = True
        for i in range(t, len(rows)):
            if i != p and rows[i][j]:
                q = rows[i][j] // pivot[j]
                rows[i] = [a - q * b for a, b in zip(rows[i], pivot)]
                done = done and not rows[i][j]
        if done:
            break
    rows[t], rows[p] = rows[p], rows[t]
    return pivot[j] if p == t else -pivot[j]


def _cokernel_check(diag):
    ok = diag["free"] and diag["rank_matches"] \
        and diag["complement_det"] in (1, -1)
    return CheckRecord(
        "degree %d cokernel free of Lyndon rank" % diag["degree"], ok,
        "rank %d, method %s, det %d%s" % (
            diag["coker_rank"], diag["method"], diag["complement_det"],
            "" if diag["free"] else ", divisors %s" % diag["offending"]))


def _cokernel_family(semigroup, lam, degree_bound, report):
    """The lifted complement generators of every degree, over Z; each
    degree's cokernel check goes on the report."""
    gens = []
    for k in range(1, degree_bound + 1):
        diag, lifted = compute_cokernel_basis(semigroup, lam, k)
        report.checks.append(_cokernel_check(diag))
        for name, poly in zip(diag["y_words"], lifted):
            lead = poly.leading_term()[0]
            gens.append(GeneratorSymbol(name, poly, k, lead.length))
    return gens


def verify_z_polynomial(semigroup, weight, degree_bound):
    """Lifted complement monomials form a Z-basis in every degree."""
    _require_bounds(degree_bound)
    weight = Fraction(weight)
    _require(weight in (1, -1), "integral structure runs at weight 1 or -1")
    _require(semigroup.kind == "free_abelian",
             "this check runs over a free abelian semigroup")
    ring = Ring.integers()
    lam = int(weight)
    report = VerificationReport("intfr", ring, weight, semigroup,
                                {"degree": degree_bound})
    gens = _cokernel_family(semigroup, lam, degree_bound, report)
    algebra = PresentedAlgebra(ring, lam, semigroup, gens,
                               TensorPoly.unit(ring, lam, semigroup))
    rows = _tensor_rows(semigroup, degree_bound, None)
    report.cells.extend(_square_cells(
        ring, rows, algebra.monomials_by_degree(degree_bound)))
    return report


def verify_nested_summand(semigroups, weight, degree_bound):
    """Each complement lattice embeds as a direct summand of the next
    under an alphabet extension, degree by degree."""
    _require_bounds(degree_bound)
    weight = Fraction(weight)
    _require(weight in (1, -1), "integral structure runs at weight 1 or -1")
    _require(len(semigroups) >= 2, "need at least two nested alphabets")
    for s in semigroups:
        _require(s.kind == "free_abelian",
                 "nested checks run over free abelian semigroups")
    for small, big in zip(semigroups, semigroups[1:]):
        _require(tuple(small.generators) ==
                 tuple(big.generators)[:len(small.generators)],
                 "alphabets must extend by appending letters")
    ring = Ring.integers()
    lam = int(weight)
    report = VerificationReport("intfr-nested", ring, weight, semigroups[-1],
                                {"degree": degree_bound,
                                 "chain": len(semigroups)})
    # every alphabet's map per degree, once; bases of all but the last
    maps = [[_decomposables(s, lam, n) for n in range(1, degree_bound + 1)]
            for s in semigroups]
    bases = [[_cokernel_basis(s, lam, n, *m)[1] for n, m in enumerate(ms, 1)]
             for s, ms in zip(semigroups[:-1], maps)]
    for step, (small, big) in enumerate(zip(semigroups, semigroups[1:])):
        pad = _embedding(small, big, lambda key, n=len(big.generators):
                         key + (0,) * (n - len(key)))
        for n in range(1, degree_bound + 1):
            rows, columns = maps[step + 1][n - 1]
            index = {w.codes: i for i, w in enumerate(rows)}
            lifts = [{index[pad(t)]: c for t, c in poly.code_terms.items()}
                     for poly in bases[step][n - 1]]
            # past r, the same cokernel: torsion relations and lifts' classes
            divisors, classes, moduli = _cokernel_classes(len(rows), columns)
            r = len(divisors)
            torsion = [{k: x} for k, x in enumerate(moduli) if x]
            d = elementary_divisors(torsion + [
                _class_of(classes, lift) for lift in lifts])[len(torsion):]
            ok = len(d) == len(lifts) and all(x == 1 for x in d)
            report.cells.append(CellRecord(
                n, len(rows) - r, len(lifts), len(d), ok,
                "chain step %d" % (step + 1) if ok
                else "divisors %s" % (d,)))
    return report


# ---------------------------------------------------------------------------
# Rota-Baxter structure


def _unitarized_free(alphabet):
    return Unitarized(FreeAbelian(list(alphabet)))


def _inner_lift(monoid, semigroup):
    """Code strings over semigroup into the monoid: x -> ("e", x) when
    semigroup is the monoid's inner alphabet, else unchanged."""
    if semigroup == monoid:
        return lambda codes: codes
    return _embedding(semigroup, monoid, lambda key: ("e", key))


def _rb_rows(monoid, tail_semigroup, degree_bound, length_bound=None):
    """The code keys of the pure tensors of each degree, head by head:
    the head's character in front of a tail, a word over tail_semigroup
    lifted into the monoid when that is its inner alphabet."""
    lift = _inner_lift(monoid, tail_semigroup)
    rows = {n: [] for n in range(degree_bound + 1)}
    for head in monoid.elements_up_to(degree_bound):
        h = chr(head.code)
        for n in range(head.degree, degree_bound + 1):
            rows[n].extend(
                h + lift(tail.codes) for tail in graded_basis(
                    tail_semigroup, n - head.degree, length_bound))
    return rows


def _head_symbols(ring, lam, semigroup):
    """One generator per alphabet letter, as a bare head tensor."""
    out = []
    for x in alphabet_generators(semigroup):
        image = RBElement.from_parts(ring, lam, semigroup, x, empty_word())
        out.append(GeneratorSymbol(x.name, image, x.degree, 0))
    return out


def _tails(ring, lam, monoid, gens):
    """The Rota-Baxter tails 1 (x) g of shuffle generators g.

    An image's code terms gain the identity's character in front, with
    their words lifted into the monoid when they are over its inner
    alphabet; the lift is injective, so the numerators and denominator
    stay as they are.  Names are bracketed unless they already are,
    degrees gain the identity's degree, and cap and relation are kept.
    """
    ident = monoid.identity
    e = chr(ident.code)
    out = []
    for g in gens:
        image = g.image
        lift = _inner_lift(monoid, image.semigroup)
        terms = {e + lift(t): x for t, x in image.code_terms.items()}
        name = g.name if g.name.startswith("[") else "[%s]" % g.name
        out.append(GeneratorSymbol(
            name, RBElement._canonical(ring, image.lam, monoid, terms,
                                       image.den),
            ident.degree + g.degree, g.lead_length, g.cap, g.relation))
    return out


def _verify_rbl(alphabet, weight, degree_bound, length_bound):
    ring = Ring.rationals()
    lam = ring.of(Fraction(weight))
    monoid = _unitarized_free(alphabet)
    report = VerificationReport("rbl", ring, weight, monoid,
                                {"degree": degree_bound,
                                 "length": length_bound})
    gens = _head_symbols(ring, lam, monoid) + _tails(
        ring, lam, monoid,
        _lyndon_family(ring, lam, monoid, degree_bound, length_bound))
    algebra = PresentedAlgebra(ring, lam, monoid, gens,
                               RBElement.one(ring, lam, monoid),
                               length_bound)
    rows = _rb_rows(monoid, monoid, degree_bound, length_bound)
    _filtered_cells(report, ring, rows,
                    algebra.monomials_by_degree(degree_bound))
    return report


def _verify_rbazp(alphabet, p, precision, weight, degree_bound):
    _require_prime(p)
    _require(precision >= 1, "precision must be positive")
    w = _int_weight(weight, p)
    ring = Ring.truncated_padic(p, precision)
    lam = ring.of(w)
    monoid = _unitarized_free(alphabet)
    free = monoid.inner
    report = VerificationReport("rbazp", ring, weight, monoid,
                                {"degree": degree_bound, "p": p,
                                 "precision": precision})
    sets = standard_generating_sets(free, p, degree_bound)
    gens = _head_symbols(ring, lam, monoid) + _tails(
        ring, lam, monoid, _tel_family(ring, lam, free, sets))
    algebra = PresentedAlgebra(ring, lam, monoid, gens,
                               RBElement.one(ring, lam, monoid))
    rows = _rb_rows(monoid, free, degree_bound)
    buckets = algebra.monomials_by_degree(degree_bound)
    for n in range(degree_bound + 1):
        keys = rows[n]
        cols = buckets.get(n, [])
        inside, note = _ranked(_ranks(keys), cols)
        rank = 0
        if note is None:
            rank, _ = _cell_rank(ring, [vec for _, _, vec in inside])
            if rank != len(cols):
                note = "dependent monomials mod %d" % p
        report.cells.append(CellRecord(n, len(keys), len(cols), rank,
                                       note is None, note))
        report.checks.append(CheckRecord(
            "degree %d monomial count fills the identity-free sector" % n,
            len(cols) == len(keys), "%d" % len(cols)))
    return report


def _verify_rbaz(alphabet, weight, degree_bound, length_bound):
    weight = Fraction(weight)
    _require(weight in (1, -1), "integral structure runs at weight 1 or -1")
    ring = Ring.integers()
    lam = int(weight)
    monoid = _unitarized_free(alphabet)
    free = monoid.inner
    report = VerificationReport("rbaz", ring, weight, monoid,
                                {"degree": degree_bound,
                                 "length": length_bound})
    gens = _head_symbols(ring, lam, monoid) + _tails(
        ring, lam, monoid, _cokernel_family(free, lam, degree_bound, report))
    algebra = PresentedAlgebra(ring, lam, monoid, gens,
                               RBElement.one(ring, lam, monoid))
    buckets = algebra.monomials_by_degree(degree_bound)
    rows_by_degree = _rb_rows(monoid, free, degree_bound)
    cols_by_degree = {}
    ident = chr(monoid.identity.code)
    for n in range(degree_bound + 1):
        cols = list(buckets.get(n, []))
        for head in monoid.elements_up_to(n):
            for tail in graded_basis(monoid, n - head.degree, length_bound):
                if ident in tail.codes:
                    key = chr(head.code) + tail.codes
                    rows_by_degree[n].append(key)
                    cols.append(("N:%s(x)%s" % (head.name, tail.display(True)),
                                 RBElement._canonical(ring, lam, monoid,
                                                      {key: 1}, 1)))
        cols_by_degree[n] = cols
    report.cells.extend(_square_cells(ring, rows_by_degree, cols_by_degree))
    return report


def _p_idempotent_heads(p, count):
    """count slots of the unitarized cyclic group of order p-1, folded
    into one product; each slot generator x satisfies x^p = x and the
    monomials x^a with a < p enumerate all p^count head elements, which
    realizes truncated polynomials with p-idempotent variables."""
    factors = []
    for _ in range(count):
        table, names = cyclic_group_table(p - 1)
        factors.append(Unitarized(FiniteTableSemigroup(table, names=names)))
    folded = factors[0]
    for s in factors[1:]:
        folded = ProductSemigroup(folded, s)
    ident_keys = [s.identity_key for s in factors]
    generators = []
    for i in range(count):
        keys = list(ident_keys)
        keys[i] = ("e", 0)
        key = keys[0]
        for k in keys[1:]:
            key = (key, k)
        generators.append(key)
    return folded, [Element(folded, k) for k in generators]


def _head_cover_check(semigroup, heads, p):
    """The head monomials with exponents below p hit every element."""
    seen = set()
    for exps in itertools.product(range(p), repeat=len(heads)):
        el = semigroup.identity
        for x, a in zip(heads, exps):
            for _ in range(a):
                el = el * x
        seen.add(el.key)
    total = len(semigroup.elements_up_to(len(heads)))
    ok = len(seen) == p ** len(heads) == total
    return CheckRecord("head monomials enumerate the coefficient algebra",
                       ok, "%d elements" % len(seen))


def _rbafp_case(case, alphabet, p, weight, degree_bound, length_bound):
    _require_prime(p)
    ring = Ring.prime_field(p)
    names = list(alphabet)
    if case == 1:
        lam = ring.zero
        _require(Fraction(weight) == 0, "case 1 runs at weight zero")
    else:
        lam = ring.of(Fraction(weight))
        _require(lam != 0, "cases 2-4 need a weight that is a unit mod p")
    checks = []
    head_gens = []
    head_elements = None
    if case in (1, 2):
        semigroup = _unitarized_free(names)
        head_gens = _head_symbols(ring, lam, semigroup)
    elif case == 3:
        semigroup, embedded = _p_idempotent_heads(p, len(names))
        head_elements = embedded
        tags = semigroup.classify(p, 4)
        checks.append(CheckRecord("heads are p-idempotent",
                                  "p-idempotent" in tags,
                                  str(sorted(tags))))
        for name, el in zip(names, embedded):
            image = RBElement.from_parts(ring, lam, semigroup, el,
                                         empty_word())
            checks.append(CheckRecord(
                "head %s has p-th power itself" % name,
                image.power(p) == image))
        checks.append(_head_cover_check(semigroup, embedded, p))
    else:
        semigroup = ElementaryPGroup(p, len(names))
        tags = semigroup.classify(p, 4)
        checks.append(CheckRecord("heads form an elementary p-group",
                                  "elementary-p-group" in tags,
                                  str(sorted(tags))))
        unit = RBElement.one(ring, lam, semigroup)
        head_elements = []
        for i, name in enumerate(names):
            key = tuple(1 if j == i else 0 for j in range(len(names)))
            el = Element(semigroup, key)
            head_elements.append(el)
            image = RBElement.from_parts(ring, lam, semigroup, el,
                                         empty_word())
            checks.append(CheckRecord(
                "head %s has p-th power the unit" % name,
                image.power(p) == unit))
        checks.append(_head_cover_check(semigroup, head_elements, p))
    report = VerificationReport("rbafp%d" % case, ring, weight, semigroup,
                                {"degree": degree_bound,
                                 "length": length_bound, "p": p})
    report.checks.extend(checks)
    if case == 1:
        family = _nilpotent_family(ring, lam, semigroup, p, degree_bound,
                                   length_bound)
    else:
        sets = standard_generating_sets(semigroup, p, degree_bound,
                                        length_bound)
        if case == 4:
            family = _power_split_family(ring, lam, semigroup, p, sets)
        else:
            family = _power_order_family(ring, lam, semigroup, p, sets)
        if case == 2:
            report.checks.append(_unit_power_family_check(
                semigroup, sets["tel1"], p, degree_bound, length_bound))
        elif case == 3:
            report.checks.append(CheckRecord(
                "every tail generator is fixed", not sets["tl2"]))
    tail_gens = _tails(ring, lam, semigroup, family)
    unit = RBElement.one(ring, lam, semigroup)
    if head_elements is None:
        algebra = PresentedAlgebra(ring, lam, semigroup,
                                   head_gens + tail_gens, unit,
                                   length_bound)
        cols = algebra.monomials_by_degree(degree_bound)
        relation_algebra = algebra
    else:
        # the head algebra is filtered, not graded: head generator powers
        # collapse inside the group, so monomials are enumerated by bare
        # head element and each column lands at its true degree
        tail_algebra = PresentedAlgebra(ring, lam, semigroup, tail_gens,
                                        unit, length_bound)
        tail_buckets = tail_algebra.monomials_by_degree(degree_bound)
        cols = {n: [] for n in range(degree_bound + 1)}
        for head in semigroup.elements_up_to(degree_bound):
            bare = RBElement.from_parts(ring, lam, semigroup, head,
                                        empty_word())
            for d in range(degree_bound - head.degree + 1):
                for name, mono in tail_buckets.get(d, []):
                    label = head.name if name == "1" \
                        else "%s*%s" % (head.name, name)
                    cols[head.degree + d].append(
                        (label, tail_algebra.multiply(bare, mono)))
        relation_algebra = tail_algebra
    rows = _rb_rows(semigroup, semigroup, degree_bound, length_bound)
    _filtered_cells(report, ring, rows, cols)
    report.checks.extend(check_relations(relation_algebra,
                                         _relation_length_cap(p)))
    return report


def verify_rb_structure(theorem, alphabet=("x",), weight=1, p=None,
                        precision=None, degree_bound=3, length_bound=3):
    """Dispatch the free Rota-Baxter structure checks.

    theorem: rbl (rational polynomial generators), rbafp1..rbafp4 (the
    four mod-p presentations), rbazp (p-adic independence at finite
    precision), rbaz (integral direct sum split).
    """
    _require_bounds(degree_bound, length_bound)
    _require(len(alphabet) >= 1, "need at least one alphabet letter")
    if theorem == "rbl":
        return _verify_rbl(alphabet, weight, degree_bound, length_bound)
    if theorem == "rbazp":
        _require(p is not None, "rbazp needs p")
        return _verify_rbazp(alphabet, p,
                             4 if precision is None else precision, weight,
                             degree_bound)
    if theorem == "rbaz":
        return _verify_rbaz(alphabet, weight, degree_bound, length_bound)
    if theorem in ("rbafp1", "rbafp2", "rbafp3", "rbafp4"):
        _require(p is not None, "%s needs p" % theorem)
        case = int(theorem[-1])
        return _rbafp_case(case, alphabet, p, weight, degree_bound,
                           length_bound)
    raise ConfigurationError("unknown Rota-Baxter theorem %r" % theorem)


# ---------------------------------------------------------------------------
# semigroup properties


def verify_semigroup_props(semigroup, p, degree_bound, length_bound=None):
    """The word-family identities behind the mod-p structure theorems."""
    _require_bounds(degree_bound, length_bound)
    _require_prime(p)
    ring = Ring.prime_field(p)
    report = VerificationReport("props", ring, 0, semigroup,
                                {"degree": degree_bound,
                                 "length": length_bound, "p": p})
    tags = semigroup.classify(p, max(4, degree_bound))
    report.checks.append(CheckRecord("classification", True,
                                     str(sorted(tags))))
    fixed, moved = semigroup.split_p_fixed(p, degree_bound)
    report.checks.append(CheckRecord(
        "p-power split sizes", True,
        "fixed %d, moved %d" % (len(fixed), len(moved))))
    if "power-order" in tags or "power-split" in tags:
        divisible = semigroup.p_divisible(p, degree_bound)
        report.checks.append(CheckRecord(
            "infinitely p-divisible window equals the fixed part",
            sorted(divisible) == sorted(fixed)))
    if semigroup.kind == "ordered_set":
        report.checks.append(CheckRecord(
            "zero multiplication: no power families", True))
        return report
    sets = standard_generating_sets(semigroup, p, degree_bound, length_bound)
    report.checks.append(CheckRecord(
        "fixed tensor families agree", sets["tl1"] == sets["tel1"]))
    fixed_letters = set(fixed)
    expected_l1 = [w for w in sets["lyn"]
                   if all(l in fixed_letters for l in w.letters)]
    report.checks.append(CheckRecord(
        "fixed Lyndon words are those over fixed letters",
        sorted(w.codes for w in sets["l1"]) ==
        sorted(w.codes for w in expected_l1)))
    if semigroup.kind == "unitarize" \
            and semigroup.inner.kind == "free_abelian":
        report.checks.append(_unit_power_family_check(
            semigroup, sets["tel1"], p, degree_bound, length_bound))
    report.checks.append(_orbit_check(sets, p, degree_bound, length_bound))
    return report

"""Exact coefficient rings and exact linear algebra.

Four coefficient rings are supported: the rationals, the integers, prime
fields, and truncated p-adic rings Z/p^N (a finite stand-in for the p-adic
integers at working precision N).  Values are kept in canonical form as
plain ints or Fractions; a Ring object does the arithmetic, so nothing
here ever touches floating point.

The linear algebra is exact as well: fraction-free determinants, row
reduction over the two fields, Smith normal form over the integers
(elementary divisors alone by unit-pivot sparse elimination, with the
dense form only on what is left), and linear solving over every ring,
over Z and Z/p^N by one Smith form over Z and a gcd rule (_ZSolver),
which the tests take as their oracle.
"""

from fractions import Fraction
import json
import math

Q = "Q"
Z = "Z"
FP = "Fp"
ZP = "Zp"


class Ring:
    """A coefficient ring tag plus arithmetic on canonical raw values.

    Canonical values: Fraction for Q, int for Z, int in [0, p) for Fp,
    int in [0, p^N) for Zp.
    """

    __slots__ = ("kind", "p", "precision", "modulus")

    def __init__(self, kind, p=None, precision=None):
        if kind not in (Q, Z, FP, ZP):
            raise ValueError("unknown ring kind: %r" % (kind,))
        if kind in (FP, ZP):
            if p is None or p < 2 or not _is_prime(p):
                raise ValueError("ring %s needs a prime p, got %r" % (kind, p))
        if kind == ZP:
            if precision is None or precision < 1:
                raise ValueError("ring Zp needs precision >= 1")
        self.kind = kind
        self.p = p
        self.precision = precision if kind == ZP else None
        if kind == FP:
            self.modulus = p
        elif kind == ZP:
            self.modulus = p ** precision
        else:
            self.modulus = None

    # constructors

    @staticmethod
    def rationals():
        return Ring(Q)

    @staticmethod
    def integers():
        return Ring(Z)

    @staticmethod
    def prime_field(p):
        return Ring(FP, p=p)

    @staticmethod
    def truncated_padic(p, precision):
        return Ring(ZP, p=p, precision=precision)

    # canonicalization

    def of(self, x):
        """Coerce x (int, Fraction, or string) to canonical form."""
        if isinstance(x, str):
            return self.parse(x)
        if isinstance(x, Fraction):
            if self.kind == Q:
                return x
            if x.denominator == 1:
                return self.of(int(x))
            if self.modulus is not None:
                if not self.is_unit(x.denominator):
                    raise ValueError("%s is not in ring %r: its denominator "
                                     "is not a unit" % (x, self))
                den = self.inverse(x.denominator % self.modulus)
                return (x.numerator * den) % self.modulus
            raise ValueError("non-integer value %s in ring %s" % (x, self.kind))
        if isinstance(x, bool) or not isinstance(x, int):
            raise TypeError("cannot coerce %r into ring %s" % (x, self.kind))
        if self.kind == Q:
            return Fraction(x)
        if self.modulus is not None:
            return x % self.modulus
        return x

    def parse(self, s):
        s = s.strip()
        if "/" in s:
            num, den = s.split("/", 1)
            return self.of(Fraction(int(num), int(den)))
        return self.of(int(s))

    def format(self, v):
        return str(v)

    @property
    def zero(self):
        return Fraction(0) if self.kind == Q else 0

    @property
    def one(self):
        return Fraction(1) if self.kind == Q else 1

    # arithmetic on canonical values

    def add(self, a, b):
        if self.modulus is not None:
            return (a + b) % self.modulus
        return a + b

    def sub(self, a, b):
        if self.modulus is not None:
            return (a - b) % self.modulus
        return a - b

    def neg(self, a):
        if self.modulus is not None:
            return (-a) % self.modulus
        return -a

    def mul(self, a, b):
        if self.modulus is not None:
            return (a * b) % self.modulus
        return a * b

    def pow_(self, a, e):
        if e < 0:
            return self.pow_(self.inverse(a), -e)
        if self.modulus is not None:
            return pow(a, e, self.modulus)
        return a ** e

    def is_zero(self, a):
        return a == 0

    def is_unit(self, a):
        if self.kind == Q:
            return a != 0
        if self.kind == Z:
            return a in (1, -1)
        return a % self.p != 0

    def inverse(self, a):
        """Multiplicative inverse; raises ZeroDivisionError when a is not a unit."""
        if self.kind == Q:
            if a == 0:
                raise ZeroDivisionError("inverse of 0")
            return Fraction(1) / a
        if self.kind == Z:
            if a in (1, -1):
                return a
            raise ZeroDivisionError("%d is not a unit in Z" % a)
        if not self.is_unit(a):
            raise ZeroDivisionError("%d is not a unit in %r" % (a, self))
        return pow(a, -1, self.modulus)

    def divide(self, a, b):
        """Exact division a / b; raises when the quotient leaves the ring."""
        if self.kind == Z:
            if b == 0:
                raise ZeroDivisionError("division by 0")
            q, r = divmod(a, b)
            if r != 0:
                raise ZeroDivisionError("%d does not divide %d in Z" % (b, a))
            return q
        return self.mul(a, self.inverse(b))

    @property
    def is_field(self):
        return self.kind in (Q, FP)

    # serialization

    def to_json(self):
        if self.kind == Q:
            return {"kind": "rationals"}
        if self.kind == Z:
            return {"kind": "integers"}
        if self.kind == FP:
            return {"kind": "prime_field", "p": self.p}
        return {"kind": "truncated_padic", "p": self.p, "precision": self.precision}

    @staticmethod
    def from_json(data):
        if isinstance(data, str):
            data = json.loads(data)
        kind = data["kind"]
        if kind == "rationals":
            return Ring.rationals()
        if kind == "integers":
            return Ring.integers()
        if kind == "prime_field":
            return Ring.prime_field(data["p"])
        if kind == "truncated_padic":
            return Ring.truncated_padic(data["p"], data["precision"])
        raise ValueError("unknown ring kind %r" % kind)

    def __eq__(self, other):
        return (isinstance(other, Ring) and self.kind == other.kind
                and self.p == other.p and self.precision == other.precision)

    def __hash__(self):
        return hash((self.kind, self.p, self.precision))

    def __repr__(self):
        if self.kind == FP:
            return "F%d" % self.p
        if self.kind == ZP:
            return "Z/%d^%d" % (self.p, self.precision)
        return self.kind


# p-adic utilities


# Miller-Rabin with the first 13 prime bases decides primality for every
# n below this bound (Sorenson and Webster, Math. Comp. 86 (2017))
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3317044064679887385961981


def _is_prime(n):
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    if n >= _MR_LIMIT:
        d = _MR_BASES[-1] + 2
        while d * d <= n:
            if n % d == 0:
                return False
            d += 2
        return True
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def p_adic_valuation(n, p):
    if n == 0:
        raise ValueError("valuation of 0 is infinite")
    v = 0
    n = abs(n)
    while n % p == 0:
        n //= p
        v += 1
    return v


def is_p_adic_unit(n, p):
    return n != 0 and n % p != 0


def least_residue(x, q):
    """x mod q of least absolute value, in [-q/2, q/2] (x itself when
    q = 0), so that the Smith pivot rule sees -1 as a unit, not q - 1."""
    if not q:
        return x
    h = q // 2
    return (x + h) % q - h


def base_p_digits(n, p):
    """Digits of n in base p, least significant first.  base_p_digits(0) == []."""
    digits = []
    while n:
        n, r = divmod(n, p)
        digits.append(r)
    return digits


def base_power_multinomial(n, p):
    """n! / prod_j (p^j !)^{a_j} where n = sum_j a_j p^j in base p.

    The multinomial coefficient of n things split into blocks whose sizes
    are the base-p power parts of n.  Always a p-adic unit, which the
    leading-term analysis of p-th shuffle powers relies on.
    """
    num = math.factorial(n)
    den = 1
    for j, a in enumerate(base_p_digits(n, p)):
        if a:
            den *= math.factorial(p ** j) ** a
    q, r = divmod(num, den)
    if r != 0:
        raise ArithmeticError("multinomial is not integral, n=%d p=%d" % (n, p))
    return q


# matrices


class Matrix:
    """Dense matrix over a Ring, stored as raw canonical values."""

    __slots__ = ("ring", "nrows", "ncols", "rows")

    def __init__(self, ring, rows, nrows=None, ncols=None):
        self.ring = ring
        self.rows = [[ring.of(x) for x in row] for row in rows]
        self.nrows = len(self.rows) if nrows is None else nrows
        self.ncols = (len(self.rows[0]) if self.rows else 0) if ncols is None else ncols
        for row in self.rows:
            if len(row) != self.ncols:
                raise ValueError("ragged rows")

    @classmethod
    def _raw(cls, ring, rows, nrows, ncols):
        # rows already hold canonical values: skip the per-entry coercion
        self = object.__new__(cls)
        self.ring = ring
        self.rows = rows
        self.nrows = nrows
        self.ncols = ncols
        return self

    def mul(self, other):
        if self.ring != other.ring:
            raise ValueError("mixed-ring matrix product")
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch")
        R = self.ring
        out = []
        for i in range(self.nrows):
            row = []
            arow = self.rows[i]
            for j in range(other.ncols):
                acc = R.zero
                for k in range(self.ncols):
                    if arow[k] != 0:
                        acc = R.add(acc, R.mul(arow[k], other.rows[k][j]))
                row.append(acc)
            out.append(row)
        return Matrix(R, out, nrows=self.nrows, ncols=other.ncols)

    def apply_vector(self, v):
        R = self.ring
        out = []
        for i in range(self.nrows):
            acc = R.zero
            row = self.rows[i]
            for j in range(self.ncols):
                if v[j] != 0 and row[j] != 0:
                    acc = R.add(acc, R.mul(row[j], v[j]))
            out.append(acc)
        return out

    def __repr__(self):
        return "Matrix(%r, %dx%d)" % (self.ring, self.nrows, self.ncols)

    # determinants

    def det_bareiss(self):
        """Fraction-free determinant (Bareiss) for square matrices over Z or Q."""
        if self.nrows != self.ncols:
            raise ValueError("determinant of non-square matrix")
        n = self.nrows
        if n == 0:
            return self.ring.one
        a = [row[:] for row in self.rows]
        sign = 1
        prev = 1
        for k in range(n - 1):
            if a[k][k] == 0:
                for i in range(k + 1, n):
                    if a[i][k] != 0:
                        a[k], a[i] = a[i], a[k]
                        sign = -sign
                        break
                else:
                    return self.ring.zero
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    num = a[k][k] * a[i][j] - a[i][k] * a[k][j]
                    if self.ring.kind == Z:
                        a[i][j] = num // prev
                    else:
                        a[i][j] = num / prev
                a[i][k] = self.ring.zero
            prev = a[k][k]
        return self.ring.of(sign) * a[n - 1][n - 1] if self.ring.kind == Q \
            else self.ring.of(sign * a[n - 1][n - 1])

    # row reduction over a field

    def row_reduce(self):
        """Reduced row echelon form over Q or Fp.

        Returns (rank, pivot_columns, kernel_basis, rref_rows).  Pivots are
        chosen deterministically: leftmost column first, topmost usable row.
        Kernel vectors are indexed by the free columns.
        """
        R = self.ring
        if not R.is_field:
            raise ValueError("row_reduce needs a field, got %r" % R)
        a = [row[:] for row in self.rows]
        m, n = self.nrows, self.ncols
        pivots = []
        r = 0
        for col in range(n):
            piv = None
            for i in range(r, m):
                if a[i][col] != 0:
                    piv = i
                    break
            if piv is None:
                continue
            a[r], a[piv] = a[piv], a[r]
            inv = R.inverse(a[r][col])
            if a[r][col] != R.one:
                a[r] = [R.mul(inv, x) for x in a[r]]
            for i in range(m):
                if i != r and a[i][col] != 0:
                    f = a[i][col]
                    a[i] = [R.sub(a[i][j], R.mul(f, a[r][j])) for j in range(n)]
            pivots.append(col)
            r += 1
            if r == m:
                break
        free = [j for j in range(n) if j not in pivots]
        kernel = []
        for fcol in free:
            v = [R.zero] * n
            v[fcol] = R.one
            for i, pcol in enumerate(pivots):
                v[pcol] = R.neg(a[i][fcol])
            kernel.append(v)
        return r, tuple(pivots), kernel, a

    # Smith normal form over Z

    def smith_normal_form(self):
        """Smith normal form over Z.

        Returns (D, U, V) with U * self * V = diag(D) (padded with zeros to
        this matrix's shape), U and V unimodular, and D the nonzero
        elementary divisors: all positive, each dividing the next.  Pivots
        are chosen by smallest absolute value, which keeps the intermediate
        entries from exploding at these sizes.
        """
        if self.ring.kind != Z:
            raise ValueError("smith_normal_form is defined over Z")
        m, n = self.nrows, self.ncols
        a = [row[:] for row in self.rows]
        u = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
        v = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

        def row_sub(i, k, q):
            # row i -= q * row k
            a[i] = [x - q * y for x, y in zip(a[i], a[k])]
            u[i] = [x - q * y for x, y in zip(u[i], u[k])]

        def col_sub(j, k, q):
            for row in a:
                row[j] -= q * row[k]
            for row in v:
                row[j] -= q * row[k]

        def row_swap(i, k):
            a[i], a[k] = a[k], a[i]
            u[i], u[k] = u[k], u[i]

        def col_swap(j, k):
            for row in a:
                row[j], row[k] = row[k], row[j]
            for row in v:
                row[j], row[k] = row[k], row[j]

        def pivot_position(t):
            # the first entry of least absolute value in row-major order;
            # no entry beats a unit, so the scan stops at the first one
            best = None
            for i in range(t, m):
                for j in range(t, n):
                    x = a[i][j]
                    if x != 0 and (best is None or abs(x) < abs(a[best[0]][best[1]])):
                        best = (i, j)
                        if x == 1 or x == -1:
                            return best
            return best

        t = 0
        while True:
            pos = pivot_position(t)
            if pos is None:
                break
            row_swap(t, pos[0])
            col_swap(t, pos[1])
            while True:
                # clear column t, restarting if a smaller remainder shows up
                moved = False
                for i in range(t + 1, m):
                    if a[i][t] != 0:
                        q = a[i][t] // a[t][t]
                        row_sub(i, t, q)
                        if a[i][t] != 0:
                            row_swap(t, i)
                            moved = True
                if moved:
                    continue
                for j in range(t + 1, n):
                    if a[t][j] != 0:
                        q = a[t][j] // a[t][t]
                        col_sub(j, t, q)
                        if a[t][j] != 0:
                            col_swap(t, j)
                            moved = True
                if not moved:
                    break
            # divisibility: the pivot must divide everything to the south-east
            fixed = True
            d = a[t][t]
            for i in range(t + 1, m):
                for j in range(t + 1, n):
                    if a[i][j] % d != 0:
                        # fold row i into row t and redo this pivot
                        row_sub(t, i, -1)
                        fixed = False
                        break
                if not fixed:
                    break
            if not fixed:
                continue
            if a[t][t] < 0:
                a[t] = [-x for x in a[t]]
                u[t] = [-x for x in u[t]]
            t += 1
            if t == min(m, n):
                break
        D = [a[i][i] for i in range(min(m, n)) if a[i][i] != 0]
        return D, Matrix._raw(self.ring, u, m, m), Matrix._raw(self.ring, v, n, n)

    # solving

    def solve(self, b):
        """One solution x of self * x = b, or None when none exists.

        Over Q and Fp this is elimination; over Z and Z/p^N it reads the
        Smith normal form of the matrix over Z (_ZSolver).
        """
        R = self.ring
        if len(b) != self.nrows:
            raise ValueError("length mismatch")
        b = [R.of(x) for x in b]
        if R.is_field:
            return self._solve_field(b)
        return _ZSolver(self).solve(b)

    def _solve_field(self, b):
        R = self.ring
        m, n = self.nrows, self.ncols
        aug = Matrix(R, [self.rows[i] + [b[i]] for i in range(m)],
                     nrows=m, ncols=n + 1)
        rank, pivots, _, rref = aug.row_reduce()
        if n in pivots:
            return None
        x = [R.zero] * n
        for i, col in enumerate(pivots):
            x[col] = rref[i][n]
        return x

class _ZSolver:
    """Solve A*x = b over Z or Z/q, q = p^N, for many b from one Smith
    normal form U*A*V = D of A over Z (entries mod q read as their least
    residues, so that the pivots stay small).  With c = U*b, the diagonal
    equation d*y = c mod q is solvable exactly when gcd(d, q) divides c,
    where q = 0 over Z and d = 0 past the rank.
    """

    def __init__(self, matrix):
        q = self.modulus = matrix.ring.modulus or 0
        self.D, self.U, self.V = Matrix._raw(
            Ring.integers(), [[least_residue(x, q) for x in row]
                              for row in matrix.rows],
            matrix.nrows, matrix.ncols).smith_normal_form()

    def solve(self, b):
        """One solution x in canonical form, or None when none exists."""
        q = self.modulus
        y = [0] * self.V.nrows
        for i, c in enumerate(self.U.apply_vector(b)):
            d = self.D[i] if i < len(self.D) else 0
            g = math.gcd(d, q)
            if c % g if g else c:
                return None
            if d:
                # d/g is a unit mod q/g; over Z, g = d
                y[i] = c // g * pow(d // g, -1, q // g) if q else c // g
        x = self.V.apply_vector(y)
        return [xi % q for xi in x] if q else x


def unit_pivot_elimination(columns):
    """Pivot away the entries +-1 of a matrix over Z given by columns.

    Each column is a sparse dict from a row key (any hashable) to int.
    Among the unit entries the one whose row and column have the fewest
    other entries (Markowitz cost) goes first, which keeps the fill-in
    small.  A pivot at row r with unit u clears row r by column
    operations; what is left of its column, u*e_r + sum c_i*e_i, lies in
    the image and is cleared by row operations that touch nothing else.

    Returns (pivots, rows, residual): pivots lists (r, u, {i: c_i}) in
    pivot order, each c_i on a row no earlier pivot took; residual is the
    Schur complement left when no unit entry remains, a dense Matrix over
    Z on the row keys rows, one column per column still nonzero.
    """
    cols = {}
    row_cols = {}
    for j, column in enumerate(columns):
        column = {i: x for i, x in column.items() if x}
        if column:
            cols[j] = column
            for i in column:
                row_cols.setdefault(i, set()).add(j)
    pivots = []
    while True:
        best = None
        for j, column in cols.items():
            others = len(column) - 1
            for i, x in column.items():
                if x == 1 or x == -1:
                    cost = others * (len(row_cols[i]) - 1)
                    if best is None or cost < best[0]:
                        best = (cost, i, j)
            if best is not None and best[0] == 0:
                break
        if best is None:
            break
        _, r, j = best
        pivot = cols.pop(j)
        u = pivot.pop(r)
        for i in pivot:
            row_cols[i].discard(j)
        hit = row_cols.pop(r)
        hit.discard(j)
        for k in hit:
            column = cols[k]
            f = column.pop(r) * u
            for i, x in pivot.items():
                v = column.get(i, 0) - f * x
                if v:
                    if i not in column:
                        row_cols[i].add(k)
                    column[i] = v
                else:
                    del column[i]
                    row_cols[i].discard(k)
            if not column:
                del cols[k]
        pivots.append((r, u, pivot))
    rows = [i for i, js in row_cols.items() if js]
    residual = Matrix._raw(Ring.integers(),
                           [[cols[j].get(i, 0) for j in cols] for i in rows],
                           len(rows), len(cols))
    return pivots, rows, residual


def elementary_divisors(columns):
    """The nonzero elementary divisors over Z of a matrix given by columns,
    sparse dicts from a row key to int.

    The result equals the D of Matrix.smith_normal_form on the same
    matrix.  Each unit pivot of unit_pivot_elimination adds a divisor 1;
    only the residual it leaves is handed to the dense Smith normal form.
    """
    pivots, _, residual = unit_pivot_elimination(columns)
    divisors = [1] * len(pivots)
    if residual.ncols:
        divisors.extend(residual.smith_normal_form()[0])
    return divisors


def _subtract(target, row, f, mod):
    """target -= f * row on sparse vectors over a field, reduced mod `mod`
    when it is not None; entries that vanish are dropped."""
    get = target.get
    for k, v in row.items():
        nv = get(k, 0) - f * v
        if mod is not None:
            nv %= mod
        if nv:
            target[k] = nv
        else:
            del target[k]


class SparseEliminator:
    """Incremental Gaussian elimination over a field, on sparse vectors.

    Vectors are dicts mapping keys to nonzero field values.  The leading
    key of a vector is its largest one in the keys' own order (integer
    keys compare fastest).
    Over a prime field entries may be any ints: they are reduced mod p as
    they come in, and the elimination reduces inline.  Supports rank
    queries, membership of a vector in the accumulated span, and optional
    tracking of the expressing combination.
    """

    def __init__(self, ring, track=False):
        if not ring.is_field:
            raise ValueError("SparseEliminator needs a field")
        self.ring = ring
        self.track = track
        self.pivots = {}
        self.combos = {}
        self.count = 0

    def _clean(self, vec):
        R = self.ring
        mod = R.modulus
        if mod is None:
            return {k: R.of(v) for k, v in vec.items() if v != 0}
        return {k: r for k, v in vec.items()
                if (r := (v if type(v) is int else R.of(v)) % mod)}

    def _reduce(self, vec, combo=None):
        mod = self.ring.modulus
        pivots = self.pivots
        while vec:
            lead = max(vec)
            piv = pivots.get(lead)
            if piv is None:
                return vec, lead, combo
            f = vec[lead]
            _subtract(vec, piv, f, mod)
            if combo is not None:
                _subtract(combo, self.combos[lead], f, mod)
        return vec, None, combo

    def insert(self, vec, tag=None):
        """Insert a vector; returns True when it enlarged the span."""
        R = self.ring
        combo = {tag: R.one} if self.track else None
        vec, lead, combo = self._reduce(self._clean(vec), combo)
        if not vec:
            return False
        inv = R.inverse(vec[lead])
        self.pivots[lead] = {k: R.mul(inv, v) for k, v in vec.items()}
        if self.track:
            self.combos[lead] = {k: R.mul(inv, v) for k, v in combo.items()}
        self.count += 1
        return True

    def contains(self, vec):
        vec, _, _ = self._reduce(self._clean(vec))
        return not vec

    def express(self, vec):
        """Combination of inserted tags yielding vec, or None if outside the span."""
        if not self.track:
            raise ValueError("eliminator built without combination tracking")
        R = self.ring
        vec, _, combo = self._reduce(self._clean(vec), {})
        if vec:
            return None
        return {k: R.neg(v) for k, v in combo.items()}

    @property
    def rank(self):
        return self.count

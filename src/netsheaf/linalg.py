"""Exact linear algebra over Q[i]: matrices, row reduction, kernels, spans.

At the interface, matrices and vectors are immutable tuples of
GaussianRational.  Every kernel runs on Gaussian-integer rows instead: a
vector over Q[i], or a flattened matrix, is held as two int lists ``re``
and ``im``, scaled to integers, so a zero test is two int checks and no
``Fraction`` is formed.  GaussianRationals are created only when a result
leaves the row form (``vector_of``).

Elimination is fraction-free, in the spirit of Bareiss (Math. Comp. 22
(1968) 565).  A span keeps its rows primitive (the gcd of all their parts
removed), each with a real positive pivot value d, in reduced echelon form:
each row's pivot is its first nonzero entry, and every other row is zero
there.  So a vector v is reduced in one pass, as s*v minus (s/d)*v[p]*row
for every row whose pivot column p is nonzero in v, with s the lcm of those
d; no entry is scaled by a product of pivots.  Divided by its pivot value,
each row is a row of the unit-pivot reduced echelon basis over Q[i].  That
basis is unique, so it doubles as the canonical form (two spans are equal
iff their reduced bases are equal tuples); it is formed once per span.

The kernels do arithmetic only on nonzero entries: a product visits the
nonzero entries of each row, and a row update only the columns where the
pivot row is nonzero.
"""

from __future__ import annotations

from bisect import bisect
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Optional, Sequence

from .errors import InputError
from .scalars import ONE, ZERO, GaussianRational

Vector = tuple[GaussianRational, ...]
Matrix = tuple[Vector, ...]
Row = tuple[list[int], list[int]]  # (re, im): a vector over Q[i] up to a nonzero scale


def _entry(x) -> GaussianRational:
    if isinstance(x, GaussianRational):
        return x
    coerced = GaussianRational._coerce(x)
    if coerced is NotImplemented:
        raise InputError(f"matrix entries must be exact scalars, got {x!r}")
    return coerced


def as_matrix(rows: Iterable[Iterable]) -> Matrix:
    """Coerce nested iterables of exact scalars into a rectangular Matrix."""
    m = tuple(tuple(_entry(x) for x in row) for row in rows)
    if m and any(len(row) != len(m[0]) for row in m):
        raise InputError("ragged matrix")
    return m


def identity(n: int) -> Matrix:
    return tuple(
        tuple(ONE if i == j else ZERO for j in range(n)) for i in range(n)
    )


def flatten(a: Matrix) -> Vector:
    return tuple(x for row in a for x in row)


def unflatten(v: Vector, n: int, m: Optional[int] = None) -> Matrix:
    m = n if m is None else m
    assert len(v) == n * m
    return tuple(tuple(v[i * m + j] for j in range(m)) for i in range(n))


def mat_str(a: Matrix) -> str:
    return "[" + ", ".join("[" + ", ".join(str(x) for x in row) + "]" for row in a) + "]"


def is_zero_matrix(a: Matrix) -> bool:
    return all(not x for row in a for x in row)


# -- Gaussian-integer rows ---------------------------------------------------------

def row_of(v: Sequence[GaussianRational]) -> tuple[Row, int]:
    """((re, im), den) with v = (re + i*im) / den, den the lcm of v's denominators."""
    den = lcm(*(x.re.denominator for x in v), *(x.im.denominator for x in v))
    re = [x.re.numerator * (den // x.re.denominator) for x in v]
    im = [x.im.numerator * (den // x.im.denominator) for x in v]
    return (re, im), den


def vector_of(row: Row, den: int) -> Vector:
    """The vector (re + i*im) / den over Q[i]."""
    return tuple(
        GaussianRational(Fraction(a, den), Fraction(b, den)) if a or b else ZERO
        for a, b in zip(*row)
    )


def row_product(x: Row, y: Row, rows: int, inner: int, cols: int) -> Row:
    """The flattened product of x (rows x inner) and y (inner x cols)."""
    xr, xi = x
    yr, yi = y
    zr = [0] * (rows * cols)
    zi = [0] * (rows * cols)
    for i in range(rows):
        for k in range(inner):
            a = xr[i * inner + k]
            b = xi[i * inner + k]
            if a or b:
                shift = (i - k) * cols
                for j in range(k * cols, (k + 1) * cols):
                    c = yr[j]
                    d = yi[j]
                    if c or d:
                        zr[shift + j] += a * c - b * d
                        zi[shift + j] += a * d + b * c
    return zr, zi


def row_adjoint(x: Row, n: int) -> Row:
    """The conjugate transpose of a flattened n x n matrix."""
    xr, xi = x
    return (
        [xr[j * n + i] for i in range(n) for j in range(n)],
        [-xi[j * n + i] for i in range(n) for j in range(n)],
    )


def row_commutator(x: Row, y: Row, n: int) -> Row:
    """xy - yx for flattened n x n matrices."""
    pr, pi = row_product(x, y, n, n, n)
    qr, qi = row_product(y, x, n, n, n)
    return [u - v for u, v in zip(pr, qr)], [u - v for u, v in zip(pi, qi)]


def _primitive(re: list[int], im: list[int]) -> Row:
    g = gcd(*re, *im)
    if g > 1:
        return [x // g for x in re], [x // g for x in im]
    return re, im


def _support(row: Row, p: int) -> list[int]:
    """The columns other than p where the row is nonzero."""
    return [j for j, (x, y) in enumerate(zip(*row)) if (x or y) and j != p]


def _eliminated(v: Row, pivots: list[tuple[int, int, Row, list[int]]]) -> tuple[Row, int]:
    """(s*v - sum of (s/d)*v[p]*row over the pivot rows (p, d, row,
    support), s), as new lists, with s the lcm of the pivot values d.  Each
    row has the real pivot d at column p, is nonzero elsewhere only in
    ``support`` and is zero at the other rows' pivots, so v[p] is its
    coefficient as v stands, and the result is zero at every p."""
    re, im = v
    scale = lcm(*(d for _, d, _, _ in pivots))
    out_re = [scale * x for x in re] if scale != 1 else list(re)
    out_im = [scale * y for y in im] if scale != 1 else list(im)
    for p, d, (rr, ri), support in pivots:
        f = scale // d
        a = re[p] * f
        b = im[p] * f
        out_re[p] = out_im[p] = 0
        for j in support:
            x = rr[j]
            y = ri[j]
            out_re[j] -= a * x - b * y
            out_im[j] -= a * y + b * x
    return (out_re, out_im), scale


# -- the GaussianRational interface ------------------------------------------------

def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    if a and len(a[0]) != len(b):
        raise InputError(f"matrix shape mismatch: {len(a[0])} columns vs {len(b)} rows")
    cols = len(b[0]) if b else 0
    x, dx = row_of(flatten(a))
    y, dy = row_of(flatten(b))
    return unflatten(vector_of(row_product(x, y, len(a), len(b), cols), dx * dy), len(a), cols)


def adjoint(a: Matrix) -> Matrix:
    """Conjugate transpose."""
    return tuple(tuple(a[j][i].conjugate() for j in range(len(a))) for i in range(len(a[0])))


def commutator(a: Matrix, b: Matrix) -> Matrix:
    n = len(a)
    if len(b) != n or any(len(row) != n for row in a + b):
        raise InputError("commutator needs two square matrices of one size")
    x, dx = row_of(flatten(a))
    y, dy = row_of(flatten(b))
    return unflatten(vector_of(row_commutator(x, y, n), dx * dy), n)


def rref(rows: Sequence[Vector]) -> tuple[tuple[Vector, ...], tuple[int, ...]]:
    """Reduced row echelon form; returns (nonzero rows, pivot columns)."""
    if not rows:
        return (), ()
    span = Span(rows)
    return span.rows, span.pivots


def rank(rows: Sequence[Vector]) -> int:
    return Span(rows).dim if rows else 0


def kernel_basis(rows: Sequence[Vector], ncols: int) -> tuple[Vector, ...]:
    """Basis of {x : M x = 0} for the matrix M whose rows are the equations."""
    den, null = Span(rows, ncols).null_rows()
    return tuple(vector_of(row, den) for row in null)


def span_intersection(a: Sequence[Vector], b: Sequence[Vector], ncols: int) -> tuple[Vector, ...]:
    """Canonical basis of span(a) & span(b)."""
    return Span(a, ncols).intersection(Span(b, ncols)).rows


# -- spans -------------------------------------------------------------------------

class Span:
    """A linear subspace of Q[i]^ncols in reduced echelon form.

    Its rows are (pivot, pivot value, row, support), in pivot order: a
    primitive Gaussian-integer row with a real positive pivot value, and the
    columns other than the pivot where it is nonzero.  A span grows only
    through ``add_row`` while it is built; the canonical rows are formed
    when first read."""

    __slots__ = ("ncols", "_rows", "_canonical")

    def __init__(self, vectors: Sequence[Vector], ncols: Optional[int] = None):
        if ncols is None:
            if not vectors:
                raise InputError("empty span needs an explicit ambient dimension")
            ncols = len(vectors[0])
        self.ncols = ncols
        self._rows: list[tuple[int, int, Row, list[int]]] = []
        self._canonical: Optional[tuple[Vector, ...]] = None
        for v in vectors:
            self.add_row(row_of(v)[0])

    @classmethod
    def of_rows(cls, rows: Iterable[Row], ncols: int) -> "Span":
        span = cls((), ncols)
        for row in rows:
            span.add_row(row)
        return span

    @property
    def dim(self) -> int:
        return len(self._rows)

    @property
    def rows(self) -> tuple[Vector, ...]:
        """The unit-pivot reduced echelon basis over Q[i]."""
        if self._canonical is None:
            self._canonical = tuple(vector_of(row, d) for _, d, row, _ in self._rows)
        return self._canonical

    @property
    def pivots(self) -> tuple[int, ...]:
        return tuple(p for p, *_ in self._rows)

    def int_rows(self) -> list[tuple[Row, int]]:
        """(row, d) in pivot order: row / d is the canonical row."""
        return [(row, d) for _, d, row, _ in self._rows]

    def _eliminate(self, row: Row) -> tuple[Row, int]:
        """(row * s - a combination of this span's rows that is zero at
        every pivot, s)."""
        re, im = row
        return _eliminated(row, [r for r in self._rows if re[r[0]] or im[r[0]]])

    def holds(self, row: Row) -> bool:
        (re, im), _ = self._eliminate(row)
        return not any(re) and not any(im)

    def add_row(self, row: Row) -> Optional[Row]:
        """Add the row to the span; return it as reduced and added, or None
        if the span already holds it."""
        (re, im), _ = self._eliminate(row)
        p = next((j for j in range(self.ncols) if re[j] or im[j]), None)
        if p is None:
            return None
        a, b = re[p], im[p]
        if b:  # a real pivot: times the conjugate of a + bi
            re, im = [a * x + b * y for x, y in zip(re, im)], [a * y - b * x for x, y in zip(re, im)]
        elif a < 0:
            re, im = [-x for x in re], [-y for y in im]
        row = _primitive(re, im)
        d, support = row[0][p], _support(row, p)
        for k, (q, _, other, _) in enumerate(self._rows):
            if other[0][p] or other[1][p]:
                other = _primitive(*_eliminated(other, [(p, d, row, support)])[0])
                self._rows[k] = (q, other[0][q], other, _support(other, q))
        self._rows.insert(bisect(self.pivots, p), (p, d, row, support))
        self._canonical = None
        return row

    def null_rows(self) -> tuple[int, list[Row]]:
        """(L, rows): row / L is the kernel vector, read as equations, that is
        1 at one free column, 0 at the others and -row[f] / d at each pivot,
        one row per free column f in order."""
        den = lcm(*(d for _, d, _, _ in self._rows))
        pivots = set(self.pivots)
        null = []
        for f in range(self.ncols):
            if f in pivots:
                continue
            re = [0] * self.ncols
            im = [0] * self.ncols
            re[f] = den
            for p, d, (rr, ri), _ in self._rows:
                re[p] = -rr[f] * (den // d)
                im[p] = -ri[f] * (den // d)
            null.append((re, im))
        return den, null

    def intersection(self, other: "Span") -> "Span":
        """self & other (Zassenhaus): in the echelon form of (u | u) for the
        rows u of self and (w | 0) for those of other, the rows with a pivot
        past the first half are (0 | x), and their x span the intersection."""
        n = self.ncols
        zeros = [0] * n
        both = Span.of_rows(
            [(re + re, im + im) for _, _, (re, im), _ in self._rows]
            + [(re + zeros, im + zeros) for _, _, (re, im), _ in other._rows],
            2 * n,
        )
        return Span.of_rows(
            [(re[n:], im[n:]) for p, _, (re, im), _ in both._rows if p >= n], n
        )

    def contains(self, v: Vector) -> bool:
        return self.holds(row_of(v)[0])

    def reduce(self, v: Vector) -> tuple[Vector, Vector]:
        """Return (residual, coefficients w.r.t. self.rows) with v = coeffs . rows + residual."""
        row, den = row_of(v)
        residual, scale = self._eliminate(row)
        return vector_of(residual, den * scale), tuple(v[p] for p in self.pivots)

    def __eq__(self, other):
        return isinstance(other, Span) and self.ncols == other.ncols and self.rows == other.rows

    def __hash__(self):
        return hash((self.rows, self.ncols))

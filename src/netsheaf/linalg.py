"""Exact linear algebra over Q[i]: matrices, row reduction, kernels, spans.

Matrices and vectors are immutable tuples of GaussianRational.  Row
reduction always produces the reduced echelon form with unit pivots, which
doubles as the canonical form for spans (two spans are equal iff their
reduced bases are equal tuples).

The kernels do arithmetic only on nonzero entries: a product visits the
nonzero entries of each row, and a row update only the columns where the
pivot row is nonzero.  In Q[i] a zero term leaves a sum unchanged, so every
value, and the canonical basis, is the same as with full dense loops.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from .errors import InputError
from .scalars import ONE, ZERO, GaussianRational

Vector = tuple[GaussianRational, ...]
Matrix = tuple[Vector, ...]


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


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    if a and len(a[0]) != len(b):
        raise InputError(f"matrix shape mismatch: {len(a[0])} columns vs {len(b)} rows")
    ncols = len(b[0]) if b else 0
    out = []
    for row in a:
        acc = [ZERO] * ncols
        for k, x in enumerate(row):
            if x:
                for j, y in enumerate(b[k]):
                    if y:
                        acc[j] = acc[j] + x * y
        out.append(tuple(acc))
    return tuple(out)


def adjoint(a: Matrix) -> Matrix:
    """Conjugate transpose."""
    return tuple(tuple(a[j][i].conjugate() for j in range(len(a))) for i in range(len(a[0])))


def commutator(a: Matrix, b: Matrix) -> Matrix:
    return tuple(
        tuple(x - y if y else x for x, y in zip(ra, rb))
        for ra, rb in zip(mat_mul(a, b), mat_mul(b, a))
    )


def is_zero_matrix(a: Matrix) -> bool:
    return all(not x for row in a for x in row)


def flatten(a: Matrix) -> Vector:
    return tuple(x for row in a for x in row)


def unflatten(v: Vector, n: int, m: Optional[int] = None) -> Matrix:
    m = n if m is None else m
    assert len(v) == n * m
    return tuple(tuple(v[i * m + j] for j in range(m)) for i in range(n))


def mat_str(a: Matrix) -> str:
    return "[" + ", ".join("[" + ", ".join(str(x) for x in row) + "]" for row in a) + "]"


# -- row reduction -----------------------------------------------------------

def rref(rows: Sequence[Vector]) -> tuple[tuple[Vector, ...], tuple[int, ...]]:
    """Reduced row echelon form; returns (nonzero rows, pivot columns)."""
    work = [list(r) for r in rows]
    if not work:
        return (), ()
    ncols = len(work[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, len(work)) if work[i][c]), None)
        if pivot_row is None:
            continue
        work[r], work[pivot_row] = work[pivot_row], work[r]
        pv = work[r][c]
        if pv != ONE:
            inv = ONE / pv
            work[r] = [inv * x if x else x for x in work[r]]
        support = [(j, y) for j, y in enumerate(work[r]) if y]
        for i, row in enumerate(work):
            f = row[c]
            if f and i != r:
                for j, y in support:
                    row[j] = row[j] - f * y
        pivots.append(c)
        r += 1
        if r == len(work):
            break
    return tuple(tuple(row) for row in work[:r]), tuple(pivots)


def rank(rows: Sequence[Vector]) -> int:
    return len(rref(rows)[0])


def kernel_basis(rows: Sequence[Vector], ncols: int) -> tuple[Vector, ...]:
    """Basis of {x : M x = 0} for the matrix M whose rows are the equations."""
    reduced, pivots = rref(rows)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for f in free:
        v = [ZERO] * ncols
        v[f] = ONE
        for row, p in zip(reduced, pivots):
            if row[f]:
                v[p] = -row[f]
        basis.append(tuple(v))
    return tuple(basis)


class Span:
    """A linear subspace held in canonical reduced-echelon form."""

    __slots__ = ("rows", "pivots", "ncols")

    def __init__(self, vectors: Sequence[Vector], ncols: Optional[int] = None):
        if ncols is None:
            if not vectors:
                raise InputError("empty span needs an explicit ambient dimension")
            ncols = len(vectors[0])
        self.ncols = ncols
        self.rows, self.pivots = rref(vectors)

    @property
    def dim(self) -> int:
        return len(self.rows)

    def reduce(self, v: Vector) -> tuple[Vector, Vector]:
        """Return (residual, coefficients w.r.t. self.rows) with v = coeffs . rows + residual."""
        res = list(v)
        coeffs = []
        for row, p in zip(self.rows, self.pivots):
            c = res[p]
            coeffs.append(c)
            if c:
                for j, y in enumerate(row):
                    if y:
                        res[j] = res[j] - c * y
        return tuple(res), tuple(coeffs)

    def contains(self, v: Vector) -> bool:
        res, _ = self.reduce(v)
        return not any(res)

    def __eq__(self, other):
        return isinstance(other, Span) and self.rows == other.rows and self.ncols == other.ncols

    def __hash__(self):
        return hash((self.rows, self.ncols))


def span_intersection(a: Sequence[Vector], b: Sequence[Vector], ncols: int) -> tuple[Vector, ...]:
    """Canonical basis of span(a) & span(b).

    Solves sum a_i x_i = sum b_j y_j exactly: the equation matrix has one
    column per coefficient and one row per ambient coordinate.
    """
    if not a or not b:
        return ()
    na, nb = len(a), len(b)
    eqs = tuple(
        tuple(a[i][c] for i in range(na)) + tuple(-b[j][c] for j in range(nb))
        for c in range(ncols)
    )
    vectors = []
    for sol in kernel_basis(eqs, na + nb):
        vec = [ZERO] * ncols
        for s, v in zip(sol, a):
            if s:
                for j, y in enumerate(v):
                    if y:
                        vec[j] = vec[j] + s * y
        vectors.append(tuple(vec))
    return rref(vectors)[0]

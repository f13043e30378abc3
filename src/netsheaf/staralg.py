"""Matrix *-algebras over Q[i]: generation, commutants, multiplication maps.

A StarAlgebra is a linear span of n x n matrices that contains the identity
and is closed under products and adjoints.  The basis is kept in reduced
echelon form of the flattened matrices, so equal algebras have equal bases.
All the work is done on the span's Gaussian-integer rows (see ``linalg``).
"""

from __future__ import annotations

from typing import Optional, Sequence

from .errors import Immutable, InputError, PreconditionError
from .linalg import (
    Matrix,
    Row,
    Span,
    adjoint,
    as_matrix,
    flatten,
    mat_str,
    row_adjoint,
    row_commutator,
    row_product,
    unflatten,
    vector_of,
)
from .partitions import Partition
from .scalars import ONE, ZERO


def _identity_row(n: int) -> Row:
    re = [0] * (n * n)
    re[:: n + 1] = [1] * n
    return re, [0] * (n * n)


class StarAlgebra(Immutable):
    """A unital *-closed span of n x n matrices in canonical basis form."""

    __slots__ = ("n", "basis", "_span")

    def __init__(self, n: int, basis: Sequence[Matrix] | Span):
        span = basis if isinstance(basis, Span) else Span([flatten(m) for m in basis], n * n)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "basis", tuple(unflatten(v, n) for v in span.rows))
        object.__setattr__(self, "_span", span)
        self.verify()

    @property
    def dim(self) -> int:
        return len(self.basis)

    def contains(self, m: Matrix) -> bool:
        return self._span.contains(flatten(m))

    def verify(self):
        """Recheck the *-algebra invariants by exact row reduction: the span
        holds the identity, the adjoint of every basis element and all dim^2
        products of two basis elements."""
        n, span = self.n, self._span
        if not span.holds(_identity_row(n)):
            raise InputError("span does not contain the identity matrix")
        rows = [row for row, _ in span.int_rows()]
        for m, x in zip(self.basis, rows):
            if not span.holds(row_adjoint(x, n)):
                raise InputError(f"span not closed under adjoints at {mat_str(m)}")
        for a, x in zip(self.basis, rows):
            for b, y in zip(self.basis, rows):
                if not span.holds(row_product(x, y, n, n, n)):
                    raise InputError(
                        f"span not closed under products at {mat_str(a)} * {mat_str(b)}"
                    )

    def __eq__(self, other):
        return (
            isinstance(other, StarAlgebra)
            and self.n == other.n
            and self.basis == other.basis
        )

    def __hash__(self):
        return hash((self.n, self.basis))

    def __repr__(self):
        return f"StarAlgebra(n={self.n}, dim={self.dim})"


def generated_star_algebra(n: int, generators: Sequence) -> StarAlgebra:
    """Smallest span containing the identity and the generators, closed under
    products and adjoints.

    Closed by a frontier of words.  The letters are an independent basis of
    the span of the generators and their adjoints.  Each row added to the
    span is multiplied on the left by every letter and reduced, and the
    closure stops when a frontier adds nothing.  Every word in the letters
    is a letter times a shorter word, so the span then holds all of them,
    and they span the generated unital *-algebra.  The dimension is at
    most n^2, so the closure terminates."""
    if n < 1:
        raise InputError("matrix dimension must be >= 1")
    gens = [as_matrix(g) for g in generators]
    for g in gens:
        if len(g) != n or any(len(row) != n for row in g):
            raise InputError(f"generator is not {n}x{n}: {mat_str(g)}")
    words = Span([flatten(m) for g in gens for m in (g, adjoint(g))], n * n)
    letters = [row for row, _ in words.int_rows()]
    span = Span.of_rows([_identity_row(n), *letters], n * n)
    frontier = [row for row, _ in span.int_rows()]
    while frontier:
        frontier = _grow(span, letters, frontier, n)
    return StarAlgebra(n, span)


def _grow(span: Span, letters: list[Row], frontier: list[Row], n: int) -> list[Row]:
    """Add letter * w to the span for every letter and every w on the
    frontier; return the rows that were new, which are the next frontier."""
    grown = []
    for w in frontier:
        for letter in letters:
            added = span.add_row(row_product(letter, w, n, n, n))
            if added is not None:
                grown.append(added)
    return grown


def indicator_algebra(p: Partition) -> StarAlgebra:
    """The subalgebra S_p materialised as diagonal matrices constant on blocks."""
    n = len(p.ambient)
    basis = []
    for block in p.blocks:
        block_set = set(block)
        basis.append(
            tuple(
                tuple(ONE if i == j and i in block_set else ZERO for j in range(n))
                for i in range(n)
            )
        )
    return StarAlgebra(n, basis)


def commutant(s: StarAlgebra) -> StarAlgebra:
    """All n x n matrices commuting with every basis element of s, computed as
    the exact kernel of the stacked commutator system."""
    n = s.n
    size = n * n
    # Equations in the unknown X: (XB - BX)[i][j] = 0 for each basis element B,
    # the equation for (i, j) at index i*n + j.  Each nonzero entry B[p][q]
    # enters as X[i][p] B[p][q] in equation (i, q) and as -B[p][q] X[q][j] in
    # equation (p, j).
    equations = Span((), size)
    for (br, bi), _ in s._span.int_rows():
        re = [[0] * size for _ in range(size)]
        im = [[0] * size for _ in range(size)]
        for p in range(n):
            for q in range(n):
                a, b = br[p * n + q], bi[p * n + q]
                if a or b:
                    for i in range(n):
                        re[i * n + q][i * n + p] += a
                        im[i * n + q][i * n + p] += b
                        re[p * n + i][q * n + i] -= a
                        im[p * n + i][q * n + i] -= b
        for row in zip(re, im):
            equations.add_row(row)
    _, solutions = equations.null_rows()
    return StarAlgebra(n, Span.of_rows(solutions, size))


def intersection_algebra(a: StarAlgebra, b: StarAlgebra) -> StarAlgebra:
    if a.n != b.n:
        raise InputError(f"matrix dimensions differ: {a.n} vs {b.n}")
    return StarAlgebra(a.n, a._span.intersection(b._span))


def commuting_witness(a: StarAlgebra, b: StarAlgebra) -> Optional[tuple[int, int, Matrix]]:
    """First basis pair with nonvanishing commutator, or None if [A,B] = {0}.

    Checking basis pairs suffices: commutators are bilinear."""
    if a.n != b.n:
        raise InputError(f"matrix dimensions differ: {a.n} vs {b.n}")
    n = a.n
    right = b._span.int_rows()
    for i, (x, dx) in enumerate(a._span.int_rows()):
        for j, (y, dy) in enumerate(right):
            c = row_commutator(x, y, n)
            if any(c[0]) or any(c[1]):
                return (i, j, unflatten(vector_of(c, dx * dy), n))
    return None


def multiplication_kernel_dim(a: StarAlgebra, b: StarAlgebra) -> int:
    """dim(A).dim(B) - rank of the multiplication map x (x) y -> xy on basis
    pairs.  Kernel dimension 0 certifies that A v B is isomorphic to A (x) B."""
    witness = commuting_witness(a, b)
    if witness is not None:
        i, j, c = witness
        raise PreconditionError(
            "multiplication_kernel_dim requires commuting algebras; "
            f"basis pair ({i}, {j}) has commutator {mat_str(c)}"
        )
    return _commuting_kernel_dim(a, b)


def _commuting_kernel_dim(a: StarAlgebra, b: StarAlgebra) -> int:
    """`multiplication_kernel_dim` for a pair whose commutation the caller
    has already established."""
    n = a.n
    right = [y for y, _ in b._span.int_rows()]
    products = Span.of_rows(
        (row_product(x, y, n, n, n) for x, _ in a._span.int_rows() for y in right), n * n
    )
    return a.dim * b.dim - products.dim

"""Matrix *-algebras over Q[i]: generation, commutants, multiplication maps.

A StarAlgebra is a linear span of n x n matrices that contains the identity
and is closed under products and adjoints.  The basis is kept in reduced
echelon form of the flattened matrices, so equal algebras have equal bases.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .errors import Immutable, InputError, PreconditionError
from .linalg import (
    Matrix,
    Span,
    adjoint,
    as_matrix,
    commutator,
    flatten,
    identity,
    is_zero_matrix,
    kernel_basis,
    mat_mul,
    mat_str,
    rank,
    rref,
    span_intersection,
    unflatten,
)
from .partitions import Partition
from .scalars import ONE, ZERO


class StarAlgebra(Immutable):
    """A unital *-closed span of n x n matrices in canonical basis form."""

    __slots__ = ("n", "basis", "_span")

    def __init__(self, n: int, basis: Sequence[Matrix]):
        span = Span([flatten(m) for m in basis], n * n)
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
        """Recheck the *-algebra invariants by exact row reduction."""
        if not self.contains(identity(self.n)):
            raise InputError("span does not contain the identity matrix")
        for m in self.basis:
            if not self.contains(adjoint(m)):
                raise InputError(f"span not closed under adjoints at {mat_str(m)}")
        for a in self.basis:
            for b in self.basis:
                if not self.contains(mat_mul(a, b)):
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
    products and adjoints.  Closure by iterated span extension with exact row
    reduction; the dimension is bounded by n^2, so the iteration terminates."""
    if n < 1:
        raise InputError("matrix dimension must be >= 1")
    gens = [as_matrix(g) for g in generators]
    for g in gens:
        if len(g) != n or any(len(row) != n for row in g):
            raise InputError(f"generator is not {n}x{n}: {mat_str(g)}")
    seed = [identity(n)]
    for g in gens:
        seed.append(g)
        seed.append(adjoint(g))
    rows, _ = rref([flatten(m) for m in seed])
    while True:
        mats = [unflatten(v, n) for v in rows]
        products = [flatten(mat_mul(a, b)) for a in mats for b in mats]
        new_rows, _ = rref(list(rows) + products)
        assert len(new_rows) <= n * n
        if len(new_rows) == len(rows):
            break
        rows = new_rows
    return StarAlgebra(n, [unflatten(v, n) for v in rows])


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
    # Equations in the unknown X: (XB - BX)[i][j] = 0 for each basis element B,
    # the equation for (i, j) at index i*n + j.  Each nonzero entry B[p][q]
    # enters as X[i][p] B[p][q] in equation (i, q) and as -B[p][q] X[q][j] in
    # equation (p, j).
    equations = []
    for b in s.basis:
        rows = [[ZERO] * (n * n) for _ in range(n * n)]
        for p in range(n):
            for q, x in enumerate(b[p]):
                if x:
                    for i in range(n):
                        rows[i * n + q][i * n + p] = rows[i * n + q][i * n + p] + x
                        rows[p * n + i][q * n + i] = rows[p * n + i][q * n + i] - x
        equations.extend(tuple(row) for row in rows)
    solutions = kernel_basis(equations, n * n)
    return StarAlgebra(n, [unflatten(v, n) for v in solutions])


def intersection_algebra(a: StarAlgebra, b: StarAlgebra) -> StarAlgebra:
    if a.n != b.n:
        raise InputError(f"matrix dimensions differ: {a.n} vs {b.n}")
    rows = span_intersection(
        [flatten(m) for m in a.basis], [flatten(m) for m in b.basis], a.n * a.n
    )
    return StarAlgebra(a.n, [unflatten(v, a.n) for v in rows])


def commuting_witness(a: StarAlgebra, b: StarAlgebra) -> Optional[tuple[int, int, Matrix]]:
    """First basis pair with nonvanishing commutator, or None if [A,B] = {0}.

    Checking basis pairs suffices: commutators are bilinear."""
    if a.n != b.n:
        raise InputError(f"matrix dimensions differ: {a.n} vs {b.n}")
    for i, x in enumerate(a.basis):
        for j, y in enumerate(b.basis):
            c = commutator(x, y)
            if not is_zero_matrix(c):
                return (i, j, c)
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
    products = [flatten(mat_mul(x, y)) for x in a.basis for y in b.basis]
    return a.dim * b.dim - rank(products)

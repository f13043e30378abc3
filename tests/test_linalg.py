from fractions import Fraction
from itertools import permutations

from hypothesis import given, settings
from hypothesis import strategies as st

from netsheaf.linalg import (
    Span,
    adjoint,
    as_matrix,
    commutator,
    flatten,
    identity,
    kernel_basis,
    mat_mul,
    rank,
    row_adjoint,
    row_commutator,
    row_of,
    row_product,
    rref,
    span_intersection,
    unflatten,
    vector_of,
)
from netsheaf.scalars import GaussianRational, I, ZERO

from conftest import (
    gaussian_matrices,
    oracle_kernel_basis,
    oracle_mat_mul,
    oracle_reduce,
    oracle_rref,
    oracle_span_intersection,
)


def gr(re, im=0):
    return GaussianRational(Fraction(re), Fraction(im))


def vec(*xs):
    return tuple(gr(x) for x in xs)


def oracle_det(m):
    """Leibniz determinant: independent of the row-reduction code."""
    n = len(m)
    total = GaussianRational(0)
    for perm in permutations(range(n)):
        sign = 1
        for i in range(n):
            for j in range(i + 1, n):
                if perm[i] > perm[j]:
                    sign = -sign
        term = GaussianRational(sign)
        for i in range(n):
            term = term * m[i][perm[i]]
        total = total + term
    return total


def test_rref_canonical_and_idempotent():
    rows = [vec(2, 4, 6), vec(1, 2, 3), vec(0, 1, 1)]
    reduced, pivots = rref(rows)
    assert pivots == (0, 1)
    assert reduced == (vec(1, 0, 1), vec(0, 1, 1))
    again, _ = rref(reduced)
    assert again == reduced


def test_rank_matches_determinant_oracle():
    m = as_matrix([[1, 0, 0, 1], [1, 0, 0, -1], [0, 1, 1, 0], [0, 1, -1, 0]])
    assert oracle_det(m) != GaussianRational(0)
    assert rank(m) == 4
    singular = as_matrix([[1, 2], [2, 4]])
    assert oracle_det(singular) == GaussianRational(0)
    assert rank(singular) == 1


def test_kernel_vectors_annihilate():
    rows = [vec(1, 2, 3), vec(2, 4, 6), vec(0, 1, 1)]
    basis = kernel_basis(rows, 3)
    assert len(basis) == 1
    for k in basis:
        for row in rows:
            assert sum((a * b for a, b in zip(row, k)), ZERO) == ZERO


def test_kernel_dimension_theorem():
    rows = [vec(1, 1, 0, 0), vec(0, 0, 1, 1)]
    assert rank(rows) + len(kernel_basis(rows, 4)) == 4


def test_span_membership():
    s = Span([vec(1, 0, 1), vec(0, 1, 1)])
    assert s.contains(vec(2, 3, 5))
    assert not s.contains(vec(1, 0, 0))


def test_span_intersection_is_in_both():
    a = [vec(1, 0, 0), vec(0, 1, 0)]
    b = [vec(0, 1, 0), vec(0, 0, 1)]
    inter = span_intersection(a, b, 3)
    assert inter == (vec(0, 1, 0),)
    sa, sb = Span(a), Span(b)
    for v in inter:
        assert sa.contains(v) and sb.contains(v)


def test_adjoint_conjugates_and_transposes():
    m = as_matrix([[gr(1), I], [gr(0), gr(2)]])
    assert adjoint(m) == as_matrix([[gr(1), gr(0)], [GaussianRational(0, -1), gr(2)]])
    assert adjoint(adjoint(m)) == m


def test_flatten_round_trip_and_identity():
    m = as_matrix([[1, 2], [3, 4]])
    assert unflatten(flatten(m), 2) == m
    assert mat_mul(m, identity(2)) == m
    assert mat_mul(identity(2), m) == m


# -- the skip-zero kernels against the dense references ---------------------------

SIZES = st.integers(1, 4)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_mat_mul_and_commutator_equal_the_dense_reference(data):
    r, k, c = data.draw(SIZES), data.draw(SIZES), data.draw(SIZES)
    a = data.draw(gaussian_matrices(r, k))
    b = data.draw(gaussian_matrices(k, c))
    assert mat_mul(a, b) == oracle_mat_mul(a, b)
    square = data.draw(gaussian_matrices(k, k))
    other = data.draw(gaussian_matrices(k, k))
    ab, ba = oracle_mat_mul(square, other), oracle_mat_mul(other, square)
    assert commutator(square, other) == tuple(
        tuple(x - y for x, y in zip(u, v)) for u, v in zip(ab, ba)
    )


@settings(max_examples=80, deadline=None)
@given(gaussian_matrices(st.integers(0, 5), st.integers(1, 5)))
def test_rref_and_kernel_basis_equal_the_dense_reference(m):
    assert rref(m) == oracle_rref(m)
    ncols = len(m[0]) if m else 3
    assert kernel_basis(m, ncols) == oracle_kernel_basis(m, ncols)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_span_reduce_equals_the_dense_reference(data):
    ncols = data.draw(SIZES)
    rows = data.draw(gaussian_matrices(data.draw(SIZES), ncols))
    span = Span(rows, ncols)
    outside = data.draw(gaussian_matrices(1, ncols))[0]
    coeffs = data.draw(gaussian_matrices(1, len(rows)))
    inside = oracle_mat_mul(coeffs, rows)[0]
    for v in (outside, inside):
        assert span.reduce(v) == oracle_reduce(span.rows, span.pivots, v)
    assert span.contains(inside)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_span_intersection_equals_the_dense_reference(data):
    ncols = data.draw(st.integers(1, 5))
    shared = data.draw(gaussian_matrices(st.integers(0, 2), ncols))
    a = shared + data.draw(gaussian_matrices(st.integers(0, 3), ncols))
    b = data.draw(gaussian_matrices(st.integers(0, 3), ncols)) + shared
    assert span_intersection(a, b, ncols) == oracle_span_intersection(a, b, ncols)


# -- the Gaussian-integer kernels against the dense references --------------------

def scaled_rows(data, m):
    """The Gaussian-integer rows of m, each times a drawn nonzero Gaussian
    integer: a row stands for its vector only up to a scale."""
    rows = []
    for v in m:
        (re, im), _ = row_of(v)
        a, b = data.draw(st.tuples(st.integers(-3, 3), st.integers(-3, 3)).filter(any))
        rows.append((
            [a * x - b * y for x, y in zip(re, im)], [a * y + b * x for x, y in zip(re, im)]
        ))
    return rows


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_integer_echelon_of_scaled_rows_equals_the_dense_rref(data):
    ncols = data.draw(st.integers(1, 5))
    m = data.draw(gaussian_matrices(st.integers(0, 5), ncols))
    span = Span((), ncols)
    for k, row in enumerate(scaled_rows(data, m)):
        grows = len(oracle_rref(m[: k + 1])[0]) > len(oracle_rref(m[:k])[0])
        assert (span.add_row(row) is not None) == grows
        assert span.holds(row)
    assert (span.rows, span.pivots) == oracle_rref(m)
    assert Span.of_rows(scaled_rows(data, m), ncols) == span


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_null_rows_are_the_dense_kernel_basis(data):
    ncols = data.draw(st.integers(1, 5))
    m = data.draw(gaussian_matrices(st.integers(0, 5), ncols))
    den, null = Span.of_rows(scaled_rows(data, m), ncols).null_rows()
    assert tuple(vector_of(row, den) for row in null) == oracle_kernel_basis(m, ncols)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_integer_span_intersection_equals_the_dense_reference(data):
    ncols = data.draw(st.integers(1, 5))
    shared = data.draw(gaussian_matrices(st.integers(0, 2), ncols))
    a = shared + data.draw(gaussian_matrices(st.integers(0, 3), ncols))
    b = data.draw(gaussian_matrices(st.integers(0, 3), ncols)) + shared
    left = Span.of_rows(scaled_rows(data, a), ncols)
    right = Span.of_rows(scaled_rows(data, b), ncols)
    assert left.intersection(right).rows == oracle_span_intersection(a, b, ncols)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_row_kernels_equal_the_dense_products(data):
    r, k, c = data.draw(SIZES), data.draw(SIZES), data.draw(SIZES)
    a = data.draw(gaussian_matrices(r, k))
    b = data.draw(gaussian_matrices(k, c))
    (x, dx), (y, dy) = row_of(flatten(a)), row_of(flatten(b))
    assert vector_of(row_product(x, y, r, k, c), dx * dy) == flatten(oracle_mat_mul(a, b))
    square, other = data.draw(gaussian_matrices(k, k)), data.draw(gaussian_matrices(k, k))
    (z, dz), (w, dw) = row_of(flatten(square)), row_of(flatten(other))
    assert vector_of(row_adjoint(z, k), dz) == flatten(adjoint(square))
    ab, ba = flatten(oracle_mat_mul(square, other)), flatten(oracle_mat_mul(other, square))
    assert vector_of(row_commutator(z, w, k), dz * dw) == tuple(x - y for x, y in zip(ab, ba))


# -- only nonzero entries cost a multiplication -------------------------------------

def _counting_ints():
    """An int type that records every multiplication it takes part in."""
    calls = []

    class Counted(int):
        def __mul__(self, other):
            calls.append(None)
            return int(self) * int(other)

        __rmul__ = __mul__

    return Counted, calls


def _unit(n, i, j):
    return as_matrix([[int((r, c) == (i, j)) for c in range(n)] for r in range(n)])


def _unit_row(n, i, j, kind=int):
    return [kind(int(k == i * n + j)) for k in range(n * n)], [kind(0)] * (n * n)


def test_product_of_matrix_units_costs_one_gaussian_integer_product(monkeypatch):
    counted, calls = _counting_ints()
    product = row_product(_unit_row(6, 0, 1, counted), _unit_row(6, 1, 2, counted), 6, 6, 6)
    assert len(calls) == 4  # one product in Z[i]; a dense product makes 6^3 = 216
    assert product == _unit_row(6, 0, 2)
    # at the interface, no arithmetic in Q[i] at all
    for name in ("__mul__", "__add__", "__sub__", "__truediv__"):
        monkeypatch.setattr(GaussianRational, name, None)
    assert mat_mul(_unit(6, 0, 1), _unit(6, 1, 2)) == _unit(6, 0, 2)


def test_elimination_updates_only_the_columns_of_the_pivot_row():
    counted, calls = _counting_ints()
    pivot_row = [counted(x) for x in (1, 0, 0, 0, 0, 2)], [counted(0)] * 6
    span = Span.of_rows([pivot_row], 6)
    added = span.add_row(([counted(1)] * 6, [counted(0)] * 6))
    # one column in Z[i] and the coefficient v[p] * (s / d); a dense row update
    # makes 4 x 6 + 2
    assert len(calls) == 4 + 2
    assert added == ([0, 1, 1, 1, 1, -1], [0] * 6)
    assert span.pivots == (0, 1)

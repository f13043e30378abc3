from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import netsheaf.staralg

from netsheaf import (
    InputError,
    Partition,
    PreconditionError,
    StarAlgebra,
    commutant,
    generated_star_algebra,
    indicator_algebra,
    intersection_algebra,
    multiplication_kernel_dim,
)
from netsheaf.linalg import (
    adjoint,
    as_matrix,
    commutator,
    flatten,
    identity,
    is_zero_matrix,
    mat_mul,
)
from netsheaf.scalars import ZERO, GaussianRational

from conftest import gaussian_matrices, oracle_kernel_basis, oracle_rref, oracle_star_closure

SZ = [[1, 0], [0, -1]]
SX = [[0, 1], [1, 0]]
SY = [[GaussianRational(0), GaussianRational(0, -1)], [GaussianRational(0, 1), GaussianRational(0)]]
E01 = [[0, 1], [0, 0]]


def test_generated_diagonal_algebra():
    s = generated_star_algebra(2, [SZ])
    assert s.dim == 2
    assert s.contains(as_matrix([[5, 0], [0, -3]]))
    assert not s.contains(as_matrix(SX))


def test_generated_full_matrix_algebra():
    s = generated_star_algebra(2, [SZ, SX])
    assert s.dim == 4


def test_generated_scalars():
    s = generated_star_algebra(1, [])
    assert s.dim == 1


def test_generation_closes_under_adjoints():
    s = generated_star_algebra(2, [E01])
    # e01 alone generates all of M2: products give both diagonal units
    assert s.dim == 4
    for m in s.basis:
        assert s.contains(adjoint(m))


def test_generation_idempotent_on_returned_basis():
    for gens in ([SZ], [SZ, SX], [E01], [SY]):
        s = generated_star_algebra(2, [as_matrix(g) for g in gens])
        again = generated_star_algebra(2, s.basis)
        assert again.basis == s.basis


def test_commutant_of_diagonal_is_diagonal():
    diag = generated_star_algebra(2, [SZ])
    c = commutant(diag)
    assert c.dim == 2
    assert c == diag


def test_commutant_of_full_algebra_is_scalars():
    full = generated_star_algebra(2, [SZ, SX])
    c = commutant(full)
    assert c.dim == 1
    assert c.contains(identity(2))


def test_commutant_of_scalars_is_everything():
    scalars = generated_star_algebra(2, [])
    assert commutant(scalars).dim == 4


def test_commutant_elements_commute_with_generators():
    s = generated_star_algebra(3, [[[0, 1, 0], [1, 0, 0], [0, 0, 1]]])
    c = commutant(s)
    for x in c.basis:
        for b in s.basis:
            assert is_zero_matrix(commutator(x, b))


def test_commutant_dimension_formula_for_indicator_algebras(partitions_by_size):
    # commutant of functions-constant-on-blocks = block matrices: sum |b|^2
    for n in (2, 3, 4):
        for p in partitions_by_size[n]:
            c = commutant(indicator_algebra(p))
            assert c.dim == sum(len(b) ** 2 for b in p.blocks)


def test_center_of_indicator_algebra_is_itself(amb3):
    p = Partition.from_blocks(amb3, [["0", "1"], ["2"]])
    s = indicator_algebra(p)
    assert intersection_algebra(s, commutant(s)) == s


def test_multiplication_kernel_square_pair(square_pair):
    a, b = square_pair
    assert multiplication_kernel_dim(indicator_algebra(a), indicator_algebra(b)) == 0


def test_multiplication_kernel_scalars():
    s = generated_star_algebra(2, [])
    assert multiplication_kernel_dim(s, s) == 0


def test_multiplication_kernel_three_point_overlap(halves_pair):
    left, right = halves_pair
    a, b = indicator_algebra(left), indicator_algebra(right)
    # 2*2 basis products span only the three diagonal units: kernel dim 1
    assert multiplication_kernel_dim(a, b) == 1


def test_multiplication_kernel_matches_block_oracle(partitions_by_size):
    # products of block indicators are indicators of intersections, so the
    # rank of the multiplication map is the number of nonempty intersections
    for p in partitions_by_size[3]:
        for q in partitions_by_size[3]:
            expected_rank = sum(
                1 for pb in p.blocks for qb in q.blocks if set(pb) & set(qb)
            )
            kernel = multiplication_kernel_dim(indicator_algebra(p), indicator_algebra(q))
            assert kernel == p.num_blocks * q.num_blocks - expected_rank
            assert (kernel == 0) == (
                expected_rank == p.num_blocks * q.num_blocks
            )


def test_multiplication_kernel_requires_commuting_inputs():
    a = generated_star_algebra(2, [SZ])
    b = generated_star_algebra(2, [SX])
    with pytest.raises(PreconditionError):
        multiplication_kernel_dim(a, b)


def test_intersection_algebra(square_pair):
    a, b = square_pair
    inter = intersection_algebra(indicator_algebra(a), indicator_algebra(b))
    assert inter.dim == 1  # only the scalars


def test_double_commutant_of_indicator_algebras(partitions_by_size):
    for n in (2, 3, 4):
        for p in partitions_by_size[n]:
            s = indicator_algebra(p)
            assert commutant(commutant(s)) == s


def test_star_algebra_rejects_non_closed_basis():
    with pytest.raises(InputError):
        StarAlgebra(2, [as_matrix([[1, 0], [0, 1]]), as_matrix(E01)])


def test_exactness_all_entries_are_gaussian_rationals():
    s = generated_star_algebra(2, [[[Fraction(1, 3), 0], [0, Fraction(-1, 7)]]])
    for m in s.basis:
        for row in m:
            for x in row:
                assert isinstance(x, GaussianRational)
                assert isinstance(x.re, Fraction) and isinstance(x.im, Fraction)
    s.verify()


def test_pauli_y_generates_commutative_subalgebra():
    s = generated_star_algebra(2, [SY])
    assert s.dim == 2
    for a in s.basis:
        for b in s.basis:
            assert mat_mul(a, b) == mat_mul(b, a)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_closure_and_commutant_equal_the_dense_references(data):
    n = data.draw(st.integers(1, 3))
    gens = data.draw(st.lists(gaussian_matrices(n, n), max_size=2))
    s = generated_star_algebra(n, gens)
    assert tuple(flatten(m) for m in s.basis) == oracle_star_closure(n, gens)
    # X commutes with B: (XB - BX)[i][j] = 0, one dense equation per (B, i, j)
    equations = []
    for b in s.basis:
        for i in range(n):
            for j in range(n):
                row = [ZERO] * (n * n)
                for k in range(n):
                    row[i * n + k] = row[i * n + k] + b[k][j]
                    row[k * n + j] = row[k * n + j] - b[i][k]
                equations.append(tuple(row))
    expected = oracle_rref(oracle_kernel_basis(equations, n * n))[0]
    assert tuple(flatten(m) for m in commutant(s).basis) == expected


# -- the word-frontier closure -----------------------------------------------------

def unit(n, i, j):
    return [[int((r, c) == (i, j)) for c in range(n)] for r in range(n)]


def test_full_m5_from_the_superdiagonal_units_needs_long_words():
    # E_04 = E_01 E_12 E_23 E_34 is a word of length 4; the canonical basis of
    # all of M_5 is its matrix units in order
    s = generated_star_algebra(5, [unit(5, i, i + 1) for i in range(4)])
    assert s.dim == 25
    assert s.basis == tuple(as_matrix(unit(5, i, j)) for i in range(5) for j in range(5))
    assert s.contains(as_matrix(unit(5, 0, 4))) and s.contains(as_matrix(unit(5, 4, 0)))


def test_closure_with_dependent_letters_equals_the_dense_reference():
    # a hermitian generator is its own adjoint, and the third generator is a
    # combination of the first two: the letters are fewer than 2 * 3
    h = [[1, GaussianRational(0, 1), 0], [GaussianRational(0, -1), 0, 0], [0, 0, 2]]
    e = [[0, 0, Fraction(1, 2)], [0, 0, 0], [0, 0, 0]]
    both = [[x + 3 * y for x, y in zip(r, q)] for r, q in zip(h, e)]
    gens = [as_matrix(g) for g in (h, e, both)]
    s = generated_star_algebra(3, gens)
    assert tuple(flatten(m) for m in s.basis) == oracle_star_closure(3, gens)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_closure_with_a_drawn_dependent_letter_equals_the_dense_reference(data):
    n = data.draw(st.integers(1, 3))
    gens = data.draw(st.lists(gaussian_matrices(n, n), min_size=1, max_size=2))
    c = data.draw(gaussian_matrices(1, 1))[0][0]
    extra = tuple(
        tuple(c * x + y.conjugate() for x, y in zip(r, q))
        for r, q in zip(gens[0], zip(*gens[-1]))
    )
    s = generated_star_algebra(n, gens + [extra])
    assert tuple(flatten(m) for m in s.basis) == oracle_star_closure(n, gens + [extra])


def test_verify_rejects_a_closure_stopped_one_frontier_early(monkeypatch):
    gens = [unit(5, i, i + 1) for i in range(4)]
    grow, rounds = netsheaf.staralg._grow, []
    monkeypatch.setattr(netsheaf.staralg, "_grow",
                        lambda *args: rounds.append(None) or grow(*args))
    generated_star_algebra(5, gens)
    assert len(rounds) >= 3  # the last round adds nothing
    calls = []

    def stopped(*args):
        # the last round that adds to the span returns an empty frontier
        # without adding anything
        calls.append(None)
        return [] if len(calls) == len(rounds) - 1 else grow(*args)

    monkeypatch.setattr(netsheaf.staralg, "_grow", stopped)
    with pytest.raises(InputError, match="^span not closed under "):
        generated_star_algebra(5, gens)

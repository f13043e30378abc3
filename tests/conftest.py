"""Shared fixtures: small ambient sets, the two recurring pairs, and
independent oracles used to freeze expected values."""

from __future__ import annotations

from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import strategies as st

from netsheaf import AmbientSet, MonotoneMap, Partition, all_partitions
from netsheaf.descent import StabilityViolation
from netsheaf.linalg import as_matrix, flatten, identity, adjoint, unflatten
from netsheaf.partitions import (
    _Memo,
    _canonical_rgs,
    _overlap_rgs,
    _set_partition_rgs,
    coarsenings,
    common_refinement,
    is_coarser,
    iter_coarsenings,
    overlap_join,
)
from netsheaf.scalars import ONE, ZERO, GaussianRational

FIXTURES = Path(__file__).parent / "fixtures"


def ambient(n: int) -> AmbientSet:
    return AmbientSet([chr(ord("a") + i) for i in range(n)])


def random_partitions(min_points: int, max_points: int):
    """Hypothesis strategy: a partition of 'a', 'b', ... (between min_points and
    max_points of them) from arbitrary point labels, canonicalised."""

    @st.composite
    def draw_partition(draw):
        n = draw(st.integers(min_points, max_points))
        labels = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
        return Partition(ambient(n), labels)

    return draw_partition()


@pytest.fixture(scope="session")
def amb4() -> AmbientSet:
    return AmbientSet(["a", "b", "c", "d"])


@pytest.fixture(scope="session")
def square_pair(amb4):
    """The four-point pair: functions of the first / second binary coordinate."""
    a = Partition.from_blocks(amb4, [["a", "b"], ["c", "d"]])
    b = Partition.from_blocks(amb4, [["a", "c"], ["b", "d"]])
    return a, b


@pytest.fixture(scope="session")
def amb3() -> AmbientSet:
    return AmbientSet(["0", "1", "2"])


@pytest.fixture(scope="session")
def halves_pair(amb3):
    """Three points, two overlapping halves sharing the middle point."""
    left = Partition.from_blocks(amb3, [["0", "1"], ["2"]])
    right = Partition.from_blocks(amb3, [["0"], ["1", "2"]])
    return left, right


@pytest.fixture(scope="session")
def partitions_by_size():
    """All partitions of ambient sets of sizes 1..5, keyed by size."""
    return {n: all_partitions(ambient(n)) for n in range(1, 6)}


# -- independent oracles -------------------------------------------------------

def oracle_partition_of_relation(amb: AmbientSet, related) -> Partition:
    """Partition from the transitive closure of a symmetric relation on points."""
    n = len(amb)
    label = list(range(n))
    changed = True
    while changed:
        changed = False
        for i in range(n):
            for j in range(n):
                if related(i, j) and label[i] != label[j]:
                    new = min(label[i], label[j])
                    old = max(label[i], label[j])
                    label = [new if x == old else x for x in label]
                    changed = True
    return Partition(amb, label)


def oracle_join(p: Partition, q: Partition) -> Partition:
    """Functions in the generated algebra separate two points iff some
    generator does: points stay together iff both partitions keep them
    together."""
    return oracle_partition_of_relation(
        p.ambient, lambda i, j: p.rgs[i] == p.rgs[j] and q.rgs[i] == q.rgs[j]
    )


def oracle_meet(p: Partition, q: Partition) -> Partition:
    """Functions constant on both block systems are constant along any chain of
    p-steps and q-steps: transitive closure of the union relation."""
    return oracle_partition_of_relation(
        p.ambient, lambda i, j: p.rgs[i] == p.rgs[j] or q.rgs[i] == q.rgs[j]
    )


def oracle_is_coarser(p: Partition, q: Partition) -> bool:
    """Pairwise: whenever q relates two points, p must relate them."""
    n = len(p.ambient)
    return all(
        p.rgs[i] == p.rgs[j]
        for i in range(n)
        for j in range(n)
        if q.rgs[i] == q.rgs[j]
    )


def oracle_bell(n: int) -> int:
    """Bell numbers by the binomial-sum recurrence (the library uses the
    triangle, so this is an independent route)."""
    from math import comb

    values = [1]
    for m in range(n):
        values.append(sum(comb(m, k) * values[k] for k in range(m + 1)))
    return values[n]


def oracle_all_partitions(amb: AmbientSet) -> set[Partition]:
    """Recursive insertion enumeration, independent of the library's
    restricted-growth-string generator."""
    n = len(amb)

    def rec(k: int):
        if k == 0:
            yield []
            return
        for smaller in rec(k - 1):
            yield smaller + [[k - 1]]
            for i in range(len(smaller)):
                yield smaller[:i] + [smaller[i] + [k - 1]] + smaller[i + 1:]

    return {
        Partition.from_blocks(amb, [[amb.points[i] for i in block] for block in blocks])
        for blocks in rec(n)
    }


# -- finite posets, monotone maps and spans, as the tests read them --------------

def poset_leq(poset, x, y) -> bool:
    """x <= y in a FinitePoset, read off its up mask."""
    return poset.leq_idx(poset.index[x], poset.index[y])


def poset_bottom(poset):
    """The least element of a FinitePoset: the one whose up mask is full."""
    full = (1 << len(poset)) - 1
    return next(e for e, mask in zip(poset.elements, poset.up) if mask == full)


def monotone_map_from_function(source, target, f) -> MonotoneMap:
    """The MonotoneMap e |-> f(e); its constructor checks monotonicity."""
    return MonotoneMap(source, target, [target.index[f(e)] for e in source.elements])


def span_contains_span(outer, inner) -> bool:
    """Every basis row of the Span inner lies in the Span outer."""
    return all(outer.contains(row) for row in inner.rows)


def all_pairs_section_monotone(f):
    """The fiber-minimum section, found by comparing every two members of a
    fiber, tested for monotonicity on every pair of target elements; None
    when some fiber is empty or has no minimum."""
    src, tgt = f.source, f.target
    minima = []
    for q in range(len(tgt)):
        fiber = [p for p, t in enumerate(f.table) if t == q]
        least = [p for p in fiber if all(src.leq_idx(p, x) for x in fiber)]
        if not least:
            return None
        minima.append(least[0])
    return all(
        src.leq_idx(minima[q], minima[t])
        for q in range(len(tgt))
        for t in range(len(tgt))
        if tgt.leq_idx(q, t)
    )


def oracle_block_strings(p: Partition, contexts) -> list[tuple[int, ...]]:
    """Each context of p read at the first point of each block of p: a
    restricted-growth string over p's blocks, since they are ordered by least
    point.  The read-back off Partitions that `Contexts.strings` and
    `Contexts.over` replaced."""
    firsts = [block[0] for block in p.blocks]
    return [tuple(c.rgs[f] for f in firsts) for c in contexts]


def oracle_set_partition_rgs(k: int):
    """All restricted-growth strings of length k, lexicographically, by a
    recursive walk yielding through one generator per position: the walk
    that the odometer replaced."""
    if k == 0:
        yield ()
        return
    rgs = [0] * k

    def rec(i: int, maxval: int):
        if i == k:
            yield tuple(rgs)
            return
        for v in range(maxval + 2):
            rgs[i] = v
            yield from rec(i + 1, max(maxval, v))

    yield from rec(1, 0)


def oracle_descent_json(report) -> dict:
    """`DescentReport.to_json` as a dict of dicts keyed by each context's
    str(): what the rendered templates replaced, so json.dumps of it is
    the text they must render."""
    src, tgt, adjunction = report.source.elements, report.target.elements, report.adjunction
    pairs = [f"({c1}, {c2})" for c1, c2 in tgt]
    out = {
        "pair": report.pair.describe(),
        "h": {
            "source_size": len(src),
            "target_size": len(tgt),
            "injective": report.h.is_injective(),
            "surjective": report.h.is_surjective(),
            "table": {
                str(c): [str(tgt[i][0]), str(tgt[i][1])] for c, i in zip(src, report.h.table)
            },
        },
        "adjunction": {
            "adjoint_exists": adjunction.adjoint_exists,
            "is_coreflector": adjunction.is_coreflector,
            "is_iso": adjunction.is_iso,
            "adjoint": {q: str(src[i]) for q, i in zip(pairs, adjunction.adjoint.table)},
            "unit_strict": {str(c): strict for c, strict in zip(src, adjunction.unit_strict)},
            "counit_strict": dict(zip(pairs, adjunction.counit_strict)),
        },
        "thickening": {
            "surjective": report.thickening.surjective,
            "every_fiber_has_minimum": all(report.thickening.fiber_has_minimum),
            "section_monotone": report.thickening.section_monotone,
            "overall": report.thickening.overall,
        },
        "strong_locality": report.hierarchy.strong_locality,
        "unit_law": report.hierarchy.unit_law,
    }
    if report.ring_components is not None:
        out["ring_components"] = {
            str(c): rc.to_json() for c, rc in zip(src, report.ring_components)
        }
    out["sheaf"] = report.sheaf
    out["sheaf_by_characterization"] = report.sheaf_by_characterization
    return out


def oracle_h_table(pair, source, target) -> list[int]:
    """h(C) = (C n A, C n B) as target indices, with one overlap join per
    side and context: the Partition route that the block-string table
    replaced."""
    a, b = pair.left, pair.right
    position = {e: q for q, e in enumerate(target.elements)}
    return [position[(overlap_join(c, a), overlap_join(c, b))] for c in source.elements]


def oracle_adjunction_certificate(pair, source, target, h, g) -> str | None:
    """The order checks of g -| h on the tables h (C_{A v B} -> C_A x_M C_B)
    and g (back): h monotone along every Hasse cover of C_{A v B}, q <=
    h(g(q)) and g(h(C)) <= C everywhere, and g(q) the join q1 v q2, which is
    monotone.  The message of the first that fails, or None when all hold:
    the certificate that exactness of h and g replaced."""
    src, tgt = source.elements, target.elements

    def leq(x, y):
        return is_coarser(x[0], y[0]) and is_coarser(x[1], y[1])

    if any(not leq(tgt[h[i]], tgt[h[j]]) for i, j in source.covers()):
        return "h is not monotone"
    if any(not leq(q, tgt[h[p]]) for q, p in zip(tgt, g)):
        return "q <= h(g(q)) fails"
    if any(not is_coarser(src[g[q]], c) for c, q in zip(src, h)):
        return "g(h(C)) <= C fails"
    if any(src[p] != common_refinement(c1, c2) for (c1, c2), p in zip(tgt, g)):
        return "g is not the join"
    return None


def oracle_strong_locality_witness(a: Partition, b: Partition):
    """The first (C, D, side, actual) in C_A x C_B, in canonical order, with
    (C v D) n side-algebra != that context, from the full context tuples:
    the walk that the lazy one replaced."""
    for c in coarsenings(a):
        for d in coarsenings(b):
            joined = common_refinement(c, d)
            for side, context, algebra in (("left", c, a), ("right", d, b)):
                actual = overlap_join(joined, algebra)
                if actual != context:
                    return c, d, side, actual
    return None


def oracle_rebuilt_strong_locality_witness(a: Partition, b: Partition):
    """The same first witness as `oracle_strong_locality_witness`, from a
    walk that builds each context as it visits it, C_B anew for every
    context of A: the walk that the lazily extended list of C_B replaced."""
    for c in iter_coarsenings(a):
        for d in iter_coarsenings(b):
            joined = common_refinement(c, d)
            back_left = overlap_join(joined, a)
            if back_left != c:
                return (c, d, "left", back_left)
            back_right = overlap_join(joined, b)
            if back_right != d:
                return (c, d, "right", back_right)
    return None


def oracle_unit_law_witnesses(a: Partition, b: Partition) -> tuple[Partition, ...]:
    """All contexts C of A v B with (C n A) v (C n B) != C, in canonical
    order, by one overlap join per side and context: the Partition route
    that the block-string sweep replaced."""
    return tuple(
        c
        for c in coarsenings(common_refinement(a, b))
        if common_refinement(overlap_join(c, a), overlap_join(c, b)) != c
    )


def oracle_unit_law_failures(c: tuple, d: tuple):
    """Each context E of C v D with (E n C) v (E n D) != E, paired with that
    join, in canonical order, for contexts C, D given as block strings over
    one partition's blocks: the sweep keyed by the strings themselves, each
    meet one union-find on E's string, and each E below C v D picked out of
    all the strings of that length by testing that it groups each block of
    C v D together.  Covering stability, by the restriction kernel and
    memos of indices, replaced it."""
    joins = _Memo(lambda xy: _canonical_rgs(tuple(zip(*xy))))
    left, right = (_Memo(lambda e, x=x: _overlap_rgs(e, x)) for x in (c, d))
    top = joins[c, d]
    below = (e for e in _set_partition_rgs(len(top)) if len(set(zip(top, e))) == max(top) + 1)
    for e in below:
        g = joins[left[e], right[e]]
        if g != e:
            yield e, g


def oracle_covering_stability(pair):
    """Every (E, C, D) in C_{A v B} x C_A x C_B with E <= C v D and
    E != (E n C) v (E n D), by testing every triple in that order."""
    violations = []
    for e in coarsenings(common_refinement(pair.left, pair.right)):
        for c in coarsenings(pair.left):
            for d in coarsenings(pair.right):
                if not is_coarser(e, common_refinement(c, d)):
                    continue
                generated = common_refinement(overlap_join(e, c), overlap_join(e, d))
                if generated != e:
                    violations.append(StabilityViolation(e, c, d, generated))
    return tuple(violations)


# -- spacetime posets -------------------------------------------------------------

def oracle_closure(n: int, pairs) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Up and down masks of the reflexive-transitive closure of index pairs
    on n regions, by OR-ing successors' masks until no mask changes: the
    fixed-point loop that SpacetimePoset ran before Warshall's pass."""
    up = [1 << i for i in range(n)]
    for a, b in pairs:
        up[a] |= 1 << b
    changed = True
    while changed:
        changed = False
        for i in range(n):
            m, acc = up[i], up[i]
            while m:
                j = (m & -m).bit_length() - 1
                m &= m - 1
                acc |= up[j]
            if acc != up[i]:
                up[i] = acc
                changed = True
    down = [sum(1 << i for i in range(n) if (up[i] >> j) & 1) for j in range(n)]
    return tuple(up), tuple(down)


def oracle_bound(spacetime, a: str, b: str, kind: str) -> str | None:
    """The meet or join of two regions by pairwise filtering of the common
    lower or upper bounds, the first in label order that bounds them all:
    the route SpacetimePoset took before its down-set masks."""
    leq = spacetime.leq
    n = len(spacetime.regions)
    ia, ib = spacetime.index[a], spacetime.index[b]
    if kind == "meet":
        candidates = [i for i in range(n) if (leq[i] >> ia) & 1 and (leq[i] >> ib) & 1]
        best = [i for i in candidates if all((leq[j] >> i) & 1 for j in candidates)]
    else:
        candidates = [i for i in range(n) if (leq[ia] >> i) & 1 and (leq[ib] >> i) & 1]
        best = [i for i in candidates if all((leq[i] >> j) & 1 for j in candidates)]
    return spacetime.regions[best[0]] if best else None


# -- valuations: the Fraction routes that the integer checks replaced ----------

def oracle_valuation_refusal(spectrum, weights) -> str | None:
    """The message with which the Fraction route refused a weight vector (sign
    and mass tested by Fraction comparison and summation), or None if it
    accepted it."""
    converted = []
    for w in weights:
        if isinstance(w, Fraction):
            converted.append(w)
        elif isinstance(w, int) and not isinstance(w, bool):
            converted.append(Fraction(w))
        else:
            return f"valuation weights must be exact rationals, got {w!r}"
    if len(converted) != len(spectrum):
        return (
            f"expected {len(spectrum)} weights for {spectrum.context}, "
            f"got {len(converted)}"
        )
    if any(w < 0 for w in converted):
        return "valuation weights must be nonnegative"
    total = sum(converted)
    if total != 1:
        return f"valuation weights must sum to 1, got {total}"
    return None


def oracle_positive_samples(k, rng, count, max_denominator):
    """A reference stars-and-bars sampler: k - 1 distinct cuts drawn from
    1..den-1 and sorted, each weight Fraction(gap, den) for the gaps between
    0, the cuts and den: the draw sequence that valuations._positive_samples
    must keep."""
    out = []
    for _ in range(count):
        den = rng.randint(k, max_denominator)
        bars = [0] + sorted(rng.sample(range(1, den), k - 1)) + [den]
        out.append(tuple(Fraction(bars[i + 1] - bars[i], den) for i in range(k)))
    return out


def oracle_valuation_sweep(pair) -> bool:
    """The AND over every context pair (C, D) in C_A x C_B of "every block of
    C meets every block of D" (one label pair per block pair): the sweep
    that valuations decided the verdict by before the closed form on (A, B)."""
    return all(
        len(set(zip(c.rgs, d.rgs))) == c.num_blocks * d.num_blocks
        for c in coarsenings(pair.left)
        for d in coarsenings(pair.right)
    )


# -- dense exact linear algebra over Q[i] ---------------------------------------
#
# The library's kernels skip zero entries.  These references touch every
# entry, as the kernels once did; in Q[i] adding a zero term changes nothing,
# so both must give the same values.

def oracle_mat_mul(a, b):
    """Every entry the full sum over the inner index."""
    bt = tuple(zip(*b))
    return tuple(
        tuple(sum((x * y for x, y in zip(row, col)), ZERO) for col in bt)
        for row in a
    )


def oracle_rref(rows):
    """Reduced row echelon form, each row update across every column."""
    work = [list(r) for r in rows]
    if not work:
        return (), ()
    pivots = []
    r = 0
    for c in range(len(work[0])):
        pivot_row = next((i for i in range(r, len(work)) if work[i][c]), None)
        if pivot_row is None:
            continue
        work[r], work[pivot_row] = work[pivot_row], work[r]
        pv = work[r][c]
        if pv != ONE:
            inv = ONE / pv
            work[r] = [inv * x for x in work[r]]
        for i in range(len(work)):
            if i != r and work[i][c]:
                f = work[i][c]
                work[i] = [x - f * y for x, y in zip(work[i], work[r])]
        pivots.append(c)
        r += 1
        if r == len(work):
            break
    return tuple(tuple(row) for row in work[:r]), tuple(pivots)


def oracle_reduce(rows, pivots, v):
    """(residual, coefficients) of v against reduced rows, every entry updated."""
    res = list(v)
    coeffs = []
    for row, p in zip(rows, pivots):
        c = res[p]
        coeffs.append(c)
        if c:
            res = [x - c * y for x, y in zip(res, row)]
    return tuple(res), tuple(coeffs)


def oracle_kernel_basis(rows, ncols):
    reduced, pivots = oracle_rref(rows)
    basis = []
    for f in (c for c in range(ncols) if c not in pivots):
        v = [ZERO] * ncols
        v[f] = ONE
        for r, p in enumerate(pivots):
            v[p] = -reduced[r][f]
        basis.append(tuple(v))
    return tuple(basis)


def oracle_span_intersection(a, b, ncols):
    if not a or not b:
        return ()
    eqs = [tuple(v[c] for v in a) + tuple(-v[c] for v in b) for c in range(ncols)]
    vectors = []
    for sol in oracle_kernel_basis(eqs, len(a) + len(b)):
        vec = [ZERO] * ncols
        for s, v in zip(sol, a):
            if s:
                vec = [x + s * y for x, y in zip(vec, v)]
        vectors.append(tuple(vec))
    return oracle_rref(vectors)[0]


def oracle_star_closure(n, generators):
    """Flattened canonical basis of the *-algebra generated in M_n: the
    identity, the generators and their adjoints, closed under products by
    dense products and dense row reduction until the dimension is stable."""
    seed = [identity(n)]
    for g in generators:
        seed += [g, adjoint(g)]
    rows, _ = oracle_rref([flatten(m) for m in seed])
    while True:
        mats = [unflatten(v, n) for v in rows]
        products = [flatten(oracle_mat_mul(x, y)) for x in mats for y in mats]
        grown, _ = oracle_rref(list(rows) + products)
        if len(grown) == len(rows):
            return rows
        rows = grown


def gaussian_matrices(rows, cols):
    """Hypothesis strategy: a rows x cols matrix over Q[i], sparse (about one
    entry in four nonzero) or dense, with complex entries and denominators,
    so pivots are rarely 1, and sometimes with a zero row."""
    part = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
    entry = st.builds(GaussianRational, part, st.one_of(st.just(0), part))

    @st.composite
    def draw_matrix(draw):
        nrows = draw(rows) if isinstance(rows, st.SearchStrategy) else rows
        ncols = draw(cols) if isinstance(cols, st.SearchStrategy) else cols
        cell = entry if draw(st.booleans()) else st.one_of(
            st.just(ZERO), st.just(ZERO), st.just(ZERO), entry
        )
        m = [[draw(cell) for _ in range(ncols)] for _ in range(nrows)]
        if nrows and draw(st.booleans()):
            m[draw(st.integers(0, nrows - 1))] = [ZERO] * ncols
        return as_matrix(m)

    return draw_matrix()

"""The independence hierarchy for a pair of subalgebras.

Decides microcausality, extended locality, the Schlieder property,
C*-independence, product-sense independence, strong locality and the unit
law, for two engines:

* the partition engine (commutative function algebras on a finite set),
  where every condition is decided exactly;
* the matrix engine (*-subalgebras of M_n over Q[i]), where Schlieder is
  decided exactly for commuting pairs (it holds iff the multiplication map
  A (x) B -> A v B is injective) and reported as "undetermined" for
  non-commuting ones, and the context-quantified conditions are not
  available at all.

The five context-free conditions of a pair are decided together, in one
pass.  All failures come with witnesses, and every assembled report is
checked against the implication chain

    product sense => C*-independent => strongly local
                  => extended locality => microcausality;

a violation is a bug in this package, never a property of the input.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations, islice
from typing import Iterator, NamedTuple, Optional, Union

from .contexts import DEFAULT_MAX_BELL, Contexts, _restrictions, block_map, guard_contexts
from .errors import EngineError, Immutable, InputError, InternalConsistencyError
from .linalg import mat_str
from .partitions import (
    Partition,
    _canonical_rgs,
    bell_number,
    common_refinement,
    is_coarser,
    iter_coarsenings,
    overlap_join,
)
from .staralg import (
    StarAlgebra,
    _commuting_kernel_dim,
    commuting_witness,
    intersection_algebra,
)

UNDETERMINED = "undetermined"
Verdict = Union[bool, str]

PARTITION_ENGINE = "partition"
MATRIX_ENGINE = "matrix"

CONDITIONS = (
    "microcausality",
    "extended_locality",
    "schlieder",
    "cstar_independent",
    "product_sense",
    "strong_locality",
    "unit_law",
)

WITNESS_LIMIT = 50  # reports list at most this many failing contexts


class AlgebraPair(Immutable):
    """Two subalgebras of a common ambient algebra, plus the meet algebra used
    by the descent machinery (defaults to the intersection A n B)."""

    __slots__ = ("engine", "left", "right", "meet_algebra")

    def __init__(self, left, right, meet_algebra: Optional[Partition] = None):
        if isinstance(left, Partition) and isinstance(right, Partition):
            if left.ambient != right.ambient:
                raise InputError("pair members live over different ambient sets")
            engine = PARTITION_ENGINE
            if meet_algebra is None:
                meet_algebra = overlap_join(left, right)
            else:
                if meet_algebra.ambient != left.ambient:
                    raise InputError("meet algebra lives over a different ambient set")
                if not (is_coarser(meet_algebra, left) and is_coarser(meet_algebra, right)):
                    raise InputError(
                        f"meet algebra {meet_algebra} is not contained in both members"
                    )
        elif isinstance(left, StarAlgebra) and isinstance(right, StarAlgebra):
            if left.n != right.n:
                raise InputError(
                    f"pair members have different matrix dimensions: {left.n} vs {right.n}"
                )
            if meet_algebra is not None:
                raise InputError("meet algebras are a partition-engine concept")
            engine = MATRIX_ENGINE
        else:
            raise InputError("pair members must be two Partitions or two StarAlgebras")
        object.__setattr__(self, "engine", engine)
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)
        object.__setattr__(self, "meet_algebra", meet_algebra)

    def __eq__(self, other):
        return (
            isinstance(other, AlgebraPair)
            and self.left == other.left
            and self.right == other.right
            and self.meet_algebra == other.meet_algebra
        )

    def __hash__(self):
        return hash((self.left, self.right, self.meet_algebra))

    def require_partition_engine(self, operation: str):
        if self.engine != PARTITION_ENGINE:
            raise EngineError(f"{operation} requires the partition engine")

    def describe(self) -> dict:
        if self.engine == PARTITION_ENGINE:
            return {
                "engine": self.engine,
                "left": str(self.left),
                "right": str(self.right),
                "meet_algebra": str(self.meet_algebra),
            }
        return {
            "engine": self.engine,
            "left": {"n": self.left.n, "dim": self.left.dim},
            "right": {"n": self.right.n, "dim": self.right.dim},
        }


# -- the context-free conditions ---------------------------------------------

class _PairFacts(NamedTuple):
    """The five context-free conditions of one pair, decided together, and
    the witnesses of their failures in report order."""

    microcausality: bool
    extended_locality: bool
    schlieder: Verdict
    cstar_independent: Verdict
    product_sense: bool
    witnesses: dict


def _pair_facts(pair: AlgebraPair) -> _PairFacts:
    if pair.engine == PARTITION_ENGINE:
        return _partition_facts(pair)
    return _matrix_facts(pair)


def _schlieder_witness(a: Partition, b: Partition) -> Optional[tuple[int, int]]:
    """First (a-block, b-block) index pair with empty intersection, if any."""
    for i, pblock in enumerate(a.blocks):
        pset = set(pblock)
        for j, qblock in enumerate(b.blocks):
            if pset.isdisjoint(qblock):
                return (i, j)
    return None


def _partition_facts(pair: AlgebraPair) -> _PairFacts:
    """Product sense (the join has a*b blocks) is the decision: block
    indicator functions multiply to zero exactly when the blocks are
    disjoint, so it is also Schlieder and C*-independence.  The
    block-intersection scan is the second route and must agree."""
    a, b = pair.left, pair.right
    meet = overlap_join(a, b)
    joined = common_refinement(a, b)
    expected = a.num_blocks * b.num_blocks
    product = joined.num_blocks == expected
    disjoint = _schlieder_witness(a, b)
    if (disjoint is None) != product:
        raise InternalConsistencyError(
            "block-intersection scan disagrees with the block count of the join",
            dump={
                "pair": pair.describe(),
                "join_blocks": joined.num_blocks,
                "expected_blocks": expected,
                "disjoint_block_indices": disjoint,
            },
        )
    ext = meet.num_blocks == 1
    witnesses: dict = {}
    if not ext:
        witnesses["extended_locality"] = {"intersection": str(meet)}
    if not product:
        i, j = disjoint
        witnesses["schlieder"] = {
            "left_block": a.block_label(i),
            "right_block": b.block_label(j),
            "note": "the two block indicator functions multiply to zero",
        }
        witnesses["product_sense"] = {
            "join_blocks": joined.num_blocks,
            "expected_blocks": expected,
        }
    return _PairFacts(True, ext, product, product, product, witnesses)


def _is_scalar_matrix(m) -> bool:
    diag = m[0][0]
    return all(
        m[i][j] == (diag if i == j else type(diag)(0))
        for i in range(len(m))
        for j in range(len(m))
    )


def _matrix_facts(pair: AlgebraPair) -> _PairFacts:
    """For commuting A, B the multiplication map A (x) B -> A v B is a
    *-homomorphism, and its kernel is a sum of simple summands with units
    p (x) q, p and q minimal central projections of A and B with pq = 0.
    So Schlieder, product sense and C*-independence all mean kernel 0
    (Roos, CMP 16 (1970) 238).  Without commutation Schlieder is left
    undetermined."""
    a, b = pair.left, pair.right
    w = commuting_witness(a, b)
    if w is not None:
        i, j, c = w
        witness = {"left_basis_index": i, "right_basis_index": j, "commutator": mat_str(c)}
        return _PairFacts(
            False, False, UNDETERMINED, False, False, {"microcausality": witness}
        )
    inter = intersection_algebra(a, b)
    kernel = _commuting_kernel_dim(a, b)
    witnesses: dict = {}
    if inter.dim != 1:
        nonscalar = next((m for m in inter.basis if not _is_scalar_matrix(m)), None)
        witnesses["extended_locality"] = {
            "intersection_dim": inter.dim,
            "nonscalar_element": None if nonscalar is None else mat_str(nonscalar),
        }
    if kernel:
        witnesses["schlieder"] = {"multiplication_kernel_dim": kernel}
        witnesses["product_sense"] = {"multiplication_kernel_dim": kernel}
    return _PairFacts(True, inter.dim == 1, kernel == 0, kernel == 0, kernel == 0, witnesses)


def microcausality(pair: AlgebraPair) -> bool:
    """[A, B] = {0}.  Automatic in the partition engine; basis-pair
    commutators decide it exactly in the matrix engine."""
    return _pair_facts(pair).microcausality


def extended_locality(pair: AlgebraPair) -> bool:
    """Microcausality plus A n B = scalars."""
    return _pair_facts(pair).extended_locality


def schlieder(pair: AlgebraPair) -> Verdict:
    """The Schlieder property: ab = 0 forces a = 0 or b = 0.

    Partition engine: every block of A meets every block of B.  Matrix
    engine: exact for commuting pairs (the multiplication map is
    injective), undetermined otherwise.
    """
    return _pair_facts(pair).schlieder


def cstar_independent(pair: AlgebraPair) -> Verdict:
    """Microcausality together with the Schlieder property."""
    return _pair_facts(pair).cstar_independent


def product_sense(pair: AlgebraPair) -> bool:
    """Microcausality plus injectivity of the multiplication map
    a (x) b -> ab, i.e. A v B isomorphic to A (x) B."""
    return _pair_facts(pair).product_sense


def _strong_locality_witness(a: Partition, b: Partition) -> Optional[tuple]:
    """First (C, D, side, actual) with (C v D) n side-algebra != that context,
    in canonical order, from a walk that builds each context as it first
    visits it: C_B goes into a list that the first pass extends."""
    seen: list[Partition] = []
    rest = iter_coarsenings(b)

    def contexts_of_b() -> Iterator[Partition]:
        yield from seen
        for d in rest:
            seen.append(d)
            yield d

    for c in iter_coarsenings(a):
        for d in contexts_of_b():
            joined = common_refinement(c, d)
            back_left = overlap_join(joined, a)
            if back_left != c:
                return (c, d, "left", back_left)
            back_right = overlap_join(joined, b)
            if back_right != d:
                return (c, d, "right", back_right)
    return None


def _meet_in_common(a: Partition, b: Partition) -> bool:
    """Every two blocks of a meet a common block of b."""
    meets = [0] * a.num_blocks
    for i, j in zip(a.rgs, b.rgs):
        meets[i] |= 1 << j
    return all(x & y for x, y in combinations(meets, 2))


def strong_locality(pair: AlgebraPair, max_bell: int = DEFAULT_MAX_BELL) -> bool:
    """Microcausality plus (C v D) n A = C and (C v D) n B = D for every
    context C of A and D of B.

    Decided on the block graph: it holds iff every two blocks of A meet a
    common block of B, and every two blocks of B a common block of A.  If
    blocks a, a' of A lie in one block of C and both meet b, then points of
    a n b and a' n b share a block of C v D, so (C v D) n A, which always
    contains C, joins a and a' as C does.  If a and a' meet no common
    B-block, the C that joins only a and a' gives (C v B) n A = A != C."""
    pair.require_partition_engine("strong locality")
    guard_contexts(max_bell, pair.left, pair.right)
    a, b = pair.left, pair.right
    return _meet_in_common(a, b) and _meet_in_common(b, a)


def _join_image_failures(a: Partition, b: Partition) -> tuple[int, tuple[Partition, ...]]:
    """The contexts of A v B outside the joins C v D over C_A x C_B: their
    number, and the first WITNESS_LIMIT of them in canonical order.  Every
    context is read as its block string over A v B's blocks, the joins from
    C_A and C_B read over them, and C_{A v B} is walked lazily; only the
    witnesses listed become Partitions."""
    joined = common_refinement(a, b)
    rights = tuple(Contexts(b).over(joined))
    joins = {_canonical_rgs(tuple(zip(c, d))) for c in Contexts(a).over(joined) for d in rights}
    missing = (e for e in Contexts(joined).strings() if e not in joins)
    first = tuple(
        Partition._canonical(joined.ambient, tuple([e[k] for k in joined.rgs]))
        for e in islice(missing, WITNESS_LIMIT)
    )
    return bell_number(joined.num_blocks) - len(joins), first


def _unit_law_failures(a: Partition, b: Partition) -> tuple[int, tuple[Partition, ...]]:
    """How many contexts C of A v B have (C n A) v (C n B) != C, and the first
    WITNESS_LIMIT of them in canonical order.

    The contexts that satisfy the law are exactly the joins C v D of a
    context of A and one of B: C <= E n A and D <= E n B for E = C v D, so
    E <= (E n A) v (E n B) <= E.  So the failures are the contexts outside
    the join image, found with |C_A|*|C_B| joins, unless that is more than
    |C_{A v B}|, where the sweep over C_{A v B} is the cheaper route."""
    contexts = bell_number(common_refinement(a, b).num_blocks)
    if bell_number(a.num_blocks) * bell_number(b.num_blocks) <= contexts:
        return _join_image_failures(a, b)
    return _sweep_failures(a, b)


def _sweep_failures(a: Partition, b: Partition) -> tuple[int, tuple[Partition, ...]]:
    """The contexts E of A v B with (E n A) v (E n B) != E: their number, and
    the first WITNESS_LIMIT of them in canonical order, from one sweep of
    C_{A v B} that reads E n A and E n B from the restriction kernel
    (`contexts._restrictions`), each at the block of A, or of B, holding
    each block of A v B.  E refines both restrictions, so E refines their
    join, and E fails iff that join has fewer blocks than E.  Only the
    witnesses listed become Partitions."""
    joined = common_refinement(a, b)
    source = Contexts(joined)
    over_a, over_b = block_map(a, joined), block_map(b, joined)
    restricted = zip(source.strings(), _restrictions(source, over_a),
                     _restrictions(source, over_b))
    failures = (e for e, x, y in restricted
                if len(set(zip(map(x.__getitem__, over_a), map(y.__getitem__, over_b)))) <= max(e))
    first = tuple(
        Partition._canonical(joined.ambient, tuple([e[k] for k in joined.rgs]))
        for e in islice(failures, WITNESS_LIMIT)
    )
    return len(first) + sum(1 for _ in failures), first


def unit_law(pair: AlgebraPair, max_bell: int = DEFAULT_MAX_BELL) -> bool:
    """Every context of A v B is generated by its restrictions to A and B.

    Holds iff A and B are comparable.  If B refines A, then A v B = B and
    C n B = C for every context C.  Otherwise some block a of A meets two
    B-blocks b1, b2, and some block b of B meets two A-blocks a1, a2.  If a
    meets b, say a = a1 and b = b1, let C merge only a2 n b with a n b2: the
    join of its restrictions also glues a n b onto that block.  If a misses
    b, let C merge a n b1 with a1 n b, and a n b2 with a2 n b: the join of
    its restrictions glues the two merged blocks together.  Either way
    (C n A) v (C n B) != C."""
    pair.require_partition_engine("the unit law")
    a, b = pair.left, pair.right
    guard_contexts(max_bell, common_refinement(a, b))
    return is_coarser(a, b) or is_coarser(b, a)


# -- the assembled report -----------------------------------------------------

@dataclass(frozen=True)
class HierarchyReport:
    """All seven conditions for one pair, with witnesses for the failures."""

    engine: str
    microcausality: Verdict
    extended_locality: Verdict
    schlieder: Verdict
    cstar_independent: Verdict
    product_sense: Verdict
    strong_locality: Verdict
    unit_law: Verdict
    witnesses: dict = field(default_factory=dict)

    def value(self, condition: str) -> Verdict:
        if condition not in CONDITIONS:
            raise InputError(
                f"unknown condition {condition!r}; choose from {', '.join(CONDITIONS)}"
            )
        return getattr(self, condition)

    def to_json(self) -> dict:
        out = {"engine": self.engine}
        out.update({name: getattr(self, name) for name in CONDITIONS})
        out["witnesses"] = self.witnesses
        return out


_CHAIN = (
    "product_sense",
    "cstar_independent",
    "strong_locality",
    "extended_locality",
    "microcausality",
)


def _verify_chain(report: HierarchyReport, pair: AlgebraPair):
    values = [(name, report.value(name)) for name in _CHAIN]
    for (stronger, sv), (weaker, wv) in zip(values, values[1:]):
        if sv is True and wv is False:
            raise InternalConsistencyError(
                f"implication chain violated: {stronger} holds but {weaker} fails",
                dump={"pair": pair.describe(), "report": report.to_json()},
            )


def hierarchy_report(pair: AlgebraPair, max_bell: int = DEFAULT_MAX_BELL) -> HierarchyReport:
    """Run every condition, attach witnesses, and trap implication-chain bugs.
    After the Bell guards of A, B and A v B, strong locality and the unit law
    are decided on the block graph; a context search runs only for the
    witnesses of a failure, and must find one."""
    facts = _pair_facts(pair)._asdict()
    witnesses = facts["witnesses"]
    if pair.engine == PARTITION_ENGINE:
        a, b = pair.left, pair.right
        # strong_locality guards A and B, then unit_law guards A v B
        strong, unit = strong_locality(pair, max_bell), unit_law(pair, max_bell)
        if not strong:
            strong_failure = _strong_locality_witness(a, b)
            if strong_failure is None:
                raise InternalConsistencyError(
                    "strong locality fails on the block graph, "
                    "but no pair of contexts violates it",
                    dump={"pair": pair.describe()},
                )
            c, d, side, actual = strong_failure
            witnesses["strong_locality"] = {
                "context_of_left": str(c),
                "context_of_right": str(d),
                "failing_side": side,
                "restriction_of_join": str(actual),
            }
        if not unit:
            count, first = _unit_law_failures(a, b)
            if not count or len(first) != min(count, WITNESS_LIMIT):
                raise InternalConsistencyError(
                    "the unit law fails on an incomparable pair, but the witness "
                    f"search counts {count} failing contexts and lists {len(first)}",
                    dump={"pair": pair.describe()},
                )
            witnesses["unit_law"] = {
                "count": count,
                "contexts": [str(c) for c in first],
                "truncated": count > WITNESS_LIMIT,
            }
    else:
        strong = UNDETERMINED
        unit = UNDETERMINED
        witnesses["note"] = (
            "strong locality and the unit law quantify over context posets, "
            "which are only enumerable in the partition engine"
        )

    report = HierarchyReport(
        engine=pair.engine, strong_locality=strong, unit_law=unit, **facts
    )
    _verify_chain(report, pair)
    return report

"""Finite spacetime posets and nets of partition subalgebras.

A spacetime poset carries region labels, an order (closed reflexively and
transitively on construction) that must be a lattice, and a symmetric
irreflexive spacelike relation.  A net assigns a partition subalgebra to
every region, isotonically.  Analysis runs the full pair toolbox on every
spacelike pair, taking the meet algebra from the net: A(O1 ^ O2) may be
strictly smaller than A(O1) n A(O2), and both are reported when they differ.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Optional

from .contexts import DEFAULT_MAX_BELL
from .descent import DescentReport, sheaf_report
from .errors import Immutable, InputError
from .independence import AlgebraPair, HierarchyReport
from .partitions import Partition, is_coarser, overlap_join


class SpacetimePoset(Immutable):
    """Labeled regions with an order relation and a spacelike relation.

    The given order pairs are closed reflexively and transitively here;
    validation reports (rather than raises) antisymmetry failures, missing
    meets/joins, and spacelike pairs that are not irreflexive.
    """

    __slots__ = ("regions", "index", "leq", "down", "spacelike", "raw_spacelike")

    def __init__(
        self,
        regions: Iterable[str],
        leq: Iterable[tuple[str, str]],
        spacelike: Iterable[tuple[str, str]],
    ):
        regions = tuple(regions)
        if len(set(regions)) != len(regions):
            raise InputError("region labels must be distinct")
        index = {r: i for i, r in enumerate(regions)}
        n = len(regions)

        def check(label: str) -> int:
            if label not in index:
                raise InputError(f"unknown region label {label!r}")
            return index[label]

        up = [1 << i for i in range(n)]
        for a, b in leq:
            up[check(a)] |= 1 << check(b)
        # Warshall: after step k, up[i] holds every j reachable from i
        # through intermediate regions 0..k.
        for k in range(n):
            bit = 1 << k
            for i in range(n):
                if up[i] & bit:
                    up[i] |= up[k]
        down = [sum(1 << i for i in range(n) if (up[i] >> j) & 1) for j in range(n)]

        raw = tuple((a, b) for a, b in spacelike)
        for a, b in raw:
            check(a)
            check(b)
        sym = frozenset(
            pair
            for a, b in raw
            if a != b
            for pair in ((a, b), (b, a))
        )
        object.__setattr__(self, "regions", regions)
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "leq", tuple(up))
        object.__setattr__(self, "down", tuple(down))
        object.__setattr__(self, "spacelike", sym)
        object.__setattr__(self, "raw_spacelike", raw)

    def is_leq(self, a: str, b: str) -> bool:
        return bool((self.leq[self.index[a]] >> self.index[b]) & 1)

    def _bound(self, a: str, b: str, kind: str) -> Optional[str]:
        """The first common lower (meet) or upper (join) bound of a and b, in
        label order, that lies above (below) every other one."""
        masks = self.down if kind == "meet" else self.leq
        candidates = masks[self.index[a]] & masks[self.index[b]]
        rest = candidates
        while rest:
            low = rest & -rest
            i = low.bit_length() - 1
            if not candidates & ~masks[i]:
                return self.regions[i]
            rest ^= low
        return None

    def meet(self, a: str, b: str) -> Optional[str]:
        return self._bound(a, b, "meet")

    def join(self, a: str, b: str) -> Optional[str]:
        return self._bound(a, b, "join")

    def spacelike_pairs(self) -> tuple[tuple[str, str], ...]:
        """Unordered spacelike pairs, deterministically ordered by labels."""
        seen = {tuple(sorted(p)) for p in self.spacelike}
        return tuple(sorted(seen))


@dataclass(frozen=True)
class NetSpec:
    """A net: a spacetime poset plus an assignment of partitions to regions."""

    spacetime: SpacetimePoset
    assignment: Mapping[str, Partition]

    def __post_init__(self):
        missing = [r for r in self.spacetime.regions if r not in self.assignment]
        if missing:
            raise InputError(f"net assignment misses regions {missing}")
        ambients = {p.ambient for p in self.assignment.values()}
        if len(ambients) != 1:
            raise InputError("all assigned algebras must share one ambient set")


@dataclass(frozen=True)
class NetValidation:
    ok: bool
    violations: tuple[dict, ...]

    def to_json(self) -> dict:
        return {"ok": self.ok, "violations": [dict(v) for v in self.violations]}


class NetValidationError(InputError):
    """``analyze_net`` refused a net; ``validation`` lists the violations."""

    def __init__(self, validation: NetValidation):
        super().__init__("net failed validation; run validate_net for the violation list")
        self.validation = validation


def validate_net(spec: NetSpec) -> NetValidation:
    """Check lattice axioms, the spacelike relation shape, and isotony.

    Violations are collected with witnesses, never raised.
    """
    st = spec.spacetime
    violations: list[dict] = []
    n = len(st.regions)
    for i in range(n):
        for j in range(i + 1, n):
            a, b = st.regions[i], st.regions[j]
            if st.is_leq(a, b) and st.is_leq(b, a):
                violations.append(
                    {"kind": "antisymmetry", "regions": [a, b],
                     "detail": "order contains a cycle through these regions"}
                )
    for i in range(n):
        for j in range(i, n):
            a, b = st.regions[i], st.regions[j]
            if st.meet(a, b) is None:
                violations.append(
                    {"kind": "lattice", "regions": [a, b], "detail": "missing meet"}
                )
            if st.join(a, b) is None:
                violations.append(
                    {"kind": "lattice", "regions": [a, b], "detail": "missing join"}
                )
    for a, b in st.raw_spacelike:
        if a == b:
            violations.append(
                {"kind": "spacelike", "regions": [a, b],
                 "detail": "spacelike relation must be irreflexive"}
            )
    for a in st.regions:
        for b in st.regions:
            if a != b and st.is_leq(a, b):
                if not is_coarser(spec.assignment[a], spec.assignment[b]):
                    violations.append(
                        {"kind": "isotony", "regions": [a, b],
                         "detail": f"A({a}) = {spec.assignment[a]} is not contained "
                                   f"in A({b}) = {spec.assignment[b]}"}
                    )
    return NetValidation(ok=not violations, violations=tuple(violations))


@dataclass(frozen=True)
class PairAnalysis:
    regions: tuple[str, str]
    meet_region: str
    meet_algebra: Partition
    intersection: Partition
    descent: DescentReport

    @property
    def hierarchy(self) -> HierarchyReport:
        return self.descent.hierarchy

    @property
    def meet_differs(self) -> bool:
        return self.meet_algebra != self.intersection

    def to_json(self) -> dict:
        out = {
            "regions": list(self.regions),
            "meet_region": self.meet_region,
            "meet_algebra": str(self.meet_algebra),
            "intersection": str(self.intersection),
            "meet_differs": self.meet_differs,
            "hierarchy": self.hierarchy.to_json(),
            "descent": self.descent.to_json(),
        }
        return out


@dataclass(frozen=True)
class NetReport:
    """Per-spacelike-pair reports plus net-wide flags.

    ``strongly_local_net`` is the net-level notion: every spacelike pair's
    descent map is a coreflector with respect to the net's meet algebra.
    The pair-level quantification over all context pairs sits in each
    hierarchy report.
    """

    validation: NetValidation
    pairs: tuple[PairAnalysis, ...]
    strongly_local_net: bool
    sheaf_net: bool
    cstar_independent_net: bool

    def to_json(self) -> dict:
        return {
            "validation": self.validation.to_json(),
            "pairs": [p.to_json() for p in self.pairs],
            "summary": {
                "strongly_local_net": self.strongly_local_net,
                "sheaf_net": self.sheaf_net,
                "cstar_independent_net": self.cstar_independent_net,
            },
        }


def analyze_net(spec: NetSpec, max_bell: int = DEFAULT_MAX_BELL) -> NetReport:
    """Validate, then run hierarchy and sheaf analysis on every spacelike pair
    with the meet algebra taken from the net.

    No additivity of the net is assumed anywhere.  Net flags are conjunctions
    over spacelike pairs, so an empty spacelike relation reports all-true.
    """
    validation = validate_net(spec)
    if not validation.ok:
        raise NetValidationError(validation)
    st = spec.spacetime
    analyses = []
    for a, b in st.spacelike_pairs():
        meet_region = st.meet(a, b)
        assert meet_region is not None  # validation guarantees a lattice
        meet_algebra = spec.assignment[meet_region]
        left, right = spec.assignment[a], spec.assignment[b]
        pair = AlgebraPair(left, right, meet_algebra=meet_algebra)
        analyses.append(
            PairAnalysis(
                regions=(a, b),
                meet_region=meet_region,
                meet_algebra=meet_algebra,
                intersection=overlap_join(left, right),
                descent=sheaf_report(pair, max_bell),
            )
        )
    return NetReport(
        validation=validation,
        pairs=tuple(analyses),
        strongly_local_net=all(p.descent.adjunction.is_coreflector for p in analyses),
        sheaf_net=all(p.descent.sheaf for p in analyses),
        cstar_independent_net=all(
            p.hierarchy.cstar_independent is True for p in analyses
        ),
    )

"""Finite spectral presheaf: spectra, restriction maps, rational valuations.

The spectrum of a context is its block set; a probability valuation is an
exact rational distribution on those blocks.  Products of valuations decide
C*-independence: the candidate product valuation on C v D exists iff no
empty block intersection carries positive mass, so for strictly positive
inputs iff every block of C meets every block of D.  Over all context pairs
of (A, B) that holds iff every A-block meets every B-block, the Schlieder
property, which the pair alone decides.
"""

from __future__ import annotations

import math
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .contexts import DEFAULT_MAX_BELL, block_map, guard_contexts
from .errors import Immutable, InputError, InternalConsistencyError
from .independence import AlgebraPair, cstar_independent
from .partitions import Partition, common_refinement, is_coarser


@dataclass(frozen=True)
class Spectrum:
    """The Gelfand spectrum of a context: its blocks, in canonical order."""

    context: Partition

    @property
    def points(self) -> tuple[tuple[int, ...], ...]:
        return self.context.blocks

    @property
    def labels(self) -> tuple[str, ...]:
        return self.context.block_labels()

    def __len__(self):
        return self.context.num_blocks


class RestrictionMap(Immutable):
    """Spectrum map of an inclusion of contexts: finer block -> coarser block."""

    __slots__ = ("source", "target", "table")

    def __init__(self, source: Spectrum, target: Spectrum):
        if not is_coarser(target.context, source.context):
            raise InputError(
                f"{target.context} is not a subalgebra of {source.context}; "
                "no restriction map exists"
            )
        table = block_map(target.context, source.context)
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "table", table)

    @classmethod
    def from_contexts(cls, finer: Partition, coarser: Partition) -> "RestrictionMap":
        return cls(Spectrum(finer), Spectrum(coarser))


def _as_weight(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    raise InputError(f"valuation weights must be exact rationals, got {x!r}")


class Valuation(Immutable):
    """A rational probability distribution on a spectrum."""

    __slots__ = ("spectrum", "weights")

    def __init__(self, spectrum: Spectrum, weights: Sequence):
        weights = tuple(map(_as_weight, weights))
        if len(weights) != len(spectrum):
            raise InputError(
                f"expected {len(spectrum)} weights for {spectrum.context}, "
                f"got {len(weights)}"
            )
        # Checked in integers: a Fraction's denominator is positive, so its
        # sign is its numerator's, and the weights sum to 1 iff their
        # numerators over the lcm L of the denominators sum to L.
        if any(w.numerator < 0 for w in weights):
            raise InputError("valuation weights must be nonnegative")
        lcm = math.lcm(*[w.denominator for w in weights])
        if sum([w.numerator * (lcm // w.denominator) for w in weights]) != lcm:
            raise InputError(f"valuation weights must sum to 1, got {sum(weights)}")
        object.__setattr__(self, "spectrum", spectrum)
        object.__setattr__(self, "weights", weights)

    @classmethod
    def point(cls, spectrum: Spectrum, index: int) -> "Valuation":
        """The point valuation concentrated on one spectrum point."""
        return cls(
            spectrum,
            tuple(Fraction(1 if i == index else 0) for i in range(len(spectrum))),
        )

    @classmethod
    def uniform(cls, spectrum: Spectrum) -> "Valuation":
        k = len(spectrum)
        return cls(spectrum, (Fraction(1, k),) * k)

    @classmethod
    def from_json(cls, spectrum: Spectrum, mapping: dict) -> "Valuation":
        """Parse the wire form: canonical block label -> [num, den]."""
        from .scalars import rational_from_pair

        labels = spectrum.labels
        unknown = sorted(set(mapping) - set(labels))
        if unknown:
            raise InputError(f"unknown block labels {unknown}; expected {list(labels)}")
        missing = [lab for lab in labels if lab not in mapping]
        if missing:
            raise InputError(f"valuation misses blocks {missing}")
        return cls(spectrum, [rational_from_pair(mapping[lab]) for lab in labels])

    def __eq__(self, other):
        return (
            isinstance(other, Valuation)
            and self.spectrum.context == other.spectrum.context
            and self.weights == other.weights
        )

    def __hash__(self):
        return hash((self.spectrum.context, self.weights))

    def __repr__(self):
        pairs = ", ".join(
            f"{label}: {w}" for label, w in zip(self.spectrum.labels, self.weights)
        )
        return f"Valuation({pairs})"

    def to_json(self) -> dict:
        return {
            label: [w.numerator, w.denominator]
            for label, w in zip(self.spectrum.labels, self.weights)
        }


def pushforward(mu: Valuation, r: RestrictionMap) -> Valuation:
    """Push a valuation along a restriction map; total mass is preserved."""
    if mu.spectrum.context != r.source.context:
        raise InputError("valuation is not defined on the source of the restriction map")
    out = [Fraction(0)] * len(r.target)
    for i, w in enumerate(mu.weights):
        out[r.table[i]] += w
    return Valuation(r.target, out)


@dataclass(frozen=True)
class ProductExtensionResult:
    """Outcome of the product-valuation construction on C v D.

    ``valuation`` is set iff the unique candidate with mass
    mu1(b) * mu2(b') on each intersection b n b' exists; otherwise ``witness``
    names the first empty intersection pair carrying positive mass.
    """

    valuation: Optional[Valuation]
    witness: Optional[tuple[str, str]]
    witness_mass: Optional[Fraction] = None

    @property
    def exists(self) -> bool:
        return self.valuation is not None


def product_extension(
    mu1: Valuation, mu2: Valuation, pair: AlgebraPair
) -> ProductExtensionResult:
    """The unique valuation on C v D with phi(ab) = phi1(a) phi2(b), if any.

    Blocks of the join are exactly the nonempty intersections, so the product
    constraint pins every weight; existence only fails when an empty
    intersection pair carries positive mass.
    """
    pair.require_partition_engine("product valuations")
    c, d = mu1.spectrum.context, mu2.spectrum.context
    if not is_coarser(c, pair.left):
        raise InputError(f"{c} is not a context of the left algebra {pair.left}")
    if not is_coarser(d, pair.right):
        raise InputError(f"{d} is not a context of the right algebra {pair.right}")
    # Blocks of the join are the nonempty intersections, one per label pair.
    nonempty = set(zip(c.rgs, d.rgs))
    if len(nonempty) < c.num_blocks * d.num_blocks:
        for i in range(c.num_blocks):
            for j in range(d.num_blocks):
                if (i, j) not in nonempty:
                    mass = mu1.weights[i] * mu2.weights[j]
                    if mass != 0:
                        return ProductExtensionResult(
                            valuation=None,
                            witness=(c.block_label(i), d.block_label(j)),
                            witness_mass=mass,
                        )
    joined = common_refinement(c, d)
    pairs = zip(block_map(c, joined), block_map(d, joined))
    weights = [mu1.weights[i] * mu2.weights[j] for i, j in pairs]
    return ProductExtensionResult(valuation=Valuation(Spectrum(joined), weights), witness=None)


def _positive_samples(
    k: int, rng: random.Random, count: int, max_denominator: int
) -> list[tuple[Fraction, ...]]:
    """Strictly positive rational distributions on k points with a common
    denominator <= max_denominator.

    Stars and bars: k - 1 distinct cuts in 1..den-1 split den into k
    positive gaps, uniformly over the compositions of den into k parts, at
    a cost that does not grow with den.
    """
    out = []
    for _ in range(count):
        den = rng.randint(k, max_denominator)
        cuts = sorted(rng.sample(range(1, den), k - 1))
        out.append(
            tuple([Fraction(hi - lo, den) for lo, hi in zip([0, *cuts], [*cuts, den])])
        )
    return out


def valuation_independence_test(
    pair: AlgebraPair,
    seed: int = 0,
    samples: int = 3,
    max_denominator: int = 12,
    max_bell: int = DEFAULT_MAX_BELL,
) -> bool:
    """True iff product extensions exist for all strictly positive valuations
    on all context pairs (C, D) in C_A x C_B.

    For strictly positive valuations the extension on C v D exists iff every
    block of C meets every block of D, and that holds for every context pair
    iff it holds for (A, B): (=>) (A, B) is one of the pairs; (<=) each block
    of C <= A is a union of A-blocks and each block of D <= B a union of
    B-blocks.  So the AND over (A, B) and (A, trivial), which always extends,
    is the verdict.  ``samples`` strictly positive valuations on each of the
    two go through product_extension, whose outcome must match the criterion,
    and the verdict must equal the independence module's C*-independence.
    """
    pair.require_partition_engine("the valuation independence test")
    # With no samples a faulty product_extension would go unseen.
    if samples < 1:
        raise InputError(f"option 'samples' must be at least 1, got {samples}")
    blocks = max(pair.left.num_blocks, pair.right.num_blocks)
    if max_denominator < blocks:
        raise InputError(
            f"option 'max_denominator' must be at least {blocks}, the larger block "
            f"count of the pair, got {max_denominator}"
        )
    guard_contexts(max_bell, pair.left, pair.right)
    # rng.sample needs the length of range(1, den) as a machine-size int.
    if max_denominator > sys.maxsize + 1:
        raise InputError(
            f"option 'max_denominator' must be at most {sys.maxsize + 1}, "
            f"got {max_denominator}"
        )
    a = pair.left
    rng = random.Random(seed)
    result = True
    for c, d in ((a, pair.right), (a, Partition.trivial(a.ambient))):
        all_intersect = len(set(zip(c.rgs, d.rgs))) == c.num_blocks * d.num_blocks
        if not all_intersect:
            result = False
        spec_c, spec_d = Spectrum(c), Spectrum(d)
        sampled_1 = _positive_samples(c.num_blocks, rng, samples, max_denominator)
        sampled_2 = _positive_samples(d.num_blocks, rng, samples, max_denominator)
        for w1, w2 in zip(sampled_1, sampled_2):
            extension = product_extension(Valuation(spec_c, w1), Valuation(spec_d, w2), pair)
            if extension.exists != all_intersect:
                raise InternalConsistencyError(
                    "sampled product extension contradicts the exact criterion",
                    dump={
                        "pair": pair.describe(),
                        "context_pair": [str(c), str(d)],
                        "weights": [str(w1), str(w2)],
                        "extension_exists": extension.exists,
                        "all_blocks_intersect": all_intersect,
                    },
                )
    expected = cstar_independent(pair)
    if result != expected:
        raise InternalConsistencyError(
            "valuation independence test disagrees with the independence module",
            dump={"pair": pair.describe(), "valuation_route": result, "cstar": expected},
        )
    return result

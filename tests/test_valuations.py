import itertools
import math
import random
import time
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netsheaf import (
    AlgebraPair,
    AmbientSet,
    InputError,
    Partition,
    RestrictionMap,
    Spectrum,
    Valuation,
    cstar_independent,
    product_extension,
    pushforward,
    valuation_independence_test,
)
import netsheaf.valuations
from netsheaf.cli import main
from netsheaf.partitions import coarsenings, common_refinement, is_coarser

from conftest import (
    FIXTURES,
    ambient,
    oracle_positive_samples,
    oracle_valuation_refusal,
    oracle_valuation_sweep,
)


def F(n, d=1):
    return Fraction(n, d)


def test_valuation_validation(amb3):
    spec = Spectrum(Partition.discrete(amb3))
    with pytest.raises(InputError):
        Valuation(spec, [F(1, 2), F(1, 3)])  # wrong length
    with pytest.raises(InputError):
        Valuation(spec, [F(1, 2), F(1, 3), F(1, 3)])  # mass != 1
    with pytest.raises(InputError):
        Valuation(spec, [F(3, 2), F(-1, 2), F(0)])  # negative weight
    with pytest.raises(InputError):
        Valuation(spec, [0.5, 0.25, 0.25])  # floats are banned


def test_valuation_refuses_bool_weights(amb3):
    # bool is an int subclass, but no parser of this package takes it as one
    spec = Spectrum(Partition.discrete(amb3))
    with pytest.raises(InputError, match="must be exact rationals, got True"):
        Valuation(spec, [True, False, False])
    assert oracle_valuation_refusal(spec, [True, False, False]) == (
        "valuation weights must be exact rationals, got True"
    )


def test_pushforward_point_valuation(amb4):
    fine = Partition.discrete(amb4)
    coarse = Partition.from_blocks(amb4, [["a", "b"], ["c", "d"]])
    r = RestrictionMap.from_contexts(fine, coarse)
    for i, block in enumerate(fine.blocks):
        mu = Valuation.point(Spectrum(fine), i)
        pushed = pushforward(mu, r)
        assert pushed == Valuation.point(Spectrum(coarse), coarse.block_of(block[0]))


def test_pushforward_uniform(amb4):
    fine = Partition.discrete(amb4)
    coarse = Partition.from_blocks(amb4, [["a", "b"], ["c", "d"]])
    r = RestrictionMap.from_contexts(fine, coarse)
    pushed = pushforward(Valuation.uniform(Spectrum(fine)), r)
    assert pushed.weights == (F(1, 2), F(1, 2))


def test_pushforward_to_trivial(amb4):
    fine = Partition.from_blocks(amb4, [["a", "b"], ["c", "d"]])
    r = RestrictionMap.from_contexts(fine, Partition.trivial(amb4))
    mu = Valuation(Spectrum(fine), [F(1, 3), F(2, 3)])
    assert pushforward(mu, r).weights == (F(1),)


def test_restriction_requires_inclusion(amb4):
    a = Partition.from_blocks(amb4, [["a", "b"], ["c", "d"]])
    b = Partition.from_blocks(amb4, [["a", "c"], ["b", "d"]])
    with pytest.raises(InputError):
        RestrictionMap.from_contexts(a, b)


def test_pushforward_preserves_mass_and_is_functorial(partitions_by_size):
    # along every chain C2 finer than C1 finer than C0, ambient <= 4
    for n in (2, 3, 4):
        parts = partitions_by_size[n]
        for fine in parts:
            specs = Spectrum(fine)
            samples = [Valuation.uniform(specs)]
            samples += [Valuation.point(specs, i) for i in range(len(specs))]
            k = len(specs)
            weights = [F(i + 1) for i in range(k)]
            total = sum(weights)
            samples.append(Valuation(specs, [w / total for w in weights]))
            for mid in parts:
                if not is_coarser(mid, fine):
                    continue
                r1 = RestrictionMap.from_contexts(fine, mid)
                for coarse in parts:
                    if not is_coarser(coarse, mid):
                        continue
                    r2 = RestrictionMap.from_contexts(mid, coarse)
                    direct = RestrictionMap.from_contexts(fine, coarse)
                    for mu in samples:
                        assert sum(pushforward(mu, r1).weights) == 1
                        assert pushforward(pushforward(mu, r1), r2) == pushforward(
                            mu, direct
                        )


def test_product_extension_square_pair(square_pair):
    a, b = square_pair
    pair = AlgebraPair(a, b)
    mu1 = Valuation(Spectrum(a), [F(1, 2), F(1, 2)])
    mu2 = Valuation(Spectrum(b), [F(1, 3), F(2, 3)])
    result = product_extension(mu1, mu2, pair)
    assert result.exists
    assert result.valuation.weights == (F(1, 6), F(1, 3), F(1, 6), F(1, 3))


def test_product_extension_fails_on_halves(halves_pair):
    left, right = halves_pair
    pair = AlgebraPair(left, right)
    result = product_extension(
        Valuation.uniform(Spectrum(left)), Valuation.uniform(Spectrum(right)), pair
    )
    assert not result.exists
    assert result.witness == ("{2}", "{0}")
    assert result.witness_mass == F(1, 4)


def test_product_extension_point_masses(halves_pair):
    left, right = halves_pair
    pair = AlgebraPair(left, right)
    # point masses on intersecting blocks {0,1} and {1,2} multiply to the
    # point mass on the intersection {1}
    mu1 = Valuation.point(Spectrum(left), 0)
    mu2 = Valuation.point(Spectrum(right), 1)
    result = product_extension(mu1, mu2, pair)
    assert result.exists
    joined = result.valuation.spectrum.context
    target = joined.block_labels().index("{1}")
    assert result.valuation.weights[target] == 1


def test_product_extension_marginals(square_pair, halves_pair):
    # when the product exists it pushes forward to its factors
    for a, b in (square_pair, halves_pair):
        pair = AlgebraPair(a, b)
        k1, k2 = a.num_blocks, b.num_blocks
        mu1 = Valuation(Spectrum(a), [F(1, k1)] * k1)
        w = [F(i + 1) for i in range(k2)]
        mu2 = Valuation(Spectrum(b), [x / sum(w) for x in w])
        result = product_extension(mu1, mu2, pair)
        if not result.exists:
            continue
        joined = result.valuation.spectrum.context
        back1 = pushforward(result.valuation, RestrictionMap.from_contexts(joined, a))
        back2 = pushforward(result.valuation, RestrictionMap.from_contexts(joined, b))
        assert back1 == mu1
        assert back2 == mu2


def test_product_extension_requires_contexts(square_pair, amb4):
    a, b = square_pair
    pair = AlgebraPair(a, b)
    outside = Partition.discrete(amb4)
    with pytest.raises(InputError):
        product_extension(
            Valuation.uniform(Spectrum(outside)), Valuation.uniform(Spectrum(b)), pair
        )


def test_independence_test_examples(square_pair, halves_pair, amb3):
    a, b = square_pair
    assert valuation_independence_test(AlgebraPair(a, b)) is True
    left, right = halves_pair
    assert valuation_independence_test(AlgebraPair(left, right)) is False
    scalars = Partition.trivial(amb3)
    assert valuation_independence_test(AlgebraPair(scalars, right)) is True


def test_independence_test_agrees_with_cstar(partitions_by_size):
    # ambient <= 3 here; acceptance pushes to 5
    for n in (2, 3):
        parts = partitions_by_size[n]
        for a in parts:
            for b in parts:
                pair = AlgebraPair(a, b)
                assert valuation_independence_test(pair, seed=7) == (
                    cstar_independent(pair) is True
                )


def test_independence_test_equals_the_context_pair_sweep(partitions_by_size):
    # the closed form on (A, B) against the AND over all of C_A x C_B, on
    # every ordered pair on <= 4 points
    for n in (1, 2, 3, 4):
        parts = partitions_by_size[n]
        for a in parts:
            for b in parts:
                pair = AlgebraPair(a, b)
                expected = oracle_valuation_sweep(pair)
                assert valuation_independence_test(pair, samples=1) is expected


def test_valuation_json(amb3):
    left = Partition.from_blocks(amb3, [["0", "1"], ["2"]])
    mu = Valuation(Spectrum(left), [F(1, 3), F(2, 3)])
    assert mu.to_json() == {"{0,1}": [1, 3], "{2}": [2, 3]}
    assert Valuation.from_json(Spectrum(left), mu.to_json()) == mu
    with pytest.raises(InputError):
        Valuation.from_json(Spectrum(left), {"{0,1}": [1, 3], "{9}": [2, 3]})
    with pytest.raises(InputError):
        Valuation.from_json(Spectrum(left), {"{0,1}": [1, 3]})


def oracle_product_extension(mu1, mu2):
    """(witness labels, mass) of the first empty block intersection with
    positive mass, scanning (i, j) in order, else the weights on C v D, by
    intersecting point sets."""
    c, d = mu1.spectrum.context, mu2.spectrum.context
    for i, bi in enumerate(c.blocks):
        for j, bj in enumerate(d.blocks):
            mass = mu1.weights[i] * mu2.weights[j]
            if not set(bi) & set(bj) and mass != 0:
                return (c.block_labels()[i], d.block_labels()[j]), mass
    joined = c | d
    return None, tuple(
        mu1.weights[c.block_of(b[0])] * mu2.weights[d.block_of(b[0])] for b in joined.blocks
    )


def test_product_extension_equals_the_intersection_scan(partitions_by_size):
    # every context pair of every pair on 3 points, with point valuations
    # (zero weights) as well as strictly positive ones
    for a in partitions_by_size[3]:
        for b in partitions_by_size[3]:
            pair = AlgebraPair(a, b)
            for c in coarsenings(a):
                for d in coarsenings(b):
                    sc, sd = Spectrum(c), Spectrum(d)
                    points = [Valuation.point(sc, i) for i in range(len(sc))]
                    for mu1 in [Valuation.uniform(sc), *points]:
                        for mu2 in [Valuation.uniform(sd), Valuation.point(sd, len(sd) - 1)]:
                            result = product_extension(mu1, mu2, pair)
                            witness, value = oracle_product_extension(mu1, mu2)
                            if witness is None:
                                assert result.witness is None
                                assert result.valuation.weights == value
                            else:
                                assert result.valuation is None
                                assert (result.witness, result.witness_mass) == (witness, value)


def test_independence_test_joins_only_pairs_whose_blocks_all_meet():
    # the 4-point discrete self-pair: at most one common-refinement cache
    # entry per sampled context pair, (A, B) and (A, trivial), and one for
    # A v B (the C*-independence cross-check)
    full = Partition.discrete(AmbientSet(["a", "b", "c", "d"]))
    pair = AlgebraPair(full, full)
    common_refinement.cache_clear()
    valuation_independence_test(pair, seed=3)
    assert common_refinement.cache_info().currsize <= 2 + 1


# -- the integer checks and the sampler against the Fraction routes

EXACT = st.one_of(
    st.builds(Fraction, st.integers(0, 12), st.integers(1, 12)),
    st.integers(0, 2),
)


@st.composite
def weight_vectors(draw):
    """A spectrum and weights for it: raw (any sign, usually not normalised),
    normalised over mixed denominators, or normalised then perturbed by a
    negated, bumped or dropped entry, sometimes with a float or a wrong length."""
    k = draw(st.integers(1, 5))
    spectrum = Spectrum(Partition.discrete(ambient(k)))
    shape = draw(st.sampled_from(["raw", "normalised", "perturbed"]))
    if shape == "raw":
        signed = st.one_of(EXACT, st.builds(Fraction, st.integers(-12, 0), st.integers(1, 12)))
        length = draw(st.sampled_from([k, k, k, k + 1, max(k - 1, 0)]))
        return spectrum, draw(st.lists(signed, min_size=length, max_size=length))
    raw = draw(st.lists(EXACT, min_size=k, max_size=k))
    total = sum(raw)
    if total == 1:
        weights = raw
    else:
        weights = [Fraction(w) / total for w in raw] if total else [Fraction(1, k)] * k
    if shape == "perturbed":
        i = draw(st.integers(0, k - 1))
        change = draw(st.sampled_from(["negate", "bump", "float", "drop"]))
        if change == "negate":
            weights[i] = -weights[i] - Fraction(1, 7)
        elif change == "bump":
            weights[i] += draw(st.builds(Fraction, st.integers(-3, 3), st.integers(1, 13)))
        elif change == "float":
            weights[i] = float(weights[i])
        else:
            del weights[i]
    return spectrum, weights


@settings(max_examples=400, deadline=None)
@given(weight_vectors())
def test_integer_checks_accept_and_refuse_as_the_fraction_route(drawn):
    spectrum, weights = drawn
    try:
        valuation = Valuation(spectrum, weights)
    except InputError as exc:
        refusal = str(exc)
    else:
        refusal = None
        assert valuation.weights == tuple(Fraction(w) for w in weights)
    assert refusal == oracle_valuation_refusal(spectrum, weights)


def _module_tables(module):
    return {
        name: len(value)
        for name, value in vars(module).items()
        if isinstance(value, (dict, list, set, tuple))
    }


def _sampled_pairs(full):
    return ((full, full), (full, Partition.trivial(full.ambient)))


def test_sampled_weights_follow_the_fraction_route_draw_for_draw(monkeypatch):
    # seeds 0-4 on the 4-point discrete self-pair: one product_extension call
    # per sample on (A, B), then on (A, trivial), with the weight tuples the
    # reference sampler draws
    module = netsheaf.valuations
    full = Partition.discrete(ambient(4))
    pair = AlgebraPair(full, full)
    names, tables = set(vars(module)), _module_tables(module)
    drawn = []
    original = module.product_extension

    def recording(mu1, mu2, pair):
        drawn.append((mu1.spectrum.context, mu2.spectrum.context, mu1.weights, mu2.weights))
        return original(mu1, mu2, pair)

    monkeypatch.setattr(module, "product_extension", recording)
    for seed in range(5):
        drawn.clear()
        valuation_independence_test(pair, seed=seed)
        rng = random.Random(seed)
        expected = []
        for c, d in _sampled_pairs(full):
            left = oracle_positive_samples(c.num_blocks, rng, 3, 12)
            right = oracle_positive_samples(d.num_blocks, rng, 3, 12)
            expected.extend((c, d, w1, w2) for w1, w2 in zip(left, right))
        assert len(expected) == 2 * 3
        assert drawn == expected
    # the sampler keeps nothing between calls: no module-level table is left
    assert set(vars(module)) == names
    assert _module_tables(module) == tables


def _compositions(total, parts):
    """Every tuple of `parts` positive integers summing to `total`."""
    if parts == 1:
        yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in _compositions(total - first, parts - 1):
            yield (first, *rest)


class _ScriptedRng:
    """Answers the sampler's randint with `den` and its sample with `cuts`
    in reverse order, checking what it was asked for."""

    def __init__(self, k, den, cuts):
        self.k, self.den, self.cuts = k, den, cuts

    def randint(self, lo, hi):
        assert (lo, hi) == (self.k, 8)
        return self.den

    def sample(self, population, n):
        assert population == range(1, self.den) and n == self.k - 1
        return list(reversed(self.cuts))


def test_stars_and_bars_is_a_bijection_onto_the_compositions():
    # every (k - 1)-subset of cuts in 1..den-1, den <= 8, gives a distinct
    # composition of den into k positive parts, and every one is reached: a
    # uniform subset is a uniform composition
    for den in range(1, 9):
        for k in range(1, den + 1):
            drawn = [
                netsheaf.valuations._positive_samples(k, _ScriptedRng(k, den, cuts), 1, 8)[0]
                for cuts in itertools.combinations(range(1, den), k - 1)
            ]
            assert len(drawn) == len(set(drawn)) == math.comb(den - 1, k - 1)
            assert {tuple(w * den for w in ws) for ws in drawn} == set(_compositions(den, k))


def test_large_denominator_bound_keeps_the_draw_stream_and_small_memory(monkeypatch):
    # a denominator bound of 10^18 on the 2-point discrete self-pair: the same
    # draws as the reference sampler, in well under a second, and memory that
    # does not grow with the bound (a draw per unit of mass would never end)
    full = Partition.discrete(ambient(2))
    pair = AlgebraPair(full, full)
    drawn = []
    original = netsheaf.valuations.product_extension

    def recording(mu1, mu2, pair):
        drawn.extend([mu1.weights, mu2.weights])
        return original(mu1, mu2, pair)

    monkeypatch.setattr(netsheaf.valuations, "product_extension", recording)
    start = time.perf_counter()
    tracemalloc.start()
    try:
        verdict = valuation_independence_test(pair, seed=3, samples=1, max_denominator=10**18)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - start < 1
    assert verdict is cstar_independent(pair)
    rng = random.Random(3)
    expected = []
    for c, d in _sampled_pairs(full):
        expected += oracle_positive_samples(c.num_blocks, rng, 1, 10**18)
        expected += oracle_positive_samples(d.num_blocks, rng, 1, 10**18)
    assert drawn == expected
    assert max(w.denominator for ws in drawn for w in ws) > 10**12
    assert peak < 2 * 10**6, peak


# -- the two valuation traps, each sabotaged on its own, and each sampled pair live

def test_flipped_product_extension_trips_the_sampled_extension_trap(monkeypatch, capsys):
    original = netsheaf.valuations.product_extension

    def flipped(mu1, mu2, pair):
        result = original(mu1, mu2, pair)
        if result.exists:
            return netsheaf.valuations.ProductExtensionResult(valuation=None, witness=("?", "?"))
        return netsheaf.valuations.ProductExtensionResult(valuation=mu1, witness=None)

    monkeypatch.setattr(netsheaf.valuations, "product_extension", flipped)
    for fixture in ("square_pair.json", "overlapping_halves.json"):
        assert main(["valuations", str(FIXTURES / fixture)]) == 3
        err = capsys.readouterr().err
        assert "internal consistency failure: sampled product extension contradicts" in err
        assert "disagrees with the independence module" not in err


def test_flipped_cstar_decision_trips_the_independence_module_trap(monkeypatch, capsys):
    original = netsheaf.valuations.cstar_independent
    monkeypatch.setattr(netsheaf.valuations, "cstar_independent", lambda pair: not original(pair))
    for fixture in ("square_pair.json", "overlapping_halves.json"):
        assert main(["valuations", str(FIXTURES / fixture)]) == 3
        err = capsys.readouterr().err
        assert (
            "internal consistency failure: valuation independence test disagrees "
            "with the independence module" in err
        )
        assert "sampled product extension" not in err


def test_flip_on_the_trivial_context_trips_the_sampled_extension_trap(monkeypatch, capsys):
    # the halves never extend on (A, B), so only the (A, trivial) samples can
    # see a product_extension that is wrong when D is trivial
    original = netsheaf.valuations.product_extension

    def flipped_on_trivial(mu1, mu2, pair):
        result = original(mu1, mu2, pair)
        if mu2.spectrum.context.num_blocks > 1:
            return result
        return netsheaf.valuations.ProductExtensionResult(valuation=None, witness=("?", "?"))

    monkeypatch.setattr(netsheaf.valuations, "product_extension", flipped_on_trivial)
    assert main(["valuations", str(FIXTURES / "overlapping_halves.json")]) == 3
    err = capsys.readouterr().err
    assert "internal consistency failure: sampled product extension contradicts" in err
    assert "disagrees with the independence module" not in err

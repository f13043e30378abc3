from fractions import Fraction

import pytest

from netsheaf import (
    AlgebraPair,
    AmbientSet,
    InputError,
    Partition,
    SizeGuardError,
    RestrictionMap,
    Spectrum,
    Valuation,
    cstar_independent,
    product_extension,
    pushforward,
    valuation_independence_test,
)
import netsheaf.valuations
from netsheaf.partitions import coarsenings, common_refinement, is_coarser


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


def test_valuation_json(amb3):
    left = Partition.from_blocks(amb3, [["0", "1"], ["2"]])
    mu = Valuation(Spectrum(left), [F(1, 3), F(2, 3)])
    assert mu.to_json() == {"{0,1}": [1, 3], "{2}": [2, 3]}
    assert Valuation.from_json(Spectrum(left), mu.to_json()) == mu
    with pytest.raises(InputError):
        Valuation.from_json(Spectrum(left), {"{0,1}": [1, 3], "{9}": [2, 3]})
    with pytest.raises(InputError):
        Valuation.from_json(Spectrum(left), {"{0,1}": [1, 3]})


def test_independence_test_guards_the_sampled_extensions(monkeypatch, amb4):
    # the 4-point discrete self-pair samples 15 * 15 * 3 = 675 extensions:
    # admitted at a bound of exactly 675, refused below it before any sampling
    full = Partition.discrete(amb4)
    pair = AlgebraPair(full, full)
    monkeypatch.setattr(netsheaf.valuations, "MAX_SAMPLED_EXTENSIONS", 675)
    assert valuation_independence_test(pair) is cstar_independent(pair)

    def no_sampling(*args, **kwargs):
        raise AssertionError("valuations sampled before the guard")

    monkeypatch.setattr(netsheaf.valuations, "MAX_SAMPLED_EXTENSIONS", 674)
    monkeypatch.setattr(netsheaf.valuations, "_positive_samples", no_sampling)
    with pytest.raises(SizeGuardError) as err:
        valuation_independence_test(pair)
    assert (err.value.requested, err.value.bound) == (675, 674)
    assert "15*15*3 = 675" in str(err.value) and "guard of 674" in str(err.value)


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
    # the 4-point discrete self-pair: a common-refinement cache entry for a
    # context pair only when its product extension exists, and one for A v B
    # (the C*-independence cross-check)
    full = Partition.discrete(AmbientSet(["a", "b", "c", "d"]))
    pair = AlgebraPair(full, full)
    meeting = sum(
        len(set(zip(c.rgs, d.rgs))) == c.num_blocks * d.num_blocks
        for c in coarsenings(full)
        for d in coarsenings(full)
    )
    common_refinement.cache_clear()
    valuation_independence_test(pair, seed=3)
    assert common_refinement.cache_info().currsize <= meeting + 1 < len(coarsenings(full)) ** 2

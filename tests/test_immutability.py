import pytest

from netsheaf import (
    AlgebraPair,
    AmbientSet,
    ContextPoset,
    Contexts,
    FiberedContextProduct,
    FinitePoset,
    GaussianRational,
    MonotoneMap,
    Partition,
    RestrictionMap,
    SpacetimePoset,
    Valuation,
    generated_star_algebra,
)
from netsheaf.valuations import Spectrum

from conftest import ambient


def _poset():
    return FinitePoset((0, 1), lambda x, y: x <= y)


def _algebra():
    return generated_star_algebra(2, [[[1, 0], [0, 0]]])


def _square():
    amb = ambient(4)
    return (
        Partition.from_blocks(amb, [["a", "b"], ["c", "d"]]),
        Partition.from_blocks(amb, [["a", "c"], ["b", "d"]]),
    )


HOLDERS = {
    "AmbientSet": lambda: AmbientSet(["a", "b"]),
    "Partition": lambda: Partition.discrete(ambient(2)),
    "FinitePoset": _poset,
    "ContextPoset": lambda: ContextPoset(Partition.discrete(ambient(3))),
    "FiberedContextProduct": lambda: FiberedContextProduct(
        Contexts(_square()[0]),
        Contexts(_square()[1]),
        Partition.trivial(ambient(4)),
    ),
    "MonotoneMap": lambda: MonotoneMap(_poset(), _poset(), [0, 1]),
    "AlgebraPair": lambda: AlgebraPair(*_square()),
    "SpacetimePoset": lambda: SpacetimePoset(["O"], [], []),
    "GaussianRational": lambda: GaussianRational(1, 2),
    "StarAlgebra": _algebra,
    "RestrictionMap": lambda: RestrictionMap.from_contexts(
        Partition.discrete(ambient(2)), Partition.trivial(ambient(2))
    ),
    "Valuation": lambda: Valuation(Spectrum(Partition.discrete(ambient(2))), [1, 0]),
}


@pytest.mark.parametrize("name", sorted(HOLDERS))
def test_value_holders_refuse_assignment(name):
    holder = HOLDERS[name]()
    assert type(holder).__name__ == name
    attribute = type(holder).__slots__[0]
    before = getattr(holder, attribute)
    with pytest.raises(AttributeError, match=f"^{name} is immutable$"):
        setattr(holder, attribute, None)
    with pytest.raises(AttributeError, match=f"^{name} is immutable$"):
        holder.not_an_attribute = 1
    assert getattr(holder, attribute) is before

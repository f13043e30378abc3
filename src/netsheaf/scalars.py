"""Exact complexified-rational scalars.

Every number that enters or leaves the matrix engine is a Gaussian rational
re + im*i with ``fractions.Fraction`` components, so all linear algebra is
exact and no norm/completion machinery is ever needed at this scale.  The
kernels themselves (``linalg``) work on Gaussian-integer rows and form a
GaussianRational only for a result; its hash is formed when first asked for.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import Immutable, InputError

_RationalLike = (int, Fraction)


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise InputError(f"expected an exact rational, got {type(x).__name__}: {x!r}")


class GaussianRational(Immutable):
    """An element of Q[i], immutable and hashable."""

    __slots__ = ("re", "im", "_hash")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", _as_fraction(re))
        object.__setattr__(self, "im", _as_fraction(im))
        object.__setattr__(self, "_hash", None)  # formed when first asked for

    # -- arithmetic ---------------------------------------------------------

    @staticmethod
    def _coerce(x) -> "GaussianRational":
        if isinstance(x, GaussianRational):
            return x
        if isinstance(x, _RationalLike):
            return GaussianRational(x)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return GaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        d = other.abs2()
        if d == 0:
            raise ZeroDivisionError("division by zero in Q[i]")
        conj = other.conjugate()
        return GaussianRational(
            (self.re * conj.re - self.im * conj.im) / d,
            (self.re * conj.im + self.im * conj.re) / d,
        )

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def abs2(self) -> Fraction:
        """|x|^2 = re^2 + im^2, a nonnegative rational."""
        return self.re * self.re + self.im * self.im

    # -- comparison / display ------------------------------------------------

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        if self._hash is None:
            object.__setattr__(self, "_hash", hash((self.re, self.im)))
        return self._hash

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def __str__(self):
        if not self.im:
            return str(self.re)
        im = "i" if self.im == 1 else ("-i" if self.im == -1 else f"{self.im}i")
        if not self.re:
            return im
        sign = "+" if self.im > 0 else ""
        return f"{self.re}{sign}{im}"


ZERO = GaussianRational(0)
ONE = GaussianRational(1)
I = GaussianRational(0, 1)


def rational_from_pair(pair) -> Fraction:
    """Parse the wire form of an exact rational: a [numerator, denominator] pair."""
    if (
        not isinstance(pair, (list, tuple))
        or len(pair) != 2
        or not all(isinstance(v, int) and not isinstance(v, bool) for v in pair)
    ):
        raise InputError(f"rational must be an [int, int] pair, got {pair!r}")
    if pair[1] == 0:
        raise InputError(f"rational denominator is zero: {pair!r}")
    return Fraction(pair[0], pair[1])


def rational_to_pair(x: Fraction) -> list[int]:
    return [x.numerator, x.denominator]


def scalar_from_json(obj) -> GaussianRational:
    """Parse a matrix entry: {"re": [num, den], "im": [num, den]}, parts optional."""
    if isinstance(obj, int) and not isinstance(obj, bool):
        return GaussianRational(obj)
    if not isinstance(obj, dict) or not set(obj) <= {"re", "im"}:
        raise InputError(f'matrix entry must be {{"re": [n,d], "im": [n,d]}}, got {obj!r}')
    re = rational_from_pair(obj["re"]) if "re" in obj else Fraction(0)
    im = rational_from_pair(obj["im"]) if "im" in obj else Fraction(0)
    return GaussianRational(re, im)


def scalar_to_json(x: GaussianRational) -> dict:
    out: dict = {"re": rational_to_pair(x.re)}
    if x.im:
        out["im"] = rational_to_pair(x.im)
    return out

"""Optimal-accuracy finite-difference operators on uniform periodic grids.

A first-derivative operator uses ``left`` points to the left and ``right``
points to the right of the center; the centered second-derivative operator
uses ``q`` points on each side.  Coefficients are kept as exact rationals:
the factorials in the closed forms overflow 64-bit integers long before the
stencil widths handled here (a 21/20 stencil involves 42!), and the moment
conditions that define optimal accuracy are meant to hold with zero error.

For the first derivative with offsets -left..right the coefficients are

    a_k = -(-1)^k / k * left! right! / ((left+k)! (right-k)!)    (k != 0)
    a_0 = -sum_{v != 0} 1/v    over the stencil offsets,

and for the centered second derivative with half-width q

    b_k = -2 (-1)^k / k^2 * q!^2 / ((q+k)! (q-k)!)               (k != 0)
    b_0 = -sum_{k=1..q} 2/k^2.

These satisfy sum_k k^m a_k = m! delta_{m,1} for m = 0..left+right and
sum_k k^m b_k = 2! delta_{m,2} for m = 0..2q+1 exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property
from numbers import Integral

import numpy as np

__all__ = [
    "StencilKind",
    "StabilityClass",
    "StencilSpec",
    "FdOperator",
    "build_dx",
    "build_dxx",
    "classify",
    "mirror",
]


def _check_integer(count, name: str) -> None:
    """The integer rule of every stencil extent, cell count and sample
    count: numpy integers pass, bools and floats are refused."""
    if isinstance(count, bool) or not isinstance(count, Integral):
        raise ValueError(f"{name} must be an integer, got {count!r}")


class StencilKind(Enum):
    """Which derivative a stencil approximates."""

    FIRST_DERIVATIVE = "first"
    SECOND_DERIVATIVE_CENTERED = "second"


class StabilityClass(Enum):
    """Stability family of a first-derivative stencil.

    The family is a function of the extents alone: upwind-leaning stencils
    with ``left = right + 1`` or ``left = right + 2`` damp every nonzero
    Fourier mode, their mirror images amplify, and symmetric stencils are
    neutral.
    """

    STABLE_UPWIND = "StableUpwind"
    STABLE_DOWNWIND = "StableDownwind"
    CENTRAL = "Central"
    OTHER = "Other"


@dataclass(frozen=True)
class StencilSpec:
    """Extent and kind of a stencil.

    ``left`` and ``right`` are the number of neighbors used on each side of
    the center point, integers both.  Second-derivative stencils are
    centered, so their extents must match and be positive.
    """

    left: int
    right: int
    kind: StencilKind

    def __post_init__(self) -> None:
        _check_integer(self.left, "left")
        _check_integer(self.right, "right")
        if self.left < 0 or self.right < 0:
            raise ValueError("stencil extents must be non-negative")
        if self.kind is StencilKind.FIRST_DERIVATIVE:
            if self.left + self.right == 0:
                raise ValueError("first-derivative stencil needs at least one neighbor")
        elif self.kind is StencilKind.SECOND_DERIVATIVE_CENTERED:
            if self.left != self.right or self.left < 1:
                raise ValueError("second-derivative stencil must be centered with q >= 1")
        else:  # pragma: no cover - enum is closed
            raise ValueError(f"unknown stencil kind {self.kind!r}")

    @property
    def width(self) -> int:
        return self.left + self.right + 1


@dataclass(frozen=True)
class FdOperator:
    """A finite-difference operator with exact rational coefficients.

    ``coeffs[i]`` is the weight of the grid neighbor at offset
    ``i - spec.left``, so the tuple runs over offsets -left..right.
    """

    spec: StencilSpec
    coeffs: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if len(self.coeffs) != self.spec.width:
            raise ValueError("coefficient count does not match stencil width")

    @property
    def order(self) -> int:
        """Formal accuracy order: left+right for the first derivative, 2q
        for the centered second derivative."""
        return self.spec.left + self.spec.right

    @property
    def left(self) -> int:
        return self.spec.left

    @property
    def right(self) -> int:
        return self.spec.right

    def coeff(self, k: int) -> Fraction:
        """Coefficient at offset ``k`` (k = -left..right)."""
        if not -self.left <= k <= self.right:
            raise IndexError(f"offset {k} outside stencil")
        return self.coeffs[k + self.left]

    def moment(self, m: int) -> Fraction:
        """Exact m-th moment sum_k k^m c_k (0^0 counts as 1)."""
        return sum(
            (Fraction(k) ** m) * c
            for k, c in zip(range(-self.left, self.right + 1), self.coeffs)
        )

    @cached_property
    def offsets(self) -> np.ndarray:
        return np.arange(-self.left, self.right + 1)

    @cached_property
    def coeffs_float(self) -> np.ndarray:
        arr = np.array([float(c) for c in self.coeffs])
        arr.setflags(write=False)
        return arr

    def __repr__(self) -> str:
        kind = "dx" if self.spec.kind is StencilKind.FIRST_DERIVATIVE else "dxx"
        body = ", ".join(str(c) for c in self.coeffs)
        return f"FdOperator({kind}[{self.left},{self.right}], order={self.order}, [{body}])"


def build_dx(left: int, right: int) -> FdOperator:
    """Optimal first-derivative operator on offsets -left..right.

    The coefficients are the unique solution of the moment conditions
    sum_k k^m a_k = m! delta_{m,1}, m = 0..left+right, giving accuracy
    order left+right.
    """
    spec = StencilSpec(left, right, StencilKind.FIRST_DERIVATIVE)
    lf = math.factorial(left)
    rf = math.factorial(right)
    coeffs = []
    for k in range(-left, right + 1):
        if k == 0:
            c = -sum(Fraction(1, v) for v in range(-left, right + 1) if v != 0)
        else:
            # (-1)**k with k < 0 is a float in Python; abs keeps it integral
            c = Fraction(
                -((-1) ** abs(k)) * lf * rf,
                k * math.factorial(left + k) * math.factorial(right - k),
            )
        coeffs.append(c)
    return FdOperator(spec, tuple(coeffs))


def build_dxx(q: int) -> FdOperator:
    """Optimal centered second-derivative operator of half-width ``q``.

    Accuracy order is 2q; by symmetry the odd moments vanish, so the moment
    conditions extend one order past the stencil size for free.
    """
    spec = StencilSpec(q, q, StencilKind.SECOND_DERIVATIVE_CENTERED)
    qf2 = math.factorial(q) ** 2
    coeffs = []
    for k in range(-q, q + 1):
        if k == 0:
            c = -sum(Fraction(2, j * j) for j in range(1, q + 1))
        else:
            c = Fraction(
                -2 * ((-1) ** abs(k)) * qf2,
                k * k * math.factorial(q + k) * math.factorial(q - k),
            )
        coeffs.append(c)
    return FdOperator(spec, tuple(coeffs))


def classify(spec: StencilSpec) -> StabilityClass:
    """Stability family of a first-derivative stencil extent."""
    if spec.kind is not StencilKind.FIRST_DERIVATIVE:
        raise ValueError("classification applies to first-derivative stencils")
    l, r = spec.left, spec.right
    if l in (r + 1, r + 2):
        return StabilityClass.STABLE_UPWIND
    if r in (l + 1, l + 2):
        return StabilityClass.STABLE_DOWNWIND
    if l == r:
        return StabilityClass.CENTRAL
    return StabilityClass.OTHER


def mirror(op: FdOperator) -> FdOperator:
    """Reflected operator a'_k = -a_{-k} on the swapped extent.

    Mirroring swaps the upwind and downwind families and is an involution.
    The mirror of the optimal (left, right) operator is the optimal
    (right, left) operator, since the moment conditions are preserved.
    """
    if op.spec.kind is not StencilKind.FIRST_DERIVATIVE:
        raise ValueError("mirror applies to first-derivative operators")
    spec = StencilSpec(op.right, op.left, StencilKind.FIRST_DERIVATIVE)
    coeffs = tuple(-c for c in reversed(op.coeffs))
    return FdOperator(spec, coeffs)

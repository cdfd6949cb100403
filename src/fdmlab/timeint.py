"""Explicit Runge-Kutta tableaux and their stability polynomials.

An s-stage explicit method applied to w' = lam w advances the solution by
p(z) with z = dt*lam, where

    p(z) = 1 + z b . (I - z A)^(-1) 1 = 1 + sum_{k=1..s} (b . A^(k-1) 1) z^k.

A is strictly lower triangular, so A^s = 0 and the sum ends at k = s.
Tableau entries are stored as exact rationals (floats convert exactly, so
JSON input loses nothing) and the sums b . A^(k-1) 1 are exact; the
polynomial coefficients are rounded to double once at the end.  That keeps
the classical methods' coefficients bit-exact, e.g. the four-stage low
storage third-order scheme gives 1 + z + z^2/2 + z^3/6 + z^4/12.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

__all__ = [
    "ButcherTableau",
    "StabilityPolynomial",
    "stability_polynomial",
    "eval_p",
    "builtin_tableaux",
    "get_tableau",
    "tableau_from_json",
]

_CHECK_TOL = 1e-14


def _to_fraction(x) -> Fraction:
    """Exact conversion: ints, Fractions, finite binary floats, or 'p/q'
    strings; anything else raises ValueError naming the entry."""
    try:
        if isinstance(x, (Fraction, int, float, str)):
            return Fraction(x)
    except (ValueError, ZeroDivisionError, OverflowError):
        pass
    raise ValueError(f"tableau entry {x!r} is not a finite number or 'p/q' string")


def _double(x: Fraction, what: str) -> float:
    """float(x), or a ValueError naming ``what`` when x lies outside the
    double range (a float cast would raise OverflowError)."""
    try:
        return float(x)
    except OverflowError:
        raise ValueError(f"{what} lies outside the double range") from None


@dataclass(frozen=True)
class ButcherTableau:
    """Explicit Runge-Kutta tableau with exact rational entries.

    ``a`` is the full s x s stage matrix (strictly lower triangular),
    ``b`` the weights and ``c`` the abscissae.  ``order`` is the declared
    classical order when known.  Every entry, the weight sum and each
    abscissa's difference from its row sum must lie in the double range.
    """

    a: tuple[tuple[Fraction, ...], ...]
    b: tuple[Fraction, ...]
    c: tuple[Fraction, ...]
    name: str = ""
    order: int | None = None

    def __post_init__(self) -> None:
        s = len(self.b)
        if s < 1:
            raise ValueError("tableau needs at least one stage")
        if len(self.a) != s or any(len(row) != s for row in self.a):
            raise ValueError("stage matrix must be s x s")
        if len(self.c) != s:
            raise ValueError("abscissae length must match stage count")
        for i, row in enumerate(self.a):
            for j in range(i, s):
                if row[j] != 0:
                    raise ValueError("stage matrix must be strictly lower triangular")
        named = {f"a[{i}]": row for i, row in enumerate(self.a)}
        named.update(b=self.b, c=self.c)
        for name, vec in named.items():
            for j, x in enumerate(vec):
                _double(x, f"tableau entry {name}[{j}]")
        if abs(_double(sum(self.b), "weight sum") - 1.0) > _CHECK_TOL:
            raise ValueError("weights must sum to 1")
        if abs(float(self.c[0])) > _CHECK_TOL:
            raise ValueError("first abscissa must be 0")
        for i in range(s):
            diff = _double(self.c[i] - sum(self.a[i][:i]), f"c[{i}] minus its row sum")
            if abs(diff) > _CHECK_TOL:
                raise ValueError("abscissae must equal stage row sums")

    @property
    def stages(self) -> int:
        return len(self.b)

    @classmethod
    def from_rows(cls, a_rows, b, c=None, name: str = "", order: int | None = None
                  ) -> "ButcherTableau":
        """Build from ragged lower rows (or a full square matrix).

        ``c`` defaults to the stage row sums.
        """
        s = len(b)
        if len(a_rows) > s:
            raise ValueError(f"{len(a_rows)} stage rows for {s} weights")
        full = []
        for i in range(s):
            row = [_to_fraction(x) for x in (a_rows[i] if i < len(a_rows) else [])]
            if len(row) > s:
                raise ValueError("stage row longer than stage count")
            row = row + [Fraction(0)] * (s - len(row))
            full.append(tuple(row))
        bf = tuple(_to_fraction(x) for x in b)
        if c is None:
            cf = tuple(sum(full[i][:i], Fraction(0)) for i in range(s))
        else:
            cf = tuple(_to_fraction(x) for x in c)
        return cls(tuple(full), bf, cf, name=name, order=order)


@dataclass(frozen=True)
class StabilityPolynomial:
    """p(z) = sum_k coeffs[k] z^k, constant term first; every coefficient
    must be finite."""

    coeffs: tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.coeffs:
            raise ValueError("empty polynomial")
        if not all(map(math.isfinite, self.coeffs)):
            raise ValueError(f"polynomial coefficients must be finite, got {self.coeffs!r}")
        if self.coeffs[0] != 1.0:
            raise ValueError("constant term must be 1")
        if len(self.coeffs) > 1 and abs(self.coeffs[1] - 1.0) > _CHECK_TOL:
            raise ValueError("linear term must be 1 for a consistent method")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1


def stability_polynomial(tab: ButcherTableau) -> StabilityPolynomial:
    """Stability polynomial from the exact sums b . A^(k-1) 1; a sum outside
    the double range raises ValueError naming its power of z."""
    coeffs = [Fraction(1)]
    v = [Fraction(1)] * tab.stages  # A^(k-1) 1
    for _ in range(tab.stages):
        coeffs.append(sum(bj * vj for bj, vj in zip(tab.b, v) if bj))
        v = [sum(aij * vj for aij, vj in zip(row, v) if aij) for row in tab.a]
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    return StabilityPolynomial(tuple(
        _double(c, f"stability polynomial coefficient of z^{k}") for k, c in enumerate(coeffs)))


def eval_p(p: StabilityPolynomial, z):
    """Evaluate p at a scalar or array argument (Horner from the leading
    coefficient, in place in one complex accumulator, so no temporary is
    allocated per coefficient)."""
    *rest, lead = p.coeffs
    acc = np.full(np.shape(z), lead, dtype=complex)
    for c in reversed(rest):
        acc *= z
        acc += c
    if np.ndim(z) == 0:
        return complex(acc)
    return acc


_BUILTIN_ROWS = {
    # name: (a_rows, b, order); every c is the stage row sums
    "fe": ([[]], [1], 1),
    "rk2": ([[], ["1/2"]], [0, 1], 2),
    "ssprk2": ([[], [1]], ["1/2", "1/2"], 2),
    "rk3": ([[], [1], ["1/4", "1/4"]], ["1/6", "1/6", "2/3"], 3),
    "lsrk3": (
        [[], ["1/2"], [0, 1], [0, 0, 1]],
        ["1/6", "2/3", 0, "1/6"],
        3,
    ),
    "rk4": (
        [[], ["1/2"], [0, "1/2"], [0, 0, 1]],
        ["1/6", "1/3", "1/3", "1/6"],
        4,
    ),
}


def builtin_tableaux() -> dict[str, ButcherTableau]:
    """The built-in explicit methods, keyed by short name.

    fe: forward Euler.  rk2: explicit midpoint; ssprk2: the Heun variant
    with the same stability polynomial.  rk3: three-stage SSP scheme.
    lsrk3: four-stage low-storage third-order scheme (stability polynomial
    1 + z + z^2/2 + z^3/6 + z^4/12).  rk4: the classical fourth-order
    method.
    """
    return {
        name: ButcherTableau.from_rows(a, b, name=name, order=order)
        for name, (a, b, order) in _BUILTIN_ROWS.items()
    }


def get_tableau(name: str) -> ButcherTableau:
    table = builtin_tableaux()
    if name not in table:
        raise KeyError(f"unknown tableau {name!r}; known: {', '.join(sorted(table))}")
    return table[name]


def tableau_from_json(path) -> ButcherTableau:
    """Load a tableau from a JSON file.

    Expected keys: "a" (ragged or square rows), "b", optional "c",
    "name" (a string), "order" (an integer >= 1 or null) and "stages" (an
    integer equal to the weight count).  Entries may be numbers or "p/q"
    strings.
    An unreadable file raises OSError, malformed content ValueError.
    """
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(data, dict):
        raise ValueError("tableau JSON must be an object")
    a, b, c = data.get("a"), data.get("b"), data.get("c")
    if not (isinstance(a, list) and all(isinstance(row, list) for row in a)):
        raise ValueError(f'tableau "a" must be a list of rows, got {a!r}')
    if not (isinstance(b, list) and isinstance(c, (list, type(None)))):
        raise ValueError(f'tableau "b" and optional "c" must be lists, got b={b!r}, c={c!r}')
    name, order, stages = data.get("name", ""), data.get("order"), data.get("stages", len(b))
    if not isinstance(name, str):
        raise ValueError(f'tableau "name" must be a string, got {name!r}')
    if order is not None and (isinstance(order, bool) or not isinstance(order, int) or order < 1):
        raise ValueError(f'tableau "order" must be an integer >= 1 or null, got {order!r}')
    if isinstance(stages, bool) or not isinstance(stages, int):
        raise ValueError(f'tableau "stages" must be an integer, got {stages!r}')
    if stages != len(b):
        raise ValueError("stages field disagrees with weight count")
    return ButcherTableau.from_rows(a, b, c, name=name, order=order)


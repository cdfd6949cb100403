"""Explicit Runge-Kutta tableaux and their stability polynomials.

An s-stage explicit method applied to w' = lam w advances the solution by
p(z) with z = dt*lam, where p is built from the stage recursion

    pi_1 = 1,   pi_i = 1 + z sum_{j<i} a_ij pi_j,
    p(z) = 1 + z sum_j b_j pi_j.

Tableau entries are stored as exact rationals (floats convert exactly, so
JSON input loses nothing) and the recursion runs in exact arithmetic; the
polynomial coefficients are rounded to double once at the end.  That keeps
the classical methods' coefficients bit-exact, e.g. the four-stage low
storage third-order scheme gives 1 + z + z^2/2 + z^3/6 + z^4/12.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from pathlib import Path

import numpy as np

__all__ = [
    "ButcherTableau",
    "StabilityPolynomial",
    "stability_polynomial",
    "eval_p",
    "in_stability_region",
    "builtin_tableaux",
    "get_tableau",
    "tableau_from_json",
    "certify_left_half_disk",
    "certified_left_disk_radius",
]

REGION_SLACK = 1e-14
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


@dataclass(frozen=True)
class ButcherTableau:
    """Explicit Runge-Kutta tableau with exact rational entries.

    ``a`` is the full s x s stage matrix (strictly lower triangular),
    ``b`` the weights and ``c`` the abscissae.  ``order`` is the declared
    classical order when known.
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
        if abs(float(sum(self.b)) - 1.0) > _CHECK_TOL:
            raise ValueError("weights must sum to 1")
        if abs(float(self.c[0])) > _CHECK_TOL:
            raise ValueError("first abscissa must be 0")
        for i in range(s):
            if abs(float(self.c[i] - sum(self.a[i][:i]))) > _CHECK_TOL:
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

    @cached_property
    def a_float(self) -> np.ndarray:
        arr = np.array([[float(x) for x in row] for row in self.a])
        arr.setflags(write=False)
        return arr

    @cached_property
    def b_float(self) -> np.ndarray:
        arr = np.array([float(x) for x in self.b])
        arr.setflags(write=False)
        return arr


@dataclass(frozen=True)
class StabilityPolynomial:
    """p(z) = sum_k coeffs[k] z^k, constant term first."""

    coeffs: tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.coeffs:
            raise ValueError("empty polynomial")
        if self.coeffs[0] != 1.0:
            raise ValueError("constant term must be 1")
        if len(self.coeffs) > 1 and abs(self.coeffs[1] - 1.0) > _CHECK_TOL:
            raise ValueError("linear term must be 1 for a consistent method")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1


def _poly_add(p: list[Fraction], q: list[Fraction]) -> list[Fraction]:
    n = max(len(p), len(q))
    out = [Fraction(0)] * n
    for i, v in enumerate(p):
        out[i] += v
    for i, v in enumerate(q):
        out[i] += v
    return out


def _poly_zscale(p: list[Fraction], s: Fraction) -> list[Fraction]:
    """s * z * p(z)."""
    return [Fraction(0)] + [s * v for v in p]


def stability_polynomial(tab: ButcherTableau) -> StabilityPolynomial:
    """Stability polynomial from the stage recursion, computed exactly."""
    stage: list[list[Fraction]] = []
    for i in range(tab.stages):
        p = [Fraction(1)]
        for j in range(i):
            if tab.a[i][j]:
                p = _poly_add(p, _poly_zscale(stage[j], tab.a[i][j]))
        stage.append(p)
    total = [Fraction(1)]
    for j in range(tab.stages):
        if tab.b[j]:
            total = _poly_add(total, _poly_zscale(stage[j], tab.b[j]))
    while len(total) > 1 and total[-1] == 0:
        total.pop()
    if len(total) - 1 > tab.stages:  # pragma: no cover - structural guarantee
        raise AssertionError("stability polynomial degree exceeds stage count")
    return StabilityPolynomial(tuple(float(c) for c in total))


def eval_p(p: StabilityPolynomial, z):
    """Evaluate p at a scalar or array argument (Horner)."""
    acc = np.zeros_like(np.asarray(z, dtype=complex))
    for c in reversed(p.coeffs):
        acc = acc * z + c
    if np.ndim(z) == 0:
        return complex(acc)
    return acc


def in_stability_region(p: StabilityPolynomial, z):
    """|p(z)| <= 1 + REGION_SLACK; the slack absorbs boundary roundoff."""
    mod = np.abs(eval_p(p, z))
    if np.ndim(z) == 0:
        return bool(mod <= 1.0 + REGION_SLACK)
    return mod <= 1.0 + REGION_SLACK


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
    "name", "order", "stages".  Entries may be numbers or "p/q" strings.
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
    stages = data.get("stages", len(b))
    if stages != len(b):
        raise ValueError("stages field disagrees with weight count")
    return ButcherTableau.from_rows(
        a, b, c, name=data.get("name", ""), order=data.get("order")
    )


def certify_left_half_disk(p: StabilityPolynomial, radius: float,
                           wedge: float = 1e-6, n_x: int = 96, n_y: int = 193) -> bool:
    """Dense-grid check that the set {|z| < radius, Re z < -wedge * Im^2}
    lies inside the stability region."""
    if radius <= 0:
        raise ValueError("radius must be positive")
    xs = -radius * (np.arange(1, n_x + 1) / n_x)
    ys = radius * np.linspace(-1.0, 1.0, n_y)
    zx, zy = np.meshgrid(xs, ys, indexing="ij")
    z = zx + 1j * zy
    mask = (np.abs(z) < radius) & (zx < -wedge * zy**2)
    if not mask.any():  # pragma: no cover - only for absurdly small radii
        return True
    return bool(np.all(in_stability_region(p, z[mask])))


def certified_left_disk_radius(p: StabilityPolynomial,
                               candidates=(0.0125, 0.025, 0.05, 0.1, 0.2, 0.4, 0.8, 1.6),
                               wedge: float = 1e-6) -> float:
    """Largest candidate radius whose wedge-trimmed half-disk certifies.

    Returns 0.0 when even the smallest candidate fails (first-order-damping
    methods reject the wedge arbitrarily close to the origin).
    """
    best = 0.0
    for radius in candidates:
        if certify_left_half_disk(p, radius, wedge=wedge):
            best = radius
        else:
            break
    return best

"""Independent dense oracles for the test suite.

Everything here recomputes quantities by a different route than the
library: exact-rational linear solves for stencil coefficients, dense
circulant matrices plus a general eigensolver for spectra, matrix
Horner evaluation for update operators, and a per-offset ``np.roll``
loop for periodic stencil application.  Slow on purpose; tests keep the
sizes small.
"""

from fractions import Fraction

import numpy as np

from fdmlab.stencil import FdOperator, StencilKind


def gauss_solve(rows, rhs):
    """Exact Gaussian elimination over Fractions with row pivoting."""
    n = len(rhs)
    a = [list(map(Fraction, row)) + [Fraction(v)] for row, v in zip(rows, rhs)]
    for col in range(n):
        piv = next(i for i in range(col, n) if a[i][col] != 0)
        a[col], a[piv] = a[piv], a[col]
        inv = 1 / a[col][col]
        a[col] = [x * inv for x in a[col]]
        for i in range(n):
            if i != col and a[i][col] != 0:
                f = a[i][col]
                a[i] = [x - f * y for x, y in zip(a[i], a[col])]
    return [a[i][n] for i in range(n)]


def vandermonde_dx(left, right):
    """First-derivative coefficients from the raw moment-condition solve."""
    ks = range(-left, right + 1)
    n = left + right + 1
    rows = [[Fraction(k) ** m for k in ks] for m in range(n)]
    rhs = [Fraction(1) if m == 1 else Fraction(0) for m in range(n)]
    return gauss_solve(rows, rhs)


def vandermonde_dxx(q):
    """Centered second-derivative coefficients from the moment conditions."""
    ks = range(-q, q + 1)
    n = 2 * q + 1
    rows = [[Fraction(k) ** m for k in ks] for m in range(n)]
    rhs = [Fraction(2) if m == 2 else Fraction(0) for m in range(n)]
    return gauss_solve(rows, rhs)


def shift_matrix(n, k):
    """Dense periodic shift: (S u)_j = u_{j+k mod n}."""
    s = np.zeros((n, n))
    for j in range(n):
        s[j, (j + k) % n] = 1.0
    return s


def dense_circulant(op: FdOperator, n):
    """Dense matrix of the grid operator, including the 1/h^p scaling."""
    p = 1 if op.spec.kind is StencilKind.FIRST_DERIVATIVE else 2
    m = np.zeros((n, n))
    for k, c in zip(range(-op.left, op.right + 1), op.coeffs_float):
        m += c * shift_matrix(n, k)
    return float(n) ** p * m


def roll_apply(op: FdOperator, u):
    """Periodic stencil application by one np.roll per nonzero coefficient.

    Accumulates c_k * u_{j+k} in offset order from a zero vector, then
    scales by n^p: the reference the gather kernel must match bit for bit.
    """
    n = len(u)
    acc = np.zeros_like(u, dtype=np.result_type(u.dtype, np.float64))
    for k, c in zip(op.offsets, op.coeffs_float):
        if c != 0.0:
            acc += c * np.roll(u, -k)
    p = 1 if op.spec.kind is StencilKind.FIRST_DERIVATIVE else 2
    return acc * float(n) ** p


def dense_ade_matrix(dx, dxx, n, nu):
    """Right-hand-side matrix of the scalar semidiscrete system."""
    m = np.zeros((n, n))
    if dx is not None:
        m -= dense_circulant(dx, n)
    if dxx is not None and nu != 0.0:
        m += nu * dense_circulant(dxx, n)
    return m


def dense_wave_matrix(w, n, nu):
    """Right-hand-side matrix of the wave system, 2n x 2n in (v, p) blocks."""
    dm = dense_circulant(w.dx_minus, n)
    dp = dense_circulant(w.dx_plus, n)
    b = dense_circulant(w.dxx, n)
    top = np.hstack([-0.5 * (dm - dp) + nu * b, -0.5 * (dm + dp)])
    bot = np.hstack([-0.5 * (dm + dp), -0.5 * (dm - dp)])
    return np.vstack([top, bot])


def matrix_poly(coeffs, m):
    """Horner evaluation of a polynomial at a matrix argument."""
    out = np.zeros_like(m)
    np.fill_diagonal(out, float(coeffs[-1]))
    for c in reversed(coeffs[:-1]):
        out = out @ m
        out += np.diag(np.full(m.shape[0], float(c)))
    return out


def assert_multiset_close(got, want, tol=1e-10):
    """Match complex multisets greedily; every element needs a partner."""
    got = [complex(z) for z in np.asarray(got).ravel()]
    want = [complex(z) for z in np.asarray(want).ravel()]
    assert len(got) == len(want), (len(got), len(want))
    for g in got:
        j = min(range(len(want)), key=lambda i: abs(want[i] - g))
        assert abs(want[j] - g) <= tol, f"unmatched {g} (nearest {want[j]})"
        want.pop(j)

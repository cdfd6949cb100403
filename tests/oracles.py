"""Independent dense oracles for the test suite.

Everything here recomputes quantities by a different route than the
library: exact-rational linear solves for stencil coefficients, per-term
exponential sums for symbols, dense circulant matrices plus a general
eigensolver for spectra, matrix Horner evaluation for update operators,
a per-offset ``np.roll`` loop for periodic stencil application, and the
simulator's first array-per-stage RK update, kept as written.  The
symbol evaluators' and the polynomial's earlier formulas (complex
exponential blocks, allocating Horner) are kept as written too, as the
references of the bit-identity tests, and so is the CLI's first row-wise
CSV formula.  Slow on purpose; tests keep the sizes small.
"""

import cmath
from fractions import Fraction

import numpy as np

from fdmlab.stencil import FdOperator, StencilKind
from fdmlab.wavesys import WaveDiscretization


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


def reference_update(cfg, fields, dt):
    """One RK step of ``cfg``'s system by the simulator's earlier formula.

    Each stencil is a gather ``u[idx]`` weighted by a (w, 1) column and
    summed as ``np.add.reduce(..., initial=0.0) * n**p``; the scalar
    right-hand side negates ``dx(w)`` in a pass of its own; and every
    stage combination is a tuple generator over the fields.  Returns the
    new fields as a tuple; ``SimConfig.update`` must match it bit for bit.
    """
    n, nu = cfg.grid.n_cells, cfg.grid.nu

    def kernel(op):
        keep = op.coeffs_float != 0.0
        idx = (np.arange(n) + op.offsets[keep][:, None]) % n
        coeffs = op.coeffs_float[keep][:, None]
        scale = float(n) ** (1 if op.spec.kind is StencilKind.FIRST_DERIVATIVE else 2)

        def apply(u):
            g = u[idx]
            g *= coeffs
            return np.add.reduce(g, axis=0, initial=0.0) * scale

        return apply

    ops = cfg.operators
    if isinstance(ops, WaveDiscretization):
        dx_minus, dx_plus, dxx = kernel(ops.dx_minus), kernel(ops.dx_plus), kernel(ops.dxx)

        def rhs(fields):
            v, p = fields
            dm = dx_minus(v + p)
            dp = dx_plus(v - p)
            dv = -0.5 * dm + 0.5 * dp
            if nu != 0.0:
                dv = dv + nu * dxx(v)
            return (dv, -0.5 * dm - 0.5 * dp)
    else:
        dx, dxx = (None if op is None else kernel(op) for op in ops)

        def rhs(fields):
            (w,) = fields
            out = -dx(w)
            if nu != 0.0:
                out += nu * dxx(w)
            return (out,)

    plan = [[(j, float(a)) for j, a in enumerate(row) if float(a) != 0.0]
            for row in cfg.tableau.a]
    weights = [(j, float(b)) for j, b in enumerate(cfg.tableau.b) if float(b) != 0.0]
    ks = []
    for row in plan:
        stage = fields
        for j, aij in row:
            stage = tuple(sv + dt * aij * kv for sv, kv in zip(stage, ks[j]))
        ks.append(rhs(stage))
    for j, bj in weights:
        fields = tuple(fv + dt * bj * kv for fv, kv in zip(fields, ks[j]))
    return fields


def direct_ade_symbol(dx, dxx, r, theta):
    """lambda_R at one angle as a per-term sum of complex exponentials.

    Adds -a_k e^{i k theta} for every advection coefficient and
    R b_k e^{i k theta} for every diffusion coefficient (the full
    exponential sum, not the cosine form), one Python complex at a time.
    Returns ``(lam, scale)``, ``scale`` being the sum of the term moduli
    that bounds the rounding error.
    """
    terms = []
    if dx is not None:
        terms += [-float(a) * cmath.exp(1j * k * theta)
                  for k, a in zip(range(-dx.left, dx.right + 1), dx.coeffs)]
    if dxx is not None:
        terms += [r * float(b) * cmath.exp(1j * k * theta)
                  for k, b in zip(range(-dxx.left, dxx.right + 1), dxx.coeffs)]
    return sum(terms, 0j), sum(abs(t) for t in terms)


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


REFERENCE_CHUNK = 1 << 16  # angles per block, as the symbol evaluators use


def _reference_blocks(block, theta, dtype):
    """The symbol evaluators' block loop as it was: REFERENCE_CHUNK angles
    at a time into one output, exactly 0 at theta = 0, and a Python scalar
    for a scalar angle."""
    th = np.asarray(theta, dtype=float)
    flat = th.reshape(-1)
    out = np.empty(flat.shape, dtype=dtype)
    for start in range(0, flat.size, REFERENCE_CHUNK):
        out[start : start + REFERENCE_CHUNK] = block(flat[start : start + REFERENCE_CHUNK])
    out[flat == 0.0] = 0.0
    return out[0].item() if th.ndim == 0 else out.reshape(th.shape)


def reference_advection_symbol(dx, theta):
    """lambda_0 by the earlier formula: a complex exponential per (angle,
    offset) pair with integer offsets, then one BLAS product per block."""

    def block(th):
        return -(np.exp(1j * th[:, np.newaxis] * dx.offsets) @ dx.coeffs_float)

    return _reference_blocks(block, theta, complex)


def reference_diffusion_symbol(dxx, theta):
    """lambda_inf by the earlier formula: cosines of integer multiples."""
    q = dxx.spec.left
    b = dxx.coeffs_float
    k = np.arange(1, q + 1)

    def block(th):
        return b[q] + 2.0 * (np.cos(th[:, np.newaxis] * k) @ b[q + 1 :])

    return _reference_blocks(block, theta, float)


def reference_ade_symbol(dx, dxx, r, theta):
    """lambda_R = lambda_0 + R lambda_inf summed as ``ade_symbol`` sums it,
    from the two reference symbols."""
    adv = 0j if dx is None else reference_advection_symbol(dx, theta)
    return adv + (0.0 if dxx is None else r * reference_diffusion_symbol(dxx, theta))


def reference_eval_p(coeffs, z):
    """Horner evaluation that allocates a new accumulator per coefficient."""
    acc = np.zeros_like(np.asarray(z, dtype=complex))
    for c in reversed(coeffs):
        acc = acc * z + c
    if np.ndim(z) == 0:
        return complex(acc)
    return acc


def reference_csv_text(header, rows):
    """The CLI's first CSV formula: one line per row, str() per cell, with
    float columns passed as ``array.tolist()``."""
    lines = [header]
    lines.extend(",".join(str(c) for c in row) for row in rows)
    return "\n".join(lines) + "\n"

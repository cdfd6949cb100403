"""Coupled wave-system blocks: eigenpairs, semistability, classification."""

import math
import warnings

import numpy as np
import pytest

from fdmlab import (
    GridConfig,
    SpectrumClass,
    WaveDiscretization,
    build_dx,
    build_dxx,
    classify_spectrum,
    grid_eigenpairs,
    mirror,
    sample_grid,
    sample_wave_trajectory,
    wave_eigs,
    wave_semistable_check,
    wave_symbols,
)
from fdmlab import wavesys
from oracles import assert_multiset_close, dense_wave_matrix

W1 = WaveDiscretization(build_dx(1, 0), build_dx(0, 1), build_dxx(1))


def make_wave(lm, lp, q):
    return WaveDiscretization(build_dx(*lm), build_dx(*lp), build_dxx(q))


def test_discretization_validation():
    with pytest.raises(ValueError):
        WaveDiscretization(build_dx(1, 2), build_dx(0, 1), build_dxx(1))  # minus not upwind
    with pytest.raises(ValueError):
        WaveDiscretization(build_dx(1, 0), build_dx(2, 1), build_dxx(1))  # plus not downwind
    with pytest.raises(ValueError):
        WaveDiscretization(build_dx(1, 0), build_dx(0, 1), build_dx(1, 1))  # not a dxx


def test_symmetry_detection():
    assert W1.symmetric
    assert make_wave((3, 1), (1, 3), 2).symmetric
    assert not make_wave((3, 1), (1, 2), 2).symmetric


def test_symbols_pinned_at_pi():
    am, ap, b = wave_symbols(W1, math.pi)
    assert abs(am - 2.0) < 1e-14
    assert abs(ap + 2.0) < 1e-14
    assert abs(b + 4.0) < 1e-14
    am0, ap0, b0 = wave_symbols(W1, 0.0)
    assert am0 == 0.0 and ap0 == 0.0 and b0 == 0.0


def test_eigenpair_pinned_at_pi():
    # decoupled at pi: s = 0, so the pair is (R b - d)/2 +- |R b|/2
    lam1, lam2, jordan = wave_eigs(W1, 1.0, math.pi)
    assert_multiset_close([lam1, lam2], [-2.0, -6.0], tol=1e-13)
    assert not jordan


def test_jordan_point_on_the_matched_angle():
    # tan(theta/2) = 1/R collapses the discriminant; R = 1, theta = pi/2
    lam1, lam2, jordan = wave_eigs(W1, 1.0, math.pi / 2)
    assert jordan
    assert abs(lam1 - (-2.0)) < 1e-7
    assert abs(lam2 - (-2.0)) < 1e-7
    # the consistency point is a scalar zero block, never flagged
    assert not wave_eigs(W1, 1.0, 0.0)[2]
    assert wave_eigs(W1, 1.0, 0.0)[0] == 0.0


@pytest.mark.parametrize("lm", [(1, 0), (2, 1), (3, 1), (21, 20)])
def test_no_jordan_block_at_zero_r(lm):
    # with R b = 0 the block is -(d/2) I - (s/2) J, J swapping the fields,
    # which (1, 1) and (1, -1) diagonalize for every s; where the pair
    # nearly repeated (theta = pi for symmetric pairs) it read as defective
    w = WaveDiscretization(build_dx(*lm), mirror(build_dx(*lm)), build_dxx(2))
    for n in [*range(8, 65), 255, 256, 1023, 1024, 4095, 4096]:
        assert not sample_wave_trajectory(w, 0.0, n)[3].any(), n
    for n in (8, 64, 1024):
        th, _, _, jordan = grid_eigenpairs(w, 0.0, n)
        assert th[n // 2] == math.pi and not jordan.any(), n


def test_eigs_match_explicit_blocks():
    w = make_wave((3, 1), (1, 2), 2)
    r = 0.7
    for theta in np.linspace(-3.0, 3.0, 25):
        am, ap, b = wave_symbols(w, theta)
        d, s = am - ap, am + ap
        block = np.array([[r * b - d / 2, -s / 2], [-s / 2, -d / 2]])
        lam1, lam2, _ = wave_eigs(w, r, float(theta))
        assert_multiset_close(
            [lam1, lam2], np.linalg.eigvals(block), tol=1e-12
        )


@pytest.mark.parametrize(
    "lm,lp,q,nu,n",
    [
        ((1, 0), (0, 1), 1, 0.3, 12),
        ((3, 1), (1, 3), 2, 0.05, 10),
        ((3, 1), (1, 2), 2, 0.0, 9),
        ((2, 1), (1, 2), 1, 1.0, 6),
    ],
)
def test_grid_pairs_match_dense_oracle(lm, lp, q, nu, n):
    w = make_wave(lm, lp, q)
    _, lam1, lam2, _ = grid_eigenpairs(w, nu * n, n)
    lib = np.concatenate([lam1, lam2])
    dense = np.linalg.eigvals(dense_wave_matrix(w, n, nu)) / n
    assert_multiset_close(lib, dense, tol=1e-10)


@pytest.mark.parametrize(
    "lm,lp,q,nu,n",
    [((1, 0), (0, 1), 1, 0.3, 2), ((3, 1), (1, 3), 2, 0.05, 9), ((3, 1), (1, 2), 2, 0.0, 16),
     ((12, 11), (11, 12), 5, 0.01, 37), ((21, 20), (20, 21), 5, 0.02, 8)],
)
def test_grid_pairs_in_fft_mode_order(lm, lp, q, nu, n):
    # pair k belongs to theta = 2 pi k / n: the 2 x 2 block of mode k holds
    # the k-th DFT values of column 0 of the four circulant blocks, no roll
    w = make_wave(lm, lp, q)
    th, lam1, lam2, _ = grid_eigenpairs(w, nu * n, n)
    assert th.tobytes() == (2.0 * np.pi * np.arange(n) / n).tobytes()
    dense = dense_wave_matrix(w, n, nu)
    blocks = np.fft.fft(dense.reshape(2, n, 2, n)[:, :, :, 0], axis=1) / n
    want = np.linalg.eigvals(blocks.transpose(1, 0, 2))
    err = np.minimum(np.abs(lam1 - want[:, 0]) + np.abs(lam2 - want[:, 1]),
                     np.abs(lam1 - want[:, 1]) + np.abs(lam2 - want[:, 0]))
    assert np.max(err) <= 1e-12
    assert lam1[0] == lam2[0] == 0.0


def test_grid_pairs_edges():
    th, lam1, lam2, jordan = grid_eigenpairs(W1, 1.0, 2)
    assert len(th) == len(lam1) == len(lam2) == len(jordan) == 2
    assert th[0] == 0.0
    assert lam1[0] == 0.0 and lam2[0] == 0.0
    with pytest.raises(ValueError):
        grid_eigenpairs(W1, 1.0, 1)
    with pytest.raises(ValueError):
        wave_eigs(W1, -0.5, 1.0)


@pytest.mark.parametrize("n", [6.5, 8.0, True])
def test_cell_count_must_be_an_integer(n):
    # a fractional count would put pairs at the off-grid angles 2 pi k / 6.5
    with pytest.raises(ValueError) as grid_err:
        GridConfig(n, 0.0, 0.1)
    for call in (lambda: grid_eigenpairs(W1, 1.0, n), lambda: classify_spectrum(W1, 0.0, n)):
        with pytest.raises(ValueError) as err:
            call()
        assert str(err.value) == str(grid_err.value) == f"n_cells must be an integer, got {n!r}"


@pytest.mark.parametrize("r", [math.inf, -math.inf, math.nan, -0.5])
def test_r_must_be_finite_and_non_negative(r):
    calls = [
        lambda: wave_eigs(W1, r, 1.0),
        lambda: sample_wave_trajectory(W1, r, 16),
        lambda: grid_eigenpairs(W1, r, 8),
        lambda: wave_semistable_check(W1, r),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="R must be finite and non-negative"):
            call()


@pytest.mark.parametrize("nu", [1e308])
def test_classify_rejects_overflowing_r(nu):
    # R = nu * N is what the eigenvalues see; 1e308 * 16 overflows to inf
    with pytest.raises(ValueError, match="R must be finite"):
        classify_spectrum(W1, nu, 16)


@pytest.mark.parametrize("nu", [math.nan, math.inf, -1.0])
def test_classify_states_the_grid_viscosity_rule(nu):
    # its own copy of the rule read NaN as negative and let inf through to R
    with pytest.raises(ValueError) as grid_err:
        GridConfig(16, nu, 0.1)
    with pytest.raises(ValueError) as err:
        classify_spectrum(W1, nu, 16)
    assert str(err.value) == str(grid_err.value) == "viscosity must be finite and non-negative"


def test_eigenvalues_that_overflow_are_rejected():
    # R itself is finite, but (R b)^2 overflows in the discriminant; the
    # error comes without numpy warnings first
    calls = [
        lambda: wave_eigs(W1, 1e200, 1.0),
        lambda: sample_wave_trajectory(W1, 1e200, 16),
        lambda: classify_spectrum(W1, 1e300, 64),
    ]
    for call in calls:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="R must be finite"):
                call()


SEMISTABLE_CONFIGS = [
    ((3, 1), (1, 3), 2),
    ((21, 20), (20, 21), 20),
    ((3, 1), (1, 2), 2),
    ((21, 20), (10, 11), 20),
    # E1 * F1 underflows to -0.0 at the smallest sampled angles
    ((26, 25), (25, 26), 2),
    ((40, 39), (39, 40), 2),
    # E1 = amp sin^(2l)(theta/2) itself underflows to 0.0 at |theta| = 2 pi/4096
    *(((l, l - 1), (l - 1, l), 2) for l in range(52, 57)),
]


@pytest.mark.parametrize("lm,lp,q", SEMISTABLE_CONFIGS)
@pytest.mark.parametrize("r", [0.0, 0.1, 2.0])
def test_semistability(lm, lp, q, r):
    assert wave_semistable_check(make_wave(lm, lp, q), r)


def test_semistability_fails_on_a_positive_real_part(monkeypatch):
    w = make_wave((3, 1), (1, 3), 2)
    assert wave_semistable_check(w, 0.1)
    exact = wavesys.wave_eigs

    def perturbed(w, r, theta):
        lam1, lam2, jordan = exact(w, r, theta)
        lam1 = lam1.copy()
        lam1[1] = 1e-6 + 1j * lam1[1].imag
        return lam1, lam2, jordan

    monkeypatch.setattr(wavesys, "wave_eigs", perturbed)
    assert not wave_semistable_check(w, 0.1)


def test_semistable_sign_quantities_by_hand():
    # cross-check the rearranged D2 identity on one angle
    w = make_wave((3, 1), (1, 2), 2)
    th = 1.3
    am, ap, _ = wave_symbols(w, th)
    e1, f1 = am.real, ap.real
    s = am + ap
    d2_direct = abs(s) ** 2 - 8 * e1 * f1
    d2_parts = (e1 + f1) ** 2 + (am.imag + ap.imag) ** 2 - 8 * e1 * f1
    assert d2_direct == pytest.approx(d2_parts, rel=1e-13)
    assert e1 > 0 > f1


def test_semistability_rejects_negative_r():
    with pytest.raises(ValueError):
        wave_semistable_check(W1, -1.0)


def test_classification_with_strong_damping():
    for n in (16, 64):
        assert classify_spectrum(W1, 10.0, n) is SpectrumClass.ALL_REAL
    assert classify_spectrum(W1, 0.1, 1024) is SpectrumClass.HAS_COMPLEX
    with pytest.raises(ValueError):
        classify_spectrum(make_wave((3, 1), (1, 2), 2), 1.0, 16)
    with pytest.raises(ValueError):
        classify_spectrum(W1, -1.0, 16)


def test_classification_crossover_matches_smallest_angle_rule():
    # first-order symmetric pair: complex modes exist exactly when the
    # smallest grid angle satisfies tan(theta/2) < 1/R
    for nu, n in [(10.0, 256), (0.1, 1024), (0.5, 64), (2.0, 32)]:
        r = nu * n
        th1 = 2 * math.pi / n
        want = (
            SpectrumClass.ALL_REAL
            if math.tan(th1 / 2) >= 1.0 / r
            else SpectrumClass.HAS_COMPLEX
        )
        assert classify_spectrum(W1, nu, n) is want


def test_spectrum_height_shrinks_with_damping():
    w = make_wave((3, 1), (1, 3), 2)

    def height(r):
        _, lam1, lam2, _ = sample_wave_trajectory(w, r, 512)
        return max(np.abs(lam1.imag).max(), np.abs(lam2.imag).max())

    assert height(2.0) < 0.5 * height(0.1)


def test_stable_parts_can_sum_unstable():
    # why the analysis works on the coupled block: two Hurwitz matrices
    # whose sum has a positive eigenvalue
    b1 = np.array([[-1.0, 3.0], [0.0, -1.0]])
    b2 = np.array([[-1.0, 0.0], [3.0, -1.0]])
    assert max(np.linalg.eigvals(b1).real) < 0
    assert max(np.linalg.eigvals(b2).real) < 0
    assert max(np.linalg.eigvals(b1 + b2).real) > 0


def test_trajectory_sampling_shape():
    th, lam1, lam2, jordan = sample_wave_trajectory(W1, 0.5, 64)
    assert len(th) == len(lam1) == len(lam2) == len(jordan) == 64
    assert th[0] == -math.pi
    zero = th == 0.0
    assert zero.sum() == 1 and lam1[zero][0] == 0.0


def test_mirror_pair_agrees_with_sample_grid_symmetry():
    # symmetric pair: eigenvalue set at -theta is the conjugate of theta's
    w = make_wave((3, 1), (1, 3), 2)
    for theta in (0.4, 1.1, 2.9):
        a1, a2, _ = wave_eigs(w, 0.8, theta)
        b1, b2, _ = wave_eigs(w, 0.8, -theta)
        assert_multiset_close(
            [a1, a2],
            [b1.conjugate(), b2.conjugate()],
            tol=1e-12,
        )


def test_scalar_angle_gives_the_bits_of_a_one_angle_array():
    # at R = 0 a negative diffusion symbol makes R b = -0.0; numpy's scalar
    # complex power squares that to +0j, its array power to -0j, and the
    # sign of that zero picks the square-root branch of each pair
    for w in (W1, make_wave((3, 1), (1, 3), 2), make_wave((2, 1), (1, 3), 1)):
        for r in (0.0, 0.7):
            for theta in np.linspace(-3.0, 3.0, 61):
                got = wave_eigs(w, r, float(theta))
                want = wave_eigs(w, r, np.array([theta]))
                for x, y in zip(got, want):
                    assert np.asarray(x).tobytes() == y.tobytes()

"""Pin the benchmark's closed forms against 40-digit mpmath computations.

Run with ``python3 -m pytest -q perfbench/tests`` from the repository root.
Each formula is checked against an independent representation (a direct
principal-value integral, a Hankel transform, a numerical derivative), not
against a re-typed copy of itself.
"""

import math
import sys
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import reference as ref  # noqa: E402

mp.mp.dps = 40


def _pv_1d(u, x, alpha, breaks=(), delta=mp.mpf("0.1")):
    """(2 - alpha) * integral_0^inf (2u(x) - u(x+t) - u(x-t)) t^(-1-alpha) dt.

    Below ``delta`` the symmetric difference is summed from the Taylor
    series of u at x (2u(x) - u(x+t) - u(x-t) = -2 sum_k a_2k t^2k), which
    avoids the cancellation a direct quadrature meets at tiny t; u must be
    analytic on [x - delta, x + delta].
    """
    a = mp.taylor(u, x, 30)
    near = -2 * mp.fsum(a[2 * k] * delta ** (2 * k - alpha) / (2 * k - alpha) for k in range(1, 16))
    pts = [delta] + sorted(mp.mpf(b) for b in breaks if b > delta) + [mp.inf]
    f = lambda t: (2 * u(x) - u(x + t) - u(x - t)) * t ** (-1 - alpha)
    return (2 - alpha) * (near + mp.quad(f, pts))


def test_constant_matches_gamma_formula_and_known_value():
    for n in (1, 2):
        for s in (0.25, 0.5, 0.75, 0.95):
            s_mp = mp.mpf(s)
            exact = 4 ** s_mp * mp.gamma(mp.mpf(n) / 2 + s_mp) / (
                mp.pi ** (mp.mpf(n) / 2) * abs(mp.gamma(-s_mp)))
            assert ref.frac_laplacian_constant(n, s) == pytest.approx(float(exact), rel=1e-14)
    # The 1-D half-Laplacian constant is 1/pi.
    assert ref.frac_laplacian_constant(1, 0.5) == pytest.approx(1.0 / math.pi, rel=1e-15)


@pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5, 1.9])
@pytest.mark.parametrize("x", [0.0, 0.3, 0.9])
def test_gaussian_LK_1d_matches_direct_pv_integral(alpha, x):
    a = mp.mpf(alpha)
    exact = _pv_1d(lambda y: mp.exp(-y * y), mp.mpf(x), a, breaks=(1,))
    got = float(ref.gaussian_LK(np.array([x]), alpha))
    assert got == pytest.approx(float(exact), rel=1e-12, abs=1e-14)


@pytest.mark.parametrize("alpha", [0.5, 1.0, 1.9])
@pytest.mark.parametrize("r", [0.0, 0.5, 1.2])
def test_gaussian_frac_laplacian_2d_matches_hankel_transform(alpha, r):
    # 2-D: (-Delta)^s exp(-|x|^2) = 1/2 int_0^inf k^(2s+1) exp(-k^2/4) J0(k r) dk.
    s = mp.mpf(alpha) / 2
    f = lambda k: k ** (2 * s + 1) * mp.exp(-k * k / 4) * mp.besselj(0, k * mp.mpf(r))
    exact = mp.quad(f, [0, 4, 8, 16, mp.inf]) / 2
    got = float(ref.gaussian_frac_laplacian(np.array([r, 0.0]), alpha))
    assert got == pytest.approx(float(exact), rel=1e-12)


@pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5])
@pytest.mark.parametrize("x", [0.0, 0.5])
def test_torsion_1d_solves_the_ball_problem(alpha, x):
    a = mp.mpf(alpha)
    amp = mp.mpf(ref.torsion_amplitude(1, alpha, source=1.0))
    u = lambda y: amp * (1 - y * y) ** (a / 2) if abs(y) < 1 else mp.mpf(0)
    xm = mp.mpf(x)
    got = _pv_1d(u, xm, a, breaks=(1 - xm, 1 + xm))
    assert float(got) == pytest.approx(1.0, rel=1e-13)


@pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5])
def test_torsion_2d_solves_the_ball_problem_at_the_centre(alpha):
    # At x = 0 the field is radial: L_K u(0) = (2-a) 2 pi int_0^inf (u0 - u(r)) r^(-1-a) dr.
    a = mp.mpf(alpha)
    amp = mp.mpf(ref.torsion_amplitude(2, alpha, source=1.0))
    u = lambda r: amp * (1 - r * r) ** (a / 2) if r < 1 else mp.mpf(0)
    val = (2 - a) * 2 * mp.pi * mp.quad(lambda r: (u(0) - u(r)) * r ** (-1 - a), [0, 1, mp.inf])
    assert float(val) == pytest.approx(1.0, rel=1e-13)


def test_torsion_scales_with_the_source():
    x = np.array([[0.1, -0.2]])
    assert ref.torsion(x, 1.0, source=2.5)[0] == pytest.approx(2.5 * ref.torsion(x, 1.0)[0], rel=1e-15)


def test_anisotropic_constant_c24():
    val = mp.quad(lambda t: 1 / (mp.cos(t) ** 4 + mp.sin(t) ** 4), [0, mp.pi / 2]) * 4 / 2
    assert ref.C_2_4 == pytest.approx(float(val), rel=1e-15)


def test_gaussian_hessian_and_alpha_limits():
    x = (0.3, -0.7)
    f = lambda a, b: mp.exp(-a * a - b * b)
    h = np.array([[float(mp.diff(f, x, (2, 0))), float(mp.diff(f, x, (1, 1)))],
                  [float(mp.diff(f, x, (1, 1))), float(mp.diff(f, x, (0, 2)))]])
    np.testing.assert_allclose(ref.gaussian_hessian(np.array(x)), h, rtol=1e-13)
    lap = h[0, 0] + h[1, 1]
    assert ref.alpha_limit("ExponentialScaled", x) == pytest.approx(-lap, rel=1e-13)
    assert ref.alpha_limit("Anisotropic", x) == pytest.approx(-float(mp.sqrt(2) * mp.pi) * lap, rel=1e-13)
    assert ref.alpha_limit("MatrixDiag", x, (1.0, 2.0)) == pytest.approx(-(h[0, 0] + 4 * h[1, 1]), rel=1e-13)


@pytest.mark.parametrize("kind,lam,alpha", [("MatrixTransformed", 1.7, 1.2), ("DiagQuadratic", 1.7, 1.2),
                                            ("AnisotropicPNorm", 1.0, 0.8)])
def test_one_dimensional_powerlaw_multiples(kind, lam, alpha):
    # The 1-D densities, written from the kernel definitions, at |y| = 0.37.
    y = 0.37
    power = (2 - alpha) * y ** (-1 - alpha)
    if kind == "MatrixTransformed":
        k = (2 - alpha) / lam * (y / lam) ** (-1 - alpha)
    elif kind == "DiagQuadratic":
        k = (2 - alpha) * lam * y ** (-1 - alpha)
    else:
        k = power
    assert ref.powerlaw_multiple_1d(kind, alpha, lam) == pytest.approx(k / power, rel=1e-14)

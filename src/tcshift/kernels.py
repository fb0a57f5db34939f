"""Closed-form thermal kernels and their truncated frequency-sum counterparts.

All functions are pure, total on finite inputs and vectorize over numpy arrays.
Near removable singularities they switch to series branches; large arguments
are routed through rescaled forms that only ever exponentiate non-positive
numbers, so nothing here overflows.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "g0",
    "g1",
    "g2",
    "g1_exp_form",
    "g1_sinh_form",
    "g2_exp_form",
    "g2_tanh_form",
    "chi",
    "xi",
    "matsubara_tanh",
    "matsubara_xi",
    "L_pq",
    "hessian_L_closed",
]

# Naive-denominator threshold below which series branches take over.
SMALL = 1e-4

# tanh(w)/w = 1 - w^2/3 + 2 w^4/15 - ... (six terms, |w| < 1 plenty)
_TANHC = (1.0, -1.0 / 3.0, 2.0 / 15.0, -17.0 / 315.0, 62.0 / 2835.0, -1382.0 / 155925.0)
# sinh(w)/w = 1 + w^2/6 + w^4/120 + ...
_SINHC = (1.0, 1.0 / 6.0, 1.0 / 120.0, 1.0 / 5040.0, 1.0 / 362880.0, 1.0 / 39916800.0)


def _poly_even(coeffs, z):
    """Evaluate sum_k coeffs[k] * z**(2k) (Horner in z^2)."""
    z2 = z * z
    acc = np.zeros_like(z) + coeffs[-1]
    for c in coeffs[-2::-1]:
        acc = acc * z2 + c
    return acc


def _sech(x):
    """1/cosh(x) without overflow: 2 e^{-|x|} / (1 + e^{-2|x|})."""
    a = np.abs(x)
    e = np.exp(-a)
    return 2.0 * e / (1.0 + e * e)


def g0(z):
    """tanh(z/2)/z, continued through z=0 by its value 1/2. Even."""
    z = np.asarray(z, dtype=float)
    small = np.abs(z) < SMALL
    zs = np.where(small, 1.0, z)
    direct = np.tanh(0.5 * zs) / zs
    series = 0.5 * _poly_even(_TANHC, 0.5 * z)
    out = np.where(small, series, direct)
    return out if out.ndim else float(out)


def _sinh_minus_z(z):
    """sinh(z) - z by series; accurate for |z| <= 1 where the subtraction cancels."""
    z2 = z * z
    term = z * z2 / 6.0
    acc = term
    for k in range(2, 12):
        term = term * z2 / ((2 * k) * (2 * k + 1))
        acc = acc + term
    return acc


def g1_sinh_form(z):
    """(1/(2 z^2)) (sinh z - z) / cosh^2(z/2), stable on all of R. Odd."""
    z = np.asarray(z, dtype=float)
    a = np.abs(z)
    sgn = np.sign(z)
    out = np.empty_like(a)

    lo = a < 1.0
    al = np.where(lo & (a > 0.0), a, 1.0)
    out_lo = _sinh_minus_z(al) / (2.0 * al * al * np.cosh(0.5 * al) ** 2)
    # exact e^{-a}-rescale: (1 - e^{-2a} - 2a e^{-a}) / (a^2 (1+e^{-a})^2)
    ah = np.where(lo, 1.0, a)
    e = np.exp(-ah)
    out_hi = (-np.expm1(-2.0 * ah) - 2.0 * ah * e) / (ah * ah * (1.0 + e) ** 2)
    out = np.where(lo, out_lo, out_hi)
    out = np.where(a == 0.0, 0.0, sgn * out)
    return out if out.ndim else float(out)


def _g1_exp_numerator_series(z):
    """e^{2z} - 2z e^z - 1 = sum_{n>=3} (2^n - 2n) z^n / n!."""
    acc = np.zeros_like(z)
    term = np.ones_like(z)  # z^n / n! running factor, starts at n=0
    for n in range(1, 26):
        term = term * z / n
        c = float(2**n - 2 * n)
        if c != 0.0:
            acc = acc + c * term
    return acc


def g1_exp_form(z):
    """(e^{2z} - 2z e^z - 1) / (z^2 (e^z + 1)^2), evaluated as printed.

    Independent of :func:`g1_sinh_form` wherever a direct evaluation is
    representable; the two agree to rounding because they are the same
    function.
    """
    z = np.asarray(z, dtype=float)
    a = np.abs(z)
    out = np.empty_like(a)

    small = a < 0.5
    zs = np.where(small, 0.0, z)
    big = zs > 300.0
    zb = np.where(big | small, 1.0, z)

    # direct region (|z| >= 0.5, z <= 300): no overflow, no cancellation
    direct = (np.exp(2.0 * zb) - 2.0 * zb * np.exp(zb) - 1.0) / (
        zb * zb * (np.exp(zb) + 1.0) ** 2
    )
    # z > 300: same expression scaled through by e^{-2z}
    zl = np.where(big, zs, 1.0)
    el = np.exp(-zl)
    scaled = (-np.expm1(-2.0 * zl) - 2.0 * zl * el) / (zl * zl * (1.0 + el) ** 2)
    out = np.where(big, scaled, direct)

    # |z| < 0.5: series numerator over the directly-evaluated denominator
    zss = np.where(small, z, 1.0)
    num = _g1_exp_numerator_series(zss)
    den = zss * zss * (np.exp(zss) + 1.0) ** 2
    out = np.where(small, np.where(zss == 0.0, 0.0, num / np.where(zss == 0.0, 1.0, den)), out)
    return out if out.ndim else float(out)


g1 = g1_sinh_form


def g2_tanh_form(z):
    """(1/(2z)) tanh(z/2) / cosh^2(z/2), continued through z=0 by 1/4. Even."""
    z = np.asarray(z, dtype=float)
    small = np.abs(z) < SMALL
    zs = np.where(small, 1.0, z)
    direct = np.tanh(0.5 * zs) * _sech(0.5 * zs) ** 2 / (2.0 * zs)
    series = 0.25 * _poly_even(_TANHC, 0.5 * z) * _sech(0.5 * z) ** 2
    out = np.where(small, series, direct)
    return out if out.ndim else float(out)


def g2_exp_form(z):
    """2 e^z (e^z - 1) / (z (e^z + 1)^3), evaluated as printed."""
    z = np.asarray(z, dtype=float)
    small = np.abs(z) < SMALL
    big = z > 200.0
    mid = ~small & ~big
    zm = np.where(mid, z, 1.0)
    direct = 2.0 * np.exp(zm) * np.expm1(zm) / (zm * (np.exp(zm) + 1.0) ** 3)
    zb = np.where(big, z, 1.0)
    eb = np.exp(-zb)
    scaled = 2.0 * (eb - eb * eb) / (zb * (1.0 + eb) ** 3)
    # series for the removable point: tanh expansion of the equivalent form
    series = 0.25 * _poly_even(_TANHC, 0.5 * z) * _sech(0.5 * z) ** 2
    out = np.where(small, series, np.where(big, scaled, direct))
    return out if out.ndim else float(out)


g2 = g2_tanh_form


def chi(beta, E):
    """tanh(beta E / 2) / E; equals beta * g0(beta * E). beta/2 at E=0."""
    if beta <= 0.0 or not math.isfinite(beta):
        raise ValueError(f"beta must be positive and finite, got {beta}")
    return beta * g0(beta * np.asarray(E, dtype=float))


def _sinhc(w):
    """sinh(w)/w, 1 at w=0."""
    small = np.abs(w) < SMALL
    ws = np.where(small, 1.0, w)
    direct = np.sinh(np.clip(ws, -700.0, 700.0)) / ws
    series = _poly_even(_SINHC, w)
    return np.where(small, series, direct)


def xi(beta, E, Ep):
    """Two-energy kernel (tanh(bE/2) + tanh(bE'/2)) / (E + E').

    Continuous across E + E' = 0, where it takes the limiting value
    (beta/2) / cosh^2(beta E / 2).  The near-diagonal branch uses the exact
    identity tanh u + tanh v = sinh(u+v) / (cosh u cosh v).
    """
    if beta <= 0.0 or not math.isfinite(beta):
        raise ValueError(f"beta must be positive and finite, got {beta}")
    E = np.asarray(E, dtype=float)
    Ep = np.asarray(Ep, dtype=float)
    u = 0.5 * beta * E
    v = 0.5 * beta * Ep
    w = u + v
    scale = np.maximum(1.0, np.maximum(np.abs(u), np.abs(v)))
    near = np.abs(w) < SMALL * scale

    s = np.where(near, 1.0, E + Ep)
    naive = (np.tanh(u) + np.tanh(v)) / s

    # the u and v factors are multiplied first so that xi(E, E') == xi(E', E) exactly
    wn = np.where(near & (np.abs(w) <= 30.0), w, 0.0)
    limit = 0.5 * beta * _sinhc(wn) * (_sech(u) * _sech(v))
    # |w| > 30 on the near-diagonal branch: exponentiate non-positive args only
    wb = np.where(near & (np.abs(w) > 30.0), w, 1.0)
    t = np.abs(u) + np.abs(v)
    eu = np.exp(-2.0 * np.abs(u))
    ev = np.exp(-2.0 * np.abs(v))
    big = beta * (np.exp(wb - t) - np.exp(-wb - t)) / (wb * ((1.0 + eu) * (1.0 + ev)))
    limit = np.where(near & (np.abs(w) > 30.0), big, limit)

    out = np.where(near, limit, naive)
    return out if out.ndim else float(out)


def L_pq(beta, mu, p, q):
    """Momentum-magnitude form of the two-energy kernel at energies p^2-mu, q^2-mu."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    return xi(beta, p * p - mu, q * q - mu)


def hessian_L_closed(beta, mu, k):
    """Laplacian in the relative momentum ell, at ell=0, of L(k+ell/2, k-ell/2).

    Closed form: -(3 beta^2 / 2) (g1(beta(k^2-mu)) + (2/3) beta k^2 g2(beta(k^2-mu))).
    """
    k = np.asarray(k, dtype=float)
    z = beta * (k * k - mu)
    out = -1.5 * beta * beta * (g1(z) + (2.0 / 3.0) * beta * k * k * g2(z))
    return out if out.ndim else float(out)


def matsubara_tanh(x: float, n_max: int) -> float:
    """Symmetric partial sum of the pole expansion of tanh at real x.

    Sums 1/(x - i(n+1/2)pi) over n = -n_max .. n_max-1, accumulating each n
    together with its mirror -(n+1); the paired term is 2x/(x^2 + ((n+1/2)pi)^2).
    Unpaired accumulation would not converge.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    x = float(x)
    omegas = (np.arange(n_max) + 0.5) * np.pi
    return float(np.sum(2.0 * x / (x * x + omegas**2)))


def matsubara_xi(beta, E, Ep, n_max: int):
    """Truncated fermionic frequency sum for the two-energy kernel.

    Evaluates -(2/beta) sum_n 1/((i w_n - E)(i w_n + E')) with
    w_n = pi(2n+1)/beta over the symmetric window n = -n_max .. n_max-1.
    Each +n term is paired with its -(n+1) mirror, which makes the pair real:
    pair(w) = -(4/beta) Re[((i w - E)(i w + E'))^{-1}].
    """
    if beta <= 0.0 or not math.isfinite(beta):
        raise ValueError(f"beta must be positive and finite, got {beta}")
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    omegas = np.pi * (2.0 * np.arange(n_max) + 1.0) / beta
    denom = (1j * omegas - E) * (1j * omegas + Ep)
    return float(-(4.0 / beta) * np.sum((1.0 / denom).real))

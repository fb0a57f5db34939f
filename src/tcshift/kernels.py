"""Closed-form thermal kernels and their truncated frequency-sum counterparts.

All functions are pure and vectorize over numpy arrays.  A kernel is given
piece by piece, each formula run only on its own piece (``_piecewise``): series
near removable singularities, rescaled forms and tails where an intermediate
would overflow or underflow.  So the g kernels are finite and warning-free on
every finite argument, and chi and xi wherever beta E, beta E' and E + E' are.
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
# g1 = z/12 to every digit below _TINY, where the cube in its series underflows
# (from 2.8e-103), and 1/z^2 above _SQRT_MAX, the largest a with a * a finite.
_TINY = 1e-100
_SQRT_MAX = 1.3407807929942596e154

# tanh(w)/w = 1 - w^2/3 + 2 w^4/15 - ... (six terms, |w| < 1 plenty)
_TANHC = (1.0, -1.0 / 3.0, 2.0 / 15.0, -17.0 / 315.0, 62.0 / 2835.0, -1382.0 / 155925.0)
# sinh(w)/w = 1 + w^2/6 + w^4/120 + ...
_SINHC = (1.0, 1.0 / 6.0, 1.0 / 120.0, 1.0 / 5040.0, 1.0 / 362880.0, 1.0 / 39916800.0)


def _piecewise(args, *pieces):
    """Evaluate a function defined piece by piece on the broadcast arrays ``args``.

    Each piece is a pair ``(mask, f)``; ``f(*args)`` runs on exactly the entries
    that its mask takes and no earlier mask took, and the last mask is True.
    A 0-d result is returned as a float.
    """
    args = np.broadcast_arrays(*args)
    if args[0].ndim == 0:
        return float(next(f for mask, f in pieces if mask)(*args))
    out = np.empty(args[0].shape)
    rest = np.ones(out.shape, dtype=bool)
    for mask, f in pieces:
        take = rest & mask
        if take.any():
            out[take] = f(*(x[take] for x in args))
            rest &= ~take
    return out


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
    return _piecewise(
        (z,),
        (np.abs(z) < SMALL, lambda z: 0.5 * _poly_even(_TANHC, 0.5 * z)),
        (True, lambda z: np.tanh(0.5 * z) / z),
    )


def _sinh_minus_z(z):
    """sinh(z) - z by series; accurate for |z| <= 1 where the subtraction cancels."""
    z2 = z * z
    term = z * z2 / 6.0
    acc = term
    for k in range(2, 12):
        term = term * z2 / ((2 * k) * (2 * k + 1))
        acc = acc + term
    return acc


def _g1_rescaled(a):
    """g1 at a >= 1, exactly e^{-a}-rescaled: (1 - e^{-2a} - 2a e^{-a}) / (a^2 (1+e^{-a})^2)."""
    e = np.exp(-a)
    return (-np.expm1(-2.0 * a) - 2.0 * a * e) / (a * a * (1.0 + e) ** 2)


def g1_sinh_form(z):
    """(1/(2 z^2)) (sinh z - z) / cosh^2(z/2), stable on all of R. Odd."""
    z = np.asarray(z, dtype=float)
    a = np.abs(z)
    return _piecewise(
        (np.sign(z), a),
        (a < _TINY, lambda s, a: s * (a / 12.0)),
        (a < 1.0, lambda s, a: s * (_sinh_minus_z(a) / (2.0 * a * a * np.cosh(0.5 * a) ** 2))),
        (a > _SQRT_MAX, lambda s, a: s * (1.0 / a / a)),
        (True, lambda s, a: s * _g1_rescaled(a)),
    )


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

    Independent of :func:`g1_sinh_form` wherever the printed form is
    representable, and equal to it elsewhere: the two agree to rounding
    because they are the same function.
    """
    z = np.asarray(z, dtype=float)
    a = np.abs(z)
    return _piecewise(
        (z,),
        # the tails, and z > 300 where the sinh form scales this expression through by e^{-2z}
        ((a < _TINY) | (a > _SQRT_MAX) | (z > 300.0), g1_sinh_form),
        (a < 0.5, lambda z: _g1_exp_numerator_series(z) / (z * z * (np.exp(z) + 1.0) ** 2)),
        # |z| >= 0.5, z <= 300: no overflow, no cancellation
        (True, lambda z: (np.exp(2.0 * z) - 2.0 * z * np.exp(z) - 1.0) / (z * z * (np.exp(z) + 1.0) ** 2)),
    )


g1 = g1_sinh_form


def g2_tanh_form(z):
    """(1/(2z)) tanh(z/2) / cosh^2(z/2), continued through z=0 by 1/4. Even."""
    z = np.asarray(z, dtype=float)
    return _piecewise(
        (z,),
        (np.abs(z) < SMALL, lambda z: 0.25 * _poly_even(_TANHC, 0.5 * z) * _sech(0.5 * z) ** 2),
        # sech^2(z/2) is 0.0 from |z| of about 1490 on, and 2z overflows from 9e307
        (np.abs(z) > 1500.0, np.zeros_like),
        (True, lambda z: np.tanh(0.5 * z) * _sech(0.5 * z) ** 2 / (2.0 * z)),
    )


def _g2_rescaled(z):
    """g2_exp_form at z > 200, scaled through by e^{-2z}."""
    e = np.exp(-z)
    return 2.0 * (e - e * e) / (z * (1.0 + e) ** 3)


def g2_exp_form(z):
    """2 e^z (e^z - 1) / (z (e^z + 1)^3), evaluated as printed; the tanh form's series near 0."""
    z = np.asarray(z, dtype=float)
    return _piecewise(
        (z,),
        (np.abs(z) < SMALL, g2_tanh_form),
        (z > 200.0, _g2_rescaled),
        (True, lambda z: 2.0 * np.exp(z) * np.expm1(z) / (z * (np.exp(z) + 1.0) ** 3)),
    )


g2 = g2_tanh_form


def chi(beta, E):
    """tanh(beta E / 2) / E; equals beta * g0(beta * E). beta/2 at E=0."""
    if beta <= 0.0 or not math.isfinite(beta):
        raise ValueError(f"beta must be positive and finite, got {beta}")
    return beta * g0(beta * np.asarray(E, dtype=float))


def _sinhc(w):
    """sinh(w)/w, 1 at w=0."""
    return _piecewise(
        (w,),
        (np.abs(w) < SMALL, lambda w: _poly_even(_SINHC, w)),
        (True, lambda w: np.sinh(w) / w),
    )


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

    # the u and v factors are multiplied first so that xi(E, E') == xi(E', E) exactly
    return _piecewise(
        (u, v, w, E + Ep),
        # near with |w| > 30 takes |u|, |v| > 2.9e5 of opposite signs: xi underflows to 0
        (near & (np.abs(w) > 30.0), lambda u, v, w, s: np.zeros_like(w)),
        (near, lambda u, v, w, s: 0.5 * beta * _sinhc(w) * (_sech(u) * _sech(v))),
        (True, lambda u, v, w, s: (np.tanh(u) + np.tanh(v)) / s),
    )


def L_pq(beta, mu, p, q):
    """Momentum-magnitude form of the two-energy kernel at energies p^2-mu, q^2-mu."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    return xi(beta, p * p - mu, q * q - mu)


def hessian_L_closed(beta, mu, k):
    """Laplacian in the relative momentum ell, at ell=0, of L(k+ell/2, k-ell/2).

    Closed form: -(3 beta^2 / 2) (g1(beta(k^2-mu)) + (2/3) beta k^2 g2(beta(k^2-mu))).
    """
    z = beta * (k * k - mu)
    return -1.5 * beta * beta * (g1(z) + (2.0 / 3.0) * beta * k * k * g2(z))


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

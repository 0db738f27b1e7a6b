"""Multiplication and derivative operators, harmonic products, PDE check.

Every operator here exists in two channels: a banded coefficient map, and an
independent pointwise quadrature oracle (``pointwise_multiply_oracle``, on a
``grid`` its caller passes and may share).  For ``cos(theta)`` and
``sin(theta)*exp(+-i*phi)`` the two provably coincide and their agreement is
a test.  The ``1/sin(theta)`` and ``d/dtheta`` maps are *formal* coefficient
recurrences: their order-``m`` bookkeeping drops a compensating
``exp(+-i*phi)`` phase, so they are banded analogues rather than pointwise
multiplications; the gap is measured, not hidden.

Harmonic products follow the coupling law ``Y1*Y2 = (2*pi)^(-1/2) sum`` of
coupled harmonics.  ``clebsch_gordan_array`` is the one evaluation of the
coupling coefficients, over broadcast integer arrays; ``product_weights``,
``sh_product`` and the scalar view ``clebsch_gordan`` read them from it.  The
scalar Racah loop it is tested against is in ``tests/reference.py``.
"""

from __future__ import annotations

import math
from functools import partial

import numpy as np

from .algebra import GENERATOR_NAMES, Operator, _sq, generator
from .expansions import (HarmonicExpansion, as_index, as_integer, as_integer_arrays, at_least,
                         degree_order_arrays, flat_index)
from .legendre import orthonormal_sh_values
from .transform import SampledField, SphereGrid, analyze, synthesize


def cos_theta_op() -> Operator:
    """Multiplication by ``cos(theta)`` as a banded map (dl = +-1, dm = 0)."""
    return Operator("cosTheta", {
        (+1, 0): lambda l, m: _sq((l + m + 1) * (l - m + 1)) / (2 * l + 1),
        (-1, 0): lambda l, m: _sq((l + m) * (l - m)) / (2 * l + 1),
    })


def sin_exp_op(sign: int) -> Operator:
    """Multiplication by ``sin(theta)*exp(sign*i*phi)`` (dl = +-1, dm = sign).

    Amplitudes follow from the degree recurrences of ``sqrt(1-x^2) P_l^m``
    with the transferred phase tracked, so the map is pointwise-correct.
    """
    if as_integer(sign, "sign") == +1:
        return Operator("sinExp+", {
            (+1, +1): lambda l, m: -_sq((l + m + 1) * (l + m + 2)) / (2 * l + 1),
            (-1, +1): lambda l, m: _sq((l - m) * (l - m - 1)) / (2 * l + 1),
        })
    if sign == -1:
        return Operator("sinExp-", {
            (+1, -1): lambda l, m: _sq((l - m + 1) * (l - m + 2)) / (2 * l + 1),
            (-1, -1): lambda l, m: -_sq((l + m) * (l + m - 1)) / (2 * l + 1),
        })
    raise ValueError("sign must be +1 or -1")


def inv_sin_op_literal() -> Operator:
    """Formal ``1/sin(theta)`` map (dl = +1, dm = +-1), amplitude ``-1/(2m)``.

    Defined only on expansions with no ``m = 0`` component: the termwise
    amplitude is infinite there (and ``Y_l^0 / sin(theta)`` is not square
    integrable), which the stencil reports as a ``DomainError``.  This is a
    coefficient recurrence, not a pointwise multiplication: the two branches
    drop opposite ``exp(-+i*phi)`` phases.
    """
    return Operator("invSinLit", {
        (+1, +1): lambda l, m: -_sq((l + m + 1) * (l + m + 2)) / (2.0 * m),
        (+1, -1): lambda l, m: -_sq((l - m + 1) * (l - m + 2)) / (2.0 * m),
    })


def dtheta_op_literal() -> Operator:
    """Formal ``d/dtheta`` map (dl = 0, dm = +-1).

    Amplitudes ``-(1/2) sqrt((l+m)(l-m+1))`` toward ``m-1`` and
    ``+(1/2) sqrt((l-m)(l+m+1))`` toward ``m+1``; the pointwise derivative
    carries extra ``exp(+-i*phi)`` phases on the shifted terms.
    """
    return Operator("dThetaLit", {
        (0, -1): lambda l, m: -0.5 * _sq((l + m) * (l - m + 1)),
        (0, +1): lambda l, m: 0.5 * _sq((l - m) * (l + m + 1)),
    })


def dphi_op() -> Operator:
    """``d/dphi``: diagonal multiplication by ``i*m``."""
    return Operator("dPhi", {(0, 0): lambda l, m: 1j * np.asarray(m, dtype=np.float64)})


def exp_iphi_composite() -> Operator:
    """Formal ``exp(i*phi)`` as ``(1/sin) o (sin(theta) exp(i*phi))``.

    Band-limited in, band-limited out, unlike true ``exp(i*phi)``
    multiplication; the inner factor shifts every order up by one, so the
    ``m = 0`` domain condition falls on inputs with an ``m = -1`` component.
    """
    return inv_sin_op_literal() * sin_exp_op(+1)


# Every operator name the expression parser and the bound claims accept.
OPERATORS = {
    **{name: partial(generator, name) for name in GENERATOR_NAMES},
    "cosTheta": cos_theta_op,
    "sinExp+": partial(sin_exp_op, +1),
    "sinExp-": partial(sin_exp_op, -1),
    "invSinLit": inv_sin_op_literal,
    "dThetaLit": dtheta_op_literal,
    "dPhi": dphi_op,
    "expIPhi": exp_iphi_composite,
}


# ---------------------------------------------------------------------------
# pointwise quadrature oracle

def pointwise_multiply_oracle(
    f: HarmonicExpansion, multiplier, out_lmax: int, grid: SphereGrid
) -> HarmonicExpansion:
    """Coefficients of ``multiplier(theta, phi) * f`` via quadrature on ``grid``.

    Independent verification channel for the banded maps: synthesise, multiply
    samples, re-analyse.  ``multiplier`` is vectorised over ``(theta, phi)``
    arrays.  Exact whenever the product is band-limited at ``out_lmax`` and
    ``grid.lmax >= max(out_lmax, f.lmax) + 1``.
    """
    out_lmax = at_least(out_lmax, "out_lmax", 0)  # before any transform runs
    field = synthesize(f.with_lmax(max(grid.lmax, f.lmax)), grid)  # a coarse grid refuses, naming both
    tt, pp = np.meshgrid(grid.theta, grid.phi, indexing="ij")
    return analyze(SampledField(grid, field.samples * multiplier(tt, pp)), out_lmax)


# ---------------------------------------------------------------------------
# Clebsch-Gordan coefficients and the harmonic product law

def clebsch_gordan_array(l1, m1, l2, m2, L, M) -> np.ndarray:
    """Coupling coefficients ``<l1 m1 l2 m2 | L M>``, broadcast over integer arrays.

    Racah's single sum, with log-factorials read from a table of
    ``math.lgamma`` values; each sum runs over the ``k`` its own entry admits.
    Out-of-domain entries give 0, and so does the all-zero-order case with
    ``l1+l2+L`` odd, exactly, by parity.
    """
    args = as_integer_arrays("Clebsch-Gordan index", l1, m1, l2, m2, L, M)
    l1, m1, l2, m2, L, M = args
    valid = (
        (M == m1 + m2)
        & (L >= np.abs(l1 - l2)) & (L <= l1 + l2) & (np.abs(M) <= L)
        & (np.abs(m1) <= l1) & (np.abs(m2) <= l2)
        & ~((m1 == 0) & (m2 == 0) & ((l1 + l2 + L) % 2 == 1))
    )
    out = np.zeros(valid.shape)
    l1, m1, l2, m2, L, M = (a[valid] for a in args)
    if l1.size == 0:
        return out
    lf = np.array([math.lgamma(n + 1) for n in range(int(np.max(l1 + l2 + L)) + 2)])
    log_pref = 0.5 * (
        np.log(2.0 * L + 1.0)
        + lf[l1 + l2 - L]
        + lf[l1 - l2 + L]
        + lf[-l1 + l2 + L]
        - lf[l1 + l2 + L + 1]
        + lf[L + M]
        + lf[L - M]
        + lf[l1 - m1]
        + lf[l1 + m1]
        + lf[l2 - m2]
        + lf[l2 + m2]
    )
    # the k-th term's factorials: k, down - k and up + k
    down = (l1 + l2 - L, l1 - m1, l2 + m2)
    up = (L - l2 + m1, L - l1 - m2)
    k_min = np.maximum.reduce([np.zeros_like(L), -up[0], -up[1]])
    k_max = np.minimum.reduce(down)
    total = np.zeros(L.size)
    for k in range(int(k_min.min()), int(k_max.max()) + 1):
        on = np.nonzero((k_min <= k) & (k <= k_max))[0]
        log_term = (
            lf[k]
            + lf[down[0][on] - k]
            + lf[down[1][on] - k]
            + lf[down[2][on] - k]
            + lf[up[0][on] + k]
            + lf[up[1][on] + k]
        )
        total[on] += (-1.0) ** k * np.exp(log_pref[on] - log_term)
    out[valid] = total
    return out


def clebsch_gordan(l1: int, m1: int, l2: int, m2: int, L: int, M: int) -> float:
    """One coupling coefficient: ``clebsch_gordan_array`` at a single entry."""
    return float(clebsch_gordan_array(l1, m1, l2, m2, L, M))


def product_weights(l1, m1, l2, m2, L) -> np.ndarray:
    """Coefficient of ``e_{L, m1+m2}`` in ``Y_{l1}^{m1} Y_{l2}^{m2}``, broadcast.

    ``1/sqrt(2*pi)`` times the parity coupling ``<l1 0 l2 0|L 0>`` times
    ``<l1 m1 l2 m2|L M>``, over ``sqrt(L + 1/2)`` for the orthonormal basis.
    """
    l1, m1, l2, m2, L = as_integer_arrays("Clebsch-Gordan index", l1, m1, l2, m2, L)
    # the parity coupling depends on the degrees alone: one evaluation per
    # distinct (l1, l2, L), each triple numbered in the box the entries span
    degrees = [a.ravel() - a.min(initial=0) for a in (l1, l2, L)]
    key = np.ravel_multi_index(degrees, [a.max(initial=0) + 1 for a in degrees])
    _, one, at = np.unique(key, return_index=True, return_inverse=True)
    parity = clebsch_gordan_array(l1.flat[one], 0, l2.flat[one], 0, L.flat[one], 0)[at].reshape(L.shape)
    weight = parity * clebsch_gordan_array(l1, m1, l2, m2, L, m1 + m2)
    return weight / math.sqrt(2.0 * math.pi) / np.sqrt(L + 0.5)


def sh_product(idx1, idx2) -> HarmonicExpansion:
    """Expansion (orthonormal basis) of the pointwise product of two harmonics.

    ``Y_{l1}^{m1} Y_{l2}^{m2}`` couples into orders ``M = m1 + m2`` and degrees
    ``|l1-l2| <= L <= l1+l2``, weighted by ``product_weights``.
    """
    idx1 = as_index(idx1)
    idx2 = as_index(idx2)
    l1, m1 = idx1.l, idx1.m
    l2, m2 = idx2.l, idx2.m
    M = m1 + m2
    out_lmax = l1 + l2
    L = np.arange(max(abs(l1 - l2), abs(M)), out_lmax + 1)
    coeffs = np.zeros((out_lmax + 1) ** 2, dtype=np.complex128)
    coeffs[flat_index(L, M)] = product_weights(l1, m1, l2, m2, L)
    return HarmonicExpansion(out_lmax, coeffs)


# ---------------------------------------------------------------------------
# eigenvalue equation check by finite differences

def pde_residual(lmax: int, h: float) -> np.ndarray:
    """Max residual of the angular Laplacian eigen-equation on every harmonic.

    Entry ``k`` of the flat ``(K,)`` result is the largest
    ``|(Lap_S2 + l(l+1)) Y_l^m|`` over 20 fixed points with ``theta`` in
    ``[pi/3, 2*pi/3]``, clear of the poles where the equation is singular:
    central differences of step ``h`` on a five-point stencil, with every
    mode read from one ``orthonormal_sh_values`` table.
    """
    if not 0.0 < h < 0.1:
        raise ValueError("step must satisfy 0 < h < 0.1")
    theta = np.repeat(np.linspace(math.pi / 3.0, 2.0 * math.pi / 3.0, 5), 4)[:, None]
    phi = np.tile(np.linspace(0.0, 2.0 * math.pi, 4, endpoint=False) + 0.37, 5)[:, None]
    # five-point stencil per sample: centre, theta -+ h, phi -+ h
    tt = theta + h * np.array([0.0, -1.0, 1.0, 0.0, 0.0])
    pp = phi % (2.0 * math.pi) + h * np.array([0.0, 0.0, 0.0, -1.0, 1.0])
    values = orthonormal_sh_values(lmax, np.cos(tt).ravel(), (pp % (2.0 * math.pi)).ravel())
    ls, _ = degree_order_arrays(lmax)
    y = values.reshape(*tt.shape, -1) / np.sqrt(ls + 0.5)
    y0, yt_lo, yt_hi, yp_lo, yp_hi = y.transpose(1, 0, 2)
    d2_theta = (yt_hi - 2.0 * y0 + yt_lo) / (h * h)
    d1_theta = (yt_hi - yt_lo) / (2.0 * h)
    d2_phi = (yp_hi - 2.0 * y0 + yp_lo) / (h * h)
    residual = d2_theta + d1_theta / np.tan(theta) + d2_phi / np.sin(theta) ** 2 + ls * (ls + 1.0) * y0
    return np.max(np.abs(residual), axis=0)

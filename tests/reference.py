"""Plain scalar formulas the library's vectorised kernels are tested against.

The library keeps one implementation of each formula: every harmonic value
comes from ``orthonormal_legendre_table`` and every coupling coefficient from
``clebsch_gordan_array``.  The independent forms live here:

* ``assoc_legendre``, the unnormalised ``P_l^m`` three-term recurrence;
* ``clebsch_gordan``, the scalar Racah single sum over log-factorials;
* ``from_dict``, an expansion built from a few ``(l, m) -> value`` entries;
* ``orthonormal_sh_values_reference``, point values gathered from the packed
  table through ``packed_row`` and a ``(-1) ** |m|`` sign of their own;
* ``mirrored_orthonormality_check``, the Gram check on the packed table at
  the grid's nodes with ``x >= 0``, mirrored to the nodes with ``x < 0`` by
  each row's parity;
* ``suite_bounds_reference``, the bounds suite with one ``weak_eigen_cos``
  certificate per function instead of the batched screen.
"""

from __future__ import annotations

import math

import numpy as np

from sphcalc import HarmonicExpansion, HarmonicIndex, SpherePoint, make_grid
from sphcalc import bounds as bnd
from sphcalc.expansions import degree_order_arrays, flat_index, graded_norms
from sphcalc.report import BoundReport
from sphcalc.legendre import _packed_map, orthonormal_legendre_table, orthonormal_sh_values, packed_row


def assoc_legendre(l: int, m: int, x):
    """Associated Legendre function ``P_l^m(x)`` for ``m >= 0``.

    Ascending-degree three-term recurrence seeded with ``P_m^m(x) =
    (-1)^m (2m-1)!! (1-x^2)^(m/2)``.  Accepts scalar or array ``x`` with
    ``|x| <= 1``; returns 0 when ``m > l``.  Unnormalised values leave the
    double range near ``l + m = 340``; there it raises ``OverflowError``
    (``orthonormal_legendre_table`` stays finite).
    """
    if m < 0:
        raise ValueError("assoc_legendre requires m >= 0")
    if l < 0:
        raise ValueError("assoc_legendre requires l >= 0")
    x = np.asarray(x, dtype=np.float64)
    if np.any(np.abs(x) > 1.0):
        raise ValueError("argument out of range: |x| > 1")
    scalar = x.ndim == 0
    x = np.atleast_1d(x)
    if m > l:
        p = np.zeros_like(x)
    else:
        s = np.sqrt(np.maximum(1.0 - x * x, 0.0))
        p_prev, p = np.zeros_like(x), np.ones_like(x)
        with np.errstate(over="ignore", invalid="ignore"):
            for k in range(1, m + 1):
                p *= -(2 * k - 1) * s
            for deg in range(m + 1, l + 1):
                p_prev, p = p, (x * (2 * deg - 1) * p - (deg + m - 1) * p_prev) / (deg - m)
        if not np.all(np.isfinite(p)):
            raise OverflowError(f"P_{l}^{m}(x) overflows double precision")
    return float(p[0]) if scalar else p


def _logfact(n: int) -> float:
    return math.lgamma(n + 1)


def clebsch_gordan(l1: int, m1: int, l2: int, m2: int, L: int, M: int) -> float:
    """Coupling coefficient ``<l1 m1 l2 m2 | L M>`` for integer momenta.

    Single-sum closed form evaluated with log-factorials.  Out-of-domain
    arguments give 0; the all-zero-order case with ``l1+l2+L`` odd is exactly
    0 by parity and short-circuited.
    """
    if M != m1 + m2:
        return 0.0
    if L < abs(l1 - l2) or L > l1 + l2 or abs(M) > L:
        return 0.0
    if abs(m1) > l1 or abs(m2) > l2:
        return 0.0
    if m1 == 0 and m2 == 0 and (l1 + l2 + L) % 2 == 1:
        return 0.0
    log_pref = 0.5 * (
        math.log(2.0 * L + 1.0)
        + _logfact(l1 + l2 - L)
        + _logfact(l1 - l2 + L)
        + _logfact(-l1 + l2 + L)
        - _logfact(l1 + l2 + L + 1)
        + _logfact(L + M)
        + _logfact(L - M)
        + _logfact(l1 - m1)
        + _logfact(l1 + m1)
        + _logfact(l2 - m2)
        + _logfact(l2 + m2)
    )
    k_min = max(0, l2 - L - m1, l1 - L + m2)
    k_max = min(l1 + l2 - L, l1 - m1, l2 + m2)
    total = 0.0
    for k in range(k_min, k_max + 1):
        log_term = (
            _logfact(k)
            + _logfact(l1 + l2 - L - k)
            + _logfact(l1 - m1 - k)
            + _logfact(l2 + m2 - k)
            + _logfact(L - l2 + m1 + k)
            + _logfact(L - l1 - m2 + k)
        )
        total += (-1.0) ** k * math.exp(log_pref - log_term)
    return total


def from_dict(lmax: int, entries: dict) -> HarmonicExpansion:
    """Expansion up to ``lmax`` holding ``entries[(l, m)]`` and zeros elsewhere."""
    c = np.zeros((lmax + 1) ** 2, dtype=np.complex128)
    for (l, m), value in entries.items():
        idx = HarmonicIndex(l, m)
        if idx.l > lmax:
            raise ValueError(f"entry ({l},{m}) exceeds lmax={lmax}")
        c[flat_index(idx.l, idx.m)] = value
    return HarmonicExpansion(lmax, c)


def orthonormal_sh_values_reference(lmax: int, x, phi) -> np.ndarray:
    """``orthonormal_sh_values`` with the gather it had before the packed map
    moved into ``legendre``: rows from ``packed_row``, sign ``(-1.0) ** |m|``."""
    x = np.atleast_1d(np.asarray(x, dtype=np.float64))
    phi = np.asarray(phi, dtype=np.float64)[..., None]
    N = orthonormal_legendre_table(lmax, x)
    ls, ms = degree_order_arrays(lmax)
    mags = N[packed_row(lmax, ls, ms)].T * np.where(ms < 0, (-1.0) ** np.abs(ms), 1.0)
    return mags * np.exp(1j * ms * phi)


def mirrored_orthonormality_check(lmax: int) -> BoundReport:
    """``orthonormality_check`` with its theta factor read from the packed
    table at the grid's nodes with ``x >= 0``, mirrored back by ``(-1)^(l+m)``."""
    grid = make_grid(lmax)
    N = orthonormal_legendre_table(lmax, grid.x[grid.n_theta // 2:])
    rows, _, sign = _packed_map(lmax)
    ms, ls = np.triu_indices(lmax + 1)  # (m, l) of each packed row, m-major
    parity = np.where((ls + ms) % 2 == 1, -1.0, 1.0)
    full = np.concatenate([parity[:, None] * N[:, ::-1][:, :grid.n_theta // 2], N], axis=1)
    T = (sign[:, None] * full[rows]).T
    theta_gram = T.T @ (grid.w[:, None] * T)
    scale = 2.0 * math.pi / grid.n_phi
    d = np.arange(-2 * lmax, 2 * lmax + 1)
    phi_sum = scale * np.exp(1j * np.outer(d, grid.phi)).sum(axis=1)
    _, ms = degree_order_arrays(lmax)
    gram = theta_gram * phi_sum[ms[None, :] - ms[:, None] + 2 * lmax]
    dev = float(np.max(np.abs(gram - np.eye(ms.size))))
    return BoundReport(
        check="orthonormality",
        anchor="integral of conj(Y_l^m) (l+1/2) Y_l'^m' over the sphere = delta_ll' delta_mm'",
        lhs=dev,
        rhs=1e-10,
        lmax=lmax,
    )


def suite_bounds_reference(lmax: int, trials: int, seed: int) -> list[BoundReport]:
    """``verify.suite_bounds`` certifying the weak eigenrelation once per function,
    each with its own ``apply`` and one-point tables."""
    lmax = min(lmax, 16)
    reports = [
        bnd.continuity_criterion_check(name, trials=trials, seed=seed, lmax=lmax)
        for name in ("K+", "L", "M", "cosTheta", "dThetaLit")
    ]
    n_funcs = max(4, min(trials, 100))
    draws = bnd.substream(seed, "points").uniform([-1, 0], [1, 2 * math.pi], size=(n_funcs, 10, 2))
    theta, phi = np.arccos(draws[..., 0]), draws[..., 1]
    rows = bnd._random_rows([(seed, t) for t in range(n_funcs)], lmax)
    E = orthonormal_sh_values(lmax, np.cos(theta).ravel(), phi.ravel()).reshape(n_funcs, 10, -1)
    values = np.einsum("tpk,tk->tp", E, rows)
    margins = bnd.functional_constant(3) * graded_norms(rows, lmax, 3)[:, None] - np.abs(values)
    for t in range(n_funcs):
        last = SpherePoint(float(theta[t, -1]), float(phi[t, -1]))
        r = bnd.weak_eigen_cos(HarmonicExpansion(lmax, rows[t]), last, seed=seed)
        if r.margin < 0:
            reports.append(r)
    t, j = np.unravel_index(np.argmin(margins), margins.shape)
    worst = SpherePoint(float(theta[t, j]), float(phi[t, j]))
    f = HarmonicExpansion(lmax, rows[t])
    reports.append(bnd.bound_point_functional(f, worst, 3, seed=seed))
    reports.append(
        bnd.weak_eigen_cos(HarmonicExpansion(lmax, rows[0]), SpherePoint(math.pi / 3, 0.0), seed=seed)
    )
    return reports

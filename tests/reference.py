"""Plain scalar formulas the library's vectorised kernels are tested against.

The library keeps one implementation of each formula: every harmonic value
comes from ``orthonormal_legendre_table`` and every coupling coefficient from
``clebsch_gordan_array``.  The independent forms live here:

* ``assoc_legendre``, the unnormalised ``P_l^m`` three-term recurrence;
* ``clebsch_gordan``, the scalar Racah single sum over log-factorials;
* ``from_dict``, an expansion built from a few ``(l, m) -> value`` entries;
* ``packed_legendre_table``, the library's recurrence as it was into the
  packed m-major table (rows ``packed_row``): the bit reference of
  ``orthonormal_legendre_table``, whose every ``(l, m)`` row it equals;
* ``orthonormal_sh_values_reference``, point values gathered from the packed
  table through ``packed_row`` and a ``(-1) ** |m|`` sign of their own;
* ``mirrored_orthonormality_check``, the Gram check on the packed table at
  the grid's nodes with ``x >= 0``, mirrored to the nodes with ``x < 0`` by
  each row's parity;
* ``suite_bounds_reference``, the bounds suite with one ``weak_eigen_cos``
  certificate per function instead of the batched screen;
* ``product_quadrature_by_transform``, the product law's quadrature by
  synthesis and analysis of sample tables, one batched analysis per first
  harmonic;
* ``product_weights_per_entry``, the coupling weights with the parity
  coupling evaluated at every entry;
* ``tokenize_reference``, the operator-expression scanner with one
  append-and-advance tail per token kind.
"""

from __future__ import annotations

import math

import numpy as np

from sphcalc import OPERATORS, HarmonicExpansion, HarmonicIndex, SpherePoint, make_grid
from sphcalc import bounds as bnd
from sphcalc.expansions import degree_order_arrays, flat_index, graded_norms
from sphcalc.cli import ExpressionError
from sphcalc.report import BoundReport
from sphcalc.legendre import orthonormal_sh_values
from sphcalc.structural import clebsch_gordan_array
from sphcalc.transform import _analyze_table, _synthesize_table


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


def packed_row(lmax: int, l, m):
    """Row of degree ``l``, order ``|m|`` in the packed table of degree ``lmax``.

    Rows run m-major, ``off[m] + l - m`` with ``off[m] = m*(2*lmax+3-m)/2``,
    so order ``m`` is the contiguous block ``off[m]:off[m+1]`` and
    ``packed_row(lmax, m, m)`` for ``m = 0..lmax+1`` gives those offsets.
    """
    m = np.abs(m)
    return m * (2 * lmax + 3 - m) // 2 + l - m


def packed_legendre_table(lmax: int, x) -> np.ndarray:
    """Packed m-major table ``N[packed_row(lmax, l, m), i]`` of shape
    ``((lmax+1)(lmax+2)/2, x.size)``, no row stored for ``m > l``.

    The seeds and the degree-major two-term steps as
    ``orthonormal_legendre_table`` computed them into this layout, each step
    one expression over the degree's orders ``m <= l-2``.
    """
    x = np.atleast_1d(np.asarray(x, dtype=np.float64))
    orders = np.arange(lmax + 2)
    off = packed_row(lmax, orders, orders)
    N = np.zeros((off[-1], x.size))
    s = np.sqrt(np.maximum(1.0 - x * x, 0.0))
    # N[l, l] = (-sqrt((2l+1)/2l) * s) * N[l-1, l-1]: one running product
    deg = orders[1:-1]
    diag = np.empty((lmax + 1, x.size))
    diag[0] = 1.0 / math.sqrt(4.0 * math.pi)
    diag[1:] = -np.sqrt((2 * deg + 1) / (2.0 * deg))[:, None] * s
    N[off[:-1]] = np.cumprod(diag, axis=0)
    # N[l, l-1] = (sqrt(2l+1) * x) * N[l-1, l-1]
    N[off[:-2] + 1] = (np.sqrt(2 * deg + 1.0)[:, None] * x) * N[off[:-2]]
    # two-term steps, degree-major: degree l holds entries [(l-1)(l-2)/2, l(l-1)/2)
    l, m = np.tril_indices(max(lmax - 1, 0))
    l += 2
    a = np.sqrt((4.0 * l * l - 1.0) / (l * l - m * m))[:, None]
    b = np.sqrt(((l - 1.0) ** 2 - m * m) / (4.0 * (l - 1.0) ** 2 - 1.0))[:, None]
    r0 = packed_row(lmax, l, m)
    for k in range(2, lmax + 1):
        j = slice((k - 1) * (k - 2) // 2, k * (k - 1) // 2)
        N[r0[j]] = a[j] * (x * N[r0[j] - 1] - b[j] * N[r0[j] - 2])
    return N


def orthonormal_sh_values_reference(lmax: int, x, phi) -> np.ndarray:
    """``orthonormal_sh_values`` from the packed reference table, with the
    gather it had before the map moved into ``legendre``: rows from
    ``packed_row``, sign ``(-1.0) ** |m|``."""
    x = np.atleast_1d(np.asarray(x, dtype=np.float64))
    phi = np.asarray(phi, dtype=np.float64)[..., None]
    N = packed_legendre_table(lmax, x)
    ls, ms = degree_order_arrays(lmax)
    mags = N[packed_row(lmax, ls, ms)].T * np.where(ms < 0, (-1.0) ** np.abs(ms), 1.0)
    return mags * np.exp(1j * ms * phi)


def mirrored_orthonormality_check(lmax: int) -> BoundReport:
    """``orthonormality_check`` with its theta factor read from the packed
    table at the grid's nodes with ``x >= 0``, mirrored back by ``(-1)^(l+m)``."""
    grid = make_grid(lmax)
    N = packed_legendre_table(lmax, grid.x[grid.n_theta // 2:])
    ms, ls = np.triu_indices(lmax + 1)  # (m, l) of each packed row, m-major
    parity = np.where((ls + ms) % 2 == 1, -1.0, 1.0)
    full = np.concatenate([parity[:, None] * N[:, ::-1][:, :grid.n_theta // 2], N], axis=1)
    ls, ms = degree_order_arrays(lmax)
    T = (np.where((ms < 0) & (ms % 2 == 1), -1.0, 1.0)[:, None] * full[packed_row(lmax, ls, ms)]).T
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


def product_quadrature_by_transform(lcap: int):
    """``verify._product_quadrature`` through the transforms: the plain-basis
    samples of every harmonic up to ``lcap`` on ``make_grid(2*lcap)``, then per
    first harmonic one analysis of its products with every harmonic."""
    grid = make_grid(2 * lcap)
    ls, _ = degree_order_arrays(lcap)
    y = _synthesize_table(np.eye(ls.size), grid) / np.sqrt(ls + 0.5)[:, None, None]
    for i in range(ls.size):
        yield _analyze_table(y[i] * y, grid, 2 * lcap)


def product_weights_per_entry(l1, m1, l2, m2, L) -> np.ndarray:
    """``structural.product_weights`` evaluating ``<l1 0 l2 0|L 0>`` at every entry."""
    parity = clebsch_gordan_array(l1, 0, l2, 0, L, 0)
    weight = parity * clebsch_gordan_array(l1, m1, l2, m2, L, np.add(m1, m2))
    return weight / math.sqrt(2.0 * math.pi) / np.sqrt(np.asarray(L) + 0.5)


def tokenize_reference(text: str) -> list[str]:
    """``cli._tokenize`` as it was, one append-and-advance tail per token kind."""
    tokens = []
    i = 0
    while i < len(text):
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c.isalpha():
            j = i + 1
            while j < len(text) and (text[j].isalnum()):
                j += 1
            word = text[i:j]
            # trailing +/- belongs to the name when the signed form is known
            if j < len(text) and text[j] in "+-" and (word + text[j]) in OPERATORS:
                word += text[j]
                j += 1
            tokens.append(word)
            i = j
            continue
        if c.isdigit() or c == ".":
            j = i
            while j < len(text) and (text[j].isdigit() or text[j] in ".eE"):
                if text[j] in "eE" and j + 1 < len(text) and text[j + 1] in "+-":
                    j += 1
                j += 1
            tokens.append(text[i:j])
            i = j
            continue
        if c in "*+-[],()":
            tokens.append(c)
            i += 1
            continue
        raise ExpressionError(f"unexpected character {c!r} in operator expression")
    return tokens


def dense_orthonormality_check(lmax: int) -> BoundReport:
    """``orthonormality_check`` with the whole K x K Gram matrix formed at
    once, then its distance from ``np.eye(K)``."""
    grid = make_grid(lmax)
    T = orthonormal_sh_values(lmax, grid.x, 0.0).real
    theta_gram = T.T @ (grid.w[:, None] * T)
    phi_sum = grid.phi_sums(2 * lmax)
    _, ms = degree_order_arrays(lmax)
    gram = theta_gram * phi_sum[ms[None, :] - ms[:, None] + 2 * lmax]
    dev = float(np.max(np.abs(gram - np.eye(ms.size))))
    return BoundReport(
        check="orthonormality",
        anchor="integral of conj(Y_l^m) (l+1/2) Y_l'^m' over the sphere = delta_ll' delta_mm'",
        lhs=dev,
        rhs=1e-10,
        lmax=grid.lmax,
    )

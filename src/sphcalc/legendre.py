"""Associated Legendre functions and spherical-harmonic point evaluation.

Conventions: Condon-Shortley phase inside ``P_l^m`` (``P_1^1(x) =
-sqrt(1-x^2)``), harmonics normalised as ``Y_l^m = sqrt((l-m)!/(2*pi*(l+m)!))
* exp(i*m*phi) * P_l^m(cos(theta))``, so that ``sqrt(l+1/2) * Y_l^m`` is an
orthonormal family for the measure ``d(cos(theta)) dphi``.  Negative orders
use ``P_l^{-m} = (-1)^m (l-m)!/(l+m)! P_l^m``, equivalently ``Y_l^{-m} =
(-1)^m conj(Y_l^m)``.

Every harmonic value comes from one fully-normalised recurrence,
``orthonormal_legendre_table``, into one table layout (per group of ``GROUP``
orders and parity of ``l+m`` one zero-padded block), read through one
per-flat-index map by point values (``orthonormal_sh_values``, ``sh_eval``),
the sup-bound scan and the transforms' grids.  One record per degree,
``_table_map``, made once and kept, holds the map and the recurrence's constants.
It is the only recurrence for harmonic values (the Gauss node solve in
``transform`` runs a plain ``P_n`` recurrence of its own); the plain ``P_l^m``
recurrence it is tested against is ``assoc_legendre`` in ``tests/reference.py``.
Its diagonal seed ``N(m,m) ~ sin(theta)^m`` underflows at high order, so a
degree past ``MAX_LMAX`` is refused (``check_lmax``, also run by ``SphereGrid``).
"""

from __future__ import annotations

import collections
import functools
import math

import numpy as np

from .expansions import as_degree, as_index, as_integer_arrays, as_point, degree_order_arrays, flat_index
from .report import BoundReport

SH_SUP_BOUND = 1.0 / math.sqrt(2.0 * math.pi)
_SUP_SCAN_NODES = 2048
MAX_LMAX = 1850  # 50 below the last degree where sum_m N(l,m)^2 held to 1e-12
GROUP = 8  # orders per group of the table layout
_TableMap = collections.namedtuple("_TableMap", "rows slot sign blocks a b diag sub diag_rows sub_rows")


def check_lmax(lmax: int) -> int:
    """``as_degree(lmax)``, refusing also a degree past ``MAX_LMAX``, the recurrence's validated range."""
    lmax = as_degree(lmax)
    if lmax > MAX_LMAX:
        raise ValueError(f"lmax={lmax} exceeds the recurrence's validated range, lmax <= {MAX_LMAX}")
    return lmax


@functools.lru_cache(maxsize=None, typed=True)  # typed: a hit on 2 must not pass 2.0
def _table_map(lmax: int):
    """The one record of degree ``lmax``, made once, every array read-only: the layout,
    per flat index its table ``rows``, ``slot`` (0 for ``+m``, 1 for ``-m``) and ``sign``
    (``(-1)^m`` for ``m < 0``, else 1), both int8, and ``blocks``, one ``(m0, k, p, start,
    R)`` per block, in table order; then the recurrence's constants, the two-term factors
    ``a`` and ``b`` (degree-major), and the diagonal and sub-diagonal seeds' factors
    ``diag`` and ``sub`` and table rows ``diag_rows`` and ``sub_rows``.

    Orders go in groups of ``GROUP``; per group and parity ``p`` of ``l+m``
    one zero-padded block of ``k`` orders x ``R`` rows holds, at block row
    ``(j, i)``, table row ``start + j*R + i``, degree ``l = m + p + 2i`` of
    order ``m = m0 + j``, where ``m0`` is the group's first order and ``R``
    its row count of parity ``p``.  Blocks run group-major, even parity first.
    """
    lmax = check_lmax(lmax)
    m0 = np.repeat(np.arange(0, lmax + 1, GROUP), 2)
    p = np.arange(m0.size) % 2
    k = np.minimum(GROUP, lmax + 1 - m0)
    R = (lmax - m0 - p) // 2 + 1
    start = np.cumsum(k * R) - k * R
    ls, ms = degree_order_arrays(lmax)
    m, neg = np.abs(ms), ms < 0
    block = 2 * (m // GROUP) + (ls - m) % 2
    rows = start[block] + m % GROUP * R[block] + (ls - m) // 2
    l, m = np.tril_indices(max(lmax - 1, 0))
    l, deg = l + 2, np.arange(1, lmax + 1)
    record = _TableMap(rows, neg.astype(np.int8), np.where(neg & (ms % 2 == 1), np.int8(-1), np.int8(1)),
                       np.stack([m0, k, p, start, R], axis=1),
                       np.sqrt((4.0 * l * l - 1.0) / (l * l - m * m))[:, None],
                       np.sqrt(((l - 1.0) ** 2 - m * m) / (4.0 * (l - 1.0) ** 2 - 1.0))[:, None],
                       -np.sqrt((2 * deg + 1) / (2.0 * deg))[:, None], np.sqrt(2 * deg + 1.0)[:, None],
                       rows[np.arange(1, lmax + 2) ** 2 - 1], rows[(deg + 1) ** 2 - 2])  # (l, l) and (l, l-1)
    for a in record:
        a.flags.writeable = False
    return record


def table_row(lmax: int, l, m):
    """Row of degree ``l``, order ``m`` or ``-m`` in the table of degree ``lmax``.

    Elementwise; a pair outside ``|m| <= l <= lmax`` raises ``ValueError``.
    """
    rows = _table_map(lmax).rows
    l, m = as_integer_arrays("table_row index", l, m)
    if not np.all((np.abs(m) <= l) & (l <= lmax)):
        raise ValueError(f"table_row needs |m| <= l <= lmax, with lmax={lmax}")
    return rows[flat_index(l, m)]


def orthonormal_legendre_table(lmax: int, x) -> np.ndarray:
    """Table ``N[row, i]`` of orthonormal-harmonic magnitudes at ``x_i``.

    Row ``table_row(lmax, l, m)`` holds ``(l, m)`` for ``0 <= m <= l``, and
    the layout's padding rows (``_table_map``) hold zeros.  ``N[row, i] *
    exp(i*m*phi)`` equals ``sqrt(l+1/2) * Y_l^m(theta, phi)`` at ``x_i =
    cos(theta)``; for negative orders multiply by ``(-1)^m``.
    Fully-normalised recurrence, stable for degrees well beyond the plain
    ``P_l^m`` overflow point.  The diagonal and sub-diagonal seeds come
    first, then each degree is one two-term step over its orders
    ``m <= l-2``; every entry takes the same arithmetic as the order-by-order
    recurrence, so the values are bit-identical to it.  Beside the table the
    build holds two work arrays of ``lmax + 1`` rows, and ``_table_map`` keeps the constants.
    """
    rec = _table_map(lmax)
    x = np.atleast_1d(np.asarray(x, dtype=np.float64))
    if np.any(np.abs(x) > 1.0):
        raise ValueError("argument out of range: |x| > 1")
    N = np.zeros((rec.blocks[:, 1] @ rec.blocks[:, 4], x.size))  # k*R rows per block
    work = np.empty((2, lmax + 1, x.size))
    # N[l, l] = (-sqrt((2l+1)/2l) * s) * N[l-1, l-1]: one running product
    d, t = work[0], work[1, :lmax]
    d[0] = 1.0 / math.sqrt(4.0 * math.pi)
    np.multiply(rec.diag, np.sqrt(np.maximum(1.0 - x * x, 0.0)), out=d[1:])
    N[rec.diag_rows] = np.cumprod(d, axis=0, out=d)
    # N[l, l-1] = (sqrt(2l+1) * x) * N[l-1, l-1]
    np.multiply(rec.sub, x, out=t)
    t *= d[:-1]
    N[rec.sub_rows] = t
    for k in range(2, lmax + 1):
        # N[k, m] = a * (x * N[k-1, m] - b * N[k-2, m]), rounded as written, in
        # the work rows; orders 0..k-2 of degree l are flat indices l^2 + l + m,
        # one slice of the map ("clip" takes no buffer; no index is out of range)
        j = slice((k - 1) * (k - 2) // 2, k * (k - 1) // 2)
        t, u = work[0, :k - 1], work[1, :k - 1]
        N.take(rec.rows[k * k - k:k * k - 1], axis=0, out=t, mode="clip")
        t *= x
        N.take(rec.rows[k * k - 3 * k + 2:k * k - 2 * k + 1], axis=0, out=u, mode="clip")
        u *= rec.b[j]
        t -= u
        t *= rec.a[j]
        N[rec.rows[k * k + k:k * k + 2 * k - 1]] = t
    return N


def orthonormal_sh_values(lmax: int, x, phi) -> np.ndarray:
    """Flat values ``E[i, k] = sqrt(l+1/2) * Y_l^m`` at ``(x_i, phi_i)``.

    Points are given by ``x = cos(theta)``, a 1-D array or a scalar, and
    ``phi``, a scalar or an array of the same length; columns follow the flat
    triangular order of ``degree_order_arrays(lmax)``.  At ``phi = 0`` the
    values are real: the theta factor alone.  Each phase ``exp(i*m*phi)`` is
    computed once per order and point and gathered to the flat columns; the
    result is built in place, beside the table and one real array of its shape.
    """
    return _table_values(lmax, orthonormal_legendre_table(lmax, x), phi)


def _table_values(lmax: int, N, phi) -> np.ndarray:
    """``orthonormal_sh_values`` at the points of ``N``: ``orthonormal_legendre_table`` or some of its columns."""
    rec = _table_map(lmax)
    mags = N[rec.rows]
    mags *= rec.sign[:, None]
    # phase[m + lmax, i] = exp(i*m*phi_i), gathered to the flat rows
    phase = np.exp(1j * np.arange(-lmax, lmax + 1)[:, None] * np.asarray(phi, dtype=np.float64))
    values = np.broadcast_to(phase, (phase.shape[0], N.shape[1]))[degree_order_arrays(lmax)[1] + lmax]
    values *= mags  # complex times real: the bits of real times complex
    return values.T


def sh_eval(idx, p) -> complex:
    """Spherical harmonic ``Y_l^m`` at a point."""
    idx = as_index(idx)
    p = as_point(p)
    values = orthonormal_sh_values(idx.l, math.cos(p.theta), p.phi)
    return complex(values[0, flat_index(idx.l, idx.m)]) / math.sqrt(idx.l + 0.5)


def uniform_bound_check(lmax: int) -> BoundReport:
    """Scan ``max |Y_l^m|`` against ``1/sqrt(2*pi)`` on 2048 equispaced thetas.

    The supremum is attained (``m = 0`` at the poles), so the margin is zero
    up to roundoff; the report tolerance absorbs that.
    """
    lmax = check_lmax(lmax)
    # |Y_l^m| = |N[row]| / sqrt(l + 1/2): phase factors drop out of the modulus.
    # Each row's largest modulus, then divided, gives the bits of the largest
    # quotient, as division by a positive constant rounds monotonically; one
    # table per half of the nodes, its modulus taken in place, bounds the memory
    peaks = []
    for x in np.split(np.cos(np.linspace(0.0, math.pi, _SUP_SCAN_NODES)), 2):
        N = orthonormal_legendre_table(lmax, x)
        peaks.append(np.abs(N, out=N).max(axis=1))
        del N
    worst = float((np.max(peaks, axis=0)[_table_map(lmax).rows] / np.sqrt(degree_order_arrays(lmax)[0] + 0.5)).max())
    return BoundReport(
        check="uniform_sup_bound",
        anchor="|Y_l^m(theta,phi)| <= 1/sqrt(2*pi)",
        lhs=worst,
        rhs=SH_SUP_BOUND,
        tol=1e-12,
        lmax=lmax,
        details={"grid_density": _SUP_SCAN_NODES},
    )

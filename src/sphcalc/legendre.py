"""Associated Legendre functions and spherical-harmonic point evaluation.

Conventions: Condon-Shortley phase inside ``P_l^m`` (``P_1^1(x) =
-sqrt(1-x^2)``), harmonics normalised as ``Y_l^m = sqrt((l-m)!/(2*pi*(l+m)!))
* exp(i*m*phi) * P_l^m(cos(theta))``, so that ``sqrt(l+1/2) * Y_l^m`` is an
orthonormal family for the measure ``d(cos(theta)) dphi``.  Negative orders
use ``P_l^{-m} = (-1)^m (l-m)!/(l+m)! P_l^m``, equivalently ``Y_l^{-m} =
(-1)^m conj(Y_l^m)``.

Every harmonic value comes from one fully-normalised recurrence,
``orthonormal_legendre_table``: point values (``orthonormal_sh_values``,
``sh_eval``), the transforms' basis tables and the sup-bound scan.  It is the
only recurrence for harmonic values (the Gauss node solve in ``transform``
runs a plain ``P_n`` recurrence of its own); the plain ``P_l^m`` recurrence
it is tested against is ``assoc_legendre`` in ``tests/reference.py``.  Its
diagonal seed ``N(m,m) ~ sin(theta)^m`` underflows at high order, so a degree
past ``MAX_LMAX`` is refused (``check_lmax``, also run by ``SphereGrid``).
"""

from __future__ import annotations

import math

import numpy as np

from .expansions import as_index, as_point, degree_order_arrays, flat_index
from .report import BoundReport

SH_SUP_BOUND = 1.0 / math.sqrt(2.0 * math.pi)
_SUP_SCAN_NODES = 2048
MAX_LMAX = 1850  # 50 below the last degree where sum_m N(l,m)^2 held to 1e-12
GROUP = 8  # orders per block of the stacked layout (``_stacked_map``)


def check_lmax(lmax: int) -> None:
    """Refuse a degree past ``MAX_LMAX``, the recurrence's validated range."""
    if lmax > MAX_LMAX:
        raise ValueError(f"lmax={lmax} exceeds the recurrence's validated range, lmax <= {MAX_LMAX}")


def packed_row(lmax: int, l, m):
    """Row of degree ``l``, order ``|m|`` in the packed table of degree ``lmax``.

    Rows run m-major, ``off[m] + l - m`` with ``off[m] = m*(2*lmax+3-m)/2``,
    so order ``m`` is the contiguous block ``off[m]:off[m+1]`` and
    ``packed_row(lmax, m, m)`` for ``m = 0..lmax+1`` gives those offsets.
    """
    m = np.abs(m)
    return m * (2 * lmax + 3 - m) // 2 + l - m


def _packed_map(lmax: int):
    """Per flat index up to degree ``lmax``: packed row, slot (0 for ``+m``, 1
    for ``-m``) and sign (``(-1)^m`` for ``m < 0``, else 1).  Read-only."""
    ls, ms = degree_order_arrays(lmax)
    neg = ms < 0
    arrays = (packed_row(lmax, ls, ms), neg.astype(np.intp), np.where(neg & (ms % 2 == 1), -1.0, 1.0))
    for a in arrays:
        a.flags.writeable = False
    return arrays


def _stacked_map(lmax: int):
    """The stacked layout of degree ``lmax``, in which the transforms' grids
    keep their table.  Read-only.

    Orders go in groups of ``GROUP``; per group and parity ``p`` of ``l+m``
    one zero-padded block of shape ``(orders, R, nodes)`` holds, at block row
    ``(j, i)``, degree ``l = m + p + 2i`` of order ``m = m0 + j``, where
    ``m0`` is the group's first order and ``R`` its row count of parity
    ``p``.  Blocks run group-major, even parity first.  Returns the table row
    of each packed row followed by the table's row count (the ``rows``
    argument of ``orthonormal_legendre_table``, and through ``_packed_map``
    the table row of each flat index), and per block its first order, order
    count, parity, first table row and ``R``.
    """
    m0 = np.repeat(np.arange(0, lmax + 1, GROUP), 2)
    p = np.arange(m0.size) % 2
    k = np.minimum(GROUP, lmax + 1 - m0)
    R = (lmax - m0 - p) // 2 + 1
    start = np.concatenate([[0], np.cumsum(k * R)])
    ms, ls = np.triu_indices(lmax + 1)  # (m, l) of each packed row, m-major
    b = 2 * (ms // GROUP) + (ls - ms) % 2
    build = np.append(start[b] + (ms - m0[b]) * R[b] + (ls - ms) // 2, start[-1])
    arrays = (build, np.stack([m0, k, p, start[:-1], R], axis=1))
    for a in arrays:
        a.flags.writeable = False
    return arrays


def orthonormal_legendre_table(lmax: int, x, rows=None) -> np.ndarray:
    """Packed m-major table ``N[row, i]`` of orthonormal-harmonic magnitudes.

    Shape ``((lmax+1)(lmax+2)/2, x.size)``: row ``packed_row(lmax, l, m)``
    holds ``(l, m)`` for ``0 <= m <= l``, and no row is stored for ``m > l``.
    ``N[row, i] * exp(i*m*phi)`` equals ``sqrt(l+1/2) * Y_l^m(theta, phi)``
    at ``x_i = cos(theta)``; for negative orders multiply by ``(-1)^m``.
    Given ``rows``, the table row of each packed row followed by the row
    count (``_stacked_map``'s first array), ``(l, m)`` goes to table row
    ``rows[packed_row(lmax, l, m)]`` instead and the other rows stay zero.
    Fully-normalised recurrence, stable for degrees well beyond the plain
    ``P_l^m`` overflow point.  The diagonal and sub-diagonal seeds come
    first, then each degree is one two-term step over its orders
    ``m <= l-2``; every entry takes the same arithmetic as the order-by-order
    recurrence, so the values are bit-identical to it in either layout.
    """
    check_lmax(lmax)
    x = np.atleast_1d(np.asarray(x, dtype=np.float64))
    if np.any(np.abs(x) > 1.0):
        raise ValueError("argument out of range: |x| > 1")
    orders = np.arange(lmax + 2)
    off = packed_row(lmax, orders, orders)
    if rows is None:
        rows = np.arange(off[-1] + 1)
    N = np.zeros((rows[-1], x.size))
    s = np.sqrt(np.maximum(1.0 - x * x, 0.0))
    # N[l, l] = (-sqrt((2l+1)/2l) * s) * N[l-1, l-1]: one running product
    deg = orders[1:-1]
    diag = np.empty((lmax + 1, x.size))
    diag[0] = 1.0 / math.sqrt(4.0 * math.pi)
    diag[1:] = -np.sqrt((2 * deg + 1) / (2.0 * deg))[:, None] * s
    N[rows[off[:-1]]] = np.cumprod(diag, axis=0)
    # N[l, l-1] = (sqrt(2l+1) * x) * N[l-1, l-1]
    N[rows[off[:-2] + 1]] = (np.sqrt(2 * deg + 1.0)[:, None] * x) * N[rows[off[:-2]]]
    # two-term steps, degree-major: degree l holds entries [(l-1)(l-2)/2, l(l-1)/2)
    l, m = np.tril_indices(max(lmax - 1, 0))
    l += 2
    a = np.sqrt((4.0 * l * l - 1.0) / (l * l - m * m))[:, None]
    b = np.sqrt(((l - 1.0) ** 2 - m * m) / (4.0 * (l - 1.0) ** 2 - 1.0))[:, None]
    packed = packed_row(lmax, l, m)
    r0, r1, r2 = rows[packed], rows[packed - 1], rows[packed - 2]
    for k in range(2, lmax + 1):
        j = slice((k - 1) * (k - 2) // 2, k * (k - 1) // 2)
        N[r0[j]] = a[j] * (x * N[r1[j]] - b[j] * N[r2[j]])
    return N


def orthonormal_sh_values(lmax: int, x, phi) -> np.ndarray:
    """Flat values ``E[i, k] = sqrt(l+1/2) * Y_l^m`` at ``(x_i, phi_i)``.

    Points are given by ``x = cos(theta)``, a 1-D array or a scalar, and
    ``phi``, a scalar or an array of the same length; columns follow the flat
    triangular order of ``degree_order_arrays(lmax)``.  At ``phi = 0`` the
    values are real: the theta factor alone.  Each phase ``exp(i*m*phi)`` is
    computed once per order and point and gathered to the flat columns.
    """
    x = np.atleast_1d(np.asarray(x, dtype=np.float64))
    phi = np.asarray(phi, dtype=np.float64)[..., None]
    N = orthonormal_legendre_table(lmax, x)
    rows, _, sign = _packed_map(lmax)
    phase = np.exp(1j * np.arange(-lmax, lmax + 1) * phi)
    return N[rows].T * sign * phase[..., degree_order_arrays(lmax)[1] + lmax]


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
    if lmax < 0:
        raise ValueError("lmax must be >= 0")
    theta = np.linspace(0.0, math.pi, _SUP_SCAN_NODES)
    N = orthonormal_legendre_table(lmax, np.cos(theta))
    _, degs = np.triu_indices(lmax + 1)  # (m, l) of each packed row, m-major
    # |Y_l^m| = N[row] / sqrt(l + 1/2); phase factors drop out of the modulus.
    # In place: the table is the scan's one large array
    np.abs(N, out=N)
    N /= np.sqrt(degs + 0.5)[:, None]
    worst = float(N.max())
    return BoundReport(
        check="uniform_sup_bound",
        anchor="|Y_l^m(theta,phi)| <= 1/sqrt(2*pi)",
        lhs=worst,
        rhs=SH_SUP_BOUND,
        tol=1e-12,
        lmax=lmax,
        details={"grid_density": _SUP_SCAN_NODES},
    )

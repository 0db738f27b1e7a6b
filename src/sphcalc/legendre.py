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
    for ``-m``) and sign (``(-1)^m`` for ``m < 0``, else 1); then the order
    offsets ``off``, order ``m`` being rows ``off[m]:off[m+1]``.  Read-only."""
    ls, ms = degree_order_arrays(lmax)
    neg, orders = ms < 0, np.arange(lmax + 2)
    arrays = (packed_row(lmax, ls, ms), neg.astype(np.intp), np.where(neg & (ms % 2 == 1), -1.0, 1.0),
              packed_row(lmax, orders, orders))
    for a in arrays:
        a.flags.writeable = False
    return arrays


def orthonormal_legendre_table(lmax: int, x) -> np.ndarray:
    """Packed m-major table ``N[row, i]`` of orthonormal-harmonic magnitudes.

    Shape ``((lmax+1)(lmax+2)/2, x.size)``: row ``packed_row(lmax, l, m)``
    holds ``(l, m)`` for ``0 <= m <= l``, and no row is stored for ``m > l``.
    ``N[row, i] * exp(i*m*phi)`` equals ``sqrt(l+1/2) * Y_l^m(theta, phi)``
    at ``x_i = cos(theta)``; for negative orders multiply by ``(-1)^m``.
    Fully-normalised recurrence, stable for degrees well beyond the plain
    ``P_l^m`` overflow point.  The diagonal and sub-diagonal seeds come
    first, then each degree is one two-term step over its orders
    ``m <= l-2``; every entry takes the same arithmetic as the order-by-order
    recurrence, so the values are bit-identical to it.
    """
    check_lmax(lmax)
    x = np.atleast_1d(np.asarray(x, dtype=np.float64))
    if np.any(np.abs(x) > 1.0):
        raise ValueError("argument out of range: |x| > 1")
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
    rows = packed_row(lmax, l, m)
    for k in range(2, lmax + 1):
        j = slice((k - 1) * (k - 2) // 2, k * (k - 1) // 2)
        r = rows[j]
        N[r] = a[j] * (x * N[r - 1] - b[j] * N[r - 2])
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
    rows, _, sign, _ = _packed_map(lmax)
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

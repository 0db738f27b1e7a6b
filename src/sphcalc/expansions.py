"""Coefficient tables, graded norms and decay diagnostics.

An expansion stores one complex coefficient per index pair ``(l, m)`` with
``0 <= l <= lmax`` and ``|m| <= l``, taken with respect to the orthonormal
basis functions ``sqrt(l+1/2) * Y_l^m``.  The graded norm of order ``n``
weights coefficient ``(l, m)`` by ``(l + |m| + 1)^n``; the ``n = 0`` member is
the plain Hilbert norm.
"""

from __future__ import annotations

import json
import math
import numbers
import operator
import sys
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

BASIS_TAG = "sqrt(l+1/2)Y"

_FLOAT_MAX_LOG = math.log(np.finfo(np.float64).max)


class CoefficientFileError(ValueError):
    """Malformed or inconsistent coefficient document."""


@dataclass(frozen=True)
class HarmonicIndex:
    """Degree/order pair with ``|m| <= l``."""

    l: int
    m: int

    def __post_init__(self):
        object.__setattr__(self, "l", at_least(self.l, "degree l", 0))
        object.__setattr__(self, "m", as_integer(self.m, "order m"))
        if abs(self.m) > self.l:
            raise ValueError(f"order out of range: |m|={abs(self.m)} > l={self.l}")


@dataclass(frozen=True)
class SpherePoint:
    """Point on the unit sphere, ``theta`` in [0, pi], ``phi`` in [0, 2*pi)."""

    theta: float
    phi: float

    def __post_init__(self):
        if not 0.0 <= self.theta <= math.pi:
            raise ValueError(f"theta out of range [0, pi]: {self.theta}")
        if not 0.0 <= self.phi < 2.0 * math.pi:
            raise ValueError(f"phi out of range [0, 2*pi): {self.phi}")


def as_index(idx) -> HarmonicIndex:
    if isinstance(idx, HarmonicIndex):
        return idx
    l, m = idx
    return HarmonicIndex(l, m)


def as_point(p) -> SpherePoint:
    if isinstance(p, SpherePoint):
        return p
    theta, phi = p
    return SpherePoint(float(theta), float(phi))


def as_integer(value, name: str) -> int:
    """``value`` as an ``int``; a float, a bool or any other non-integer is refused, naming ``name``."""
    if not isinstance(value, numbers.Integral) or isinstance(value, bool):
        raise TypeError(f"{name} must be an integer, got {value!r}")
    return int(value)


def at_least(value, name: str, low: int) -> int:
    """``as_integer(value, name)``, refusing also a value below ``low``, naming ``name``."""
    if as_integer(value, name) < low:
        raise ValueError(f"{name} must be >= {low}, got {value}")
    return int(value)


def as_integer_arrays(name: str, *values) -> list[np.ndarray]:
    """``values`` broadcast as int64 arrays; a float or bool one is refused, as by ``as_integer``, not truncated."""
    arrays = [np.asarray(value) for value in values]
    for value, array in zip(values, arrays):
        if array.dtype.kind not in "iu":
            raise TypeError(f"{name} must be an integer, got {value!r}")
    return np.broadcast_arrays(*(a.astype(np.int64, copy=False) for a in arrays))


def as_degree(lmax) -> int:
    """A degree ``lmax`` as an ``int``; anything but an integer >= 0 is refused."""
    return at_least(lmax, "lmax", 0)


def flat_index(l, m):
    """Position of ``(l, m)`` in the flat triangular layout ``l*l + l + m``."""
    return l * l + l + m


@lru_cache(maxsize=None, typed=True)  # typed: a hit on 2 must not pass 2.0
def degree_order_arrays(lmax: int) -> tuple[np.ndarray, np.ndarray]:
    """Arrays ``(ls, ms)`` listing every stored index pair in flat order."""
    lmax = as_degree(lmax)
    ls = np.concatenate([np.full(2 * l + 1, l, dtype=np.int64) for l in range(lmax + 1)])
    ms = np.concatenate([np.arange(-l, l + 1, dtype=np.int64) for l in range(lmax + 1)])
    ls.flags.writeable = ms.flags.writeable = False
    return ls, ms


class HarmonicExpansion:
    """Immutable triangular table of complex coefficients up to ``lmax``."""

    __slots__ = ("lmax", "coeffs")

    def __init__(self, lmax: int, coeffs):
        lmax = as_degree(lmax)
        arr = np.asarray(coeffs, dtype=np.complex128)
        size = (lmax + 1) ** 2
        if arr.shape != (size,):
            raise ValueError(f"expected {size} coefficients for lmax={lmax}, got shape {arr.shape}")
        if not np.all(np.isfinite(arr.view(np.float64))):
            raise ValueError("coefficients must be finite")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "lmax", lmax)
        object.__setattr__(self, "coeffs", arr)

    def __setattr__(self, name, value):
        raise AttributeError("HarmonicExpansion is immutable")

    @classmethod
    def zeros(cls, lmax: int) -> "HarmonicExpansion":
        return cls(lmax, np.zeros((as_degree(lmax) + 1) ** 2, dtype=np.complex128))

    @classmethod
    def unit(cls, l: int, m: int, lmax: int | None = None) -> "HarmonicExpansion":
        """Basis expansion with a single coefficient 1 at ``(l, m)``."""
        idx = HarmonicIndex(l, m)
        lmax = idx.l if lmax is None else as_degree(lmax)
        if lmax < idx.l:
            raise ValueError("lmax too small for requested index")
        c = np.zeros((lmax + 1) ** 2, dtype=np.complex128)
        c[flat_index(idx.l, idx.m)] = 1.0
        return cls(lmax, c)

    def __getitem__(self, lm) -> complex:
        idx = as_index(lm)
        if idx.l > self.lmax:
            return 0.0 + 0.0j
        return complex(self.coeffs[flat_index(idx.l, idx.m)])

    def items(self):
        ls, ms = degree_order_arrays(self.lmax)
        for l, m, c in zip(ls, ms, self.coeffs):
            yield (int(l), int(m)), complex(c)

    def with_lmax(self, lmax: int) -> "HarmonicExpansion":
        """Zero-padded copy; truncation is refused."""
        if as_degree(lmax) < self.lmax:  # checked first: True == 1 would return self
            raise ValueError("refusing to truncate; pad target below current lmax")
        if lmax == self.lmax:
            return self
        c = np.zeros((lmax + 1) ** 2, dtype=np.complex128)
        c[: self.coeffs.size] = self.coeffs
        return HarmonicExpansion(lmax, c)

    def to_matrix(self) -> np.ndarray:
        """Rectangular view ``C[l, lmax + m]``, zero outside the triangle."""
        L = self.lmax
        C = np.zeros((L + 1, 2 * L + 1), dtype=np.complex128)
        ls, ms = degree_order_arrays(L)
        C[ls, L + ms] = self.coeffs
        return C

    def __add__(self, other: "HarmonicExpansion") -> "HarmonicExpansion":
        lmax = max(self.lmax, other.lmax)
        a = self.with_lmax(lmax)
        b = other.with_lmax(lmax)
        return HarmonicExpansion(lmax, a.coeffs + b.coeffs)

    def __sub__(self, other: "HarmonicExpansion") -> "HarmonicExpansion":
        return self + (-1.0) * other

    def __mul__(self, scalar) -> "HarmonicExpansion":
        return HarmonicExpansion(self.lmax, self.coeffs * complex(scalar))

    __rmul__ = __mul__

    def __repr__(self):
        nrm = float(np.linalg.norm(self.coeffs))
        return f"HarmonicExpansion(lmax={self.lmax}, |f|={nrm:.6g})"


@dataclass(frozen=True)
class DecayEstimate:
    """Least-squares decay exponent of ``max_m |c_{l,m}|`` against ``l+1``."""

    exponent: float
    residual: float
    verdict: str


RAPID_DECAY = "rapid-decay"
SLOW_DECAY = "slow-decay"
INCONCLUSIVE = "inconclusive"


def degree_weights(lmax: int) -> np.ndarray:
    """Graded-norm weights ``l + |m| + 1`` in flat order, as floats."""
    ls, ms = degree_order_arrays(lmax)
    return (ls + np.abs(ms) + 1).astype(np.float64)


def graded_norms(table: np.ndarray, lmax: int, n: int | tuple[int, ...]) -> np.ndarray:
    """Order-``n`` graded norm of every row of a ``(..., K)`` coefficient table.

    Row ``r`` gives sqrt of sum of ``(l+|m|+1)^(2n) * |table[r, k]|^2``.  A
    tuple of orders gives one norm per order, along a new last axis, from
    squared magnitudes and weight bases formed once.  An order whose largest
    weight ``(2*lmax+1)^(2n)`` leaves the double range raises ``OverflowError``;
    a last axis other than ``K = (lmax + 1)**2`` is refused, not broadcast.
    """
    lmax = as_degree(lmax)
    orders = [at_least(q, "norm order", 0) for q in (n if isinstance(n, tuple) else (n,))]
    for q in orders:
        if 2 * q * math.log(2 * lmax + 1) > _FLOAT_MAX_LOG:
            raise OverflowError(f"norm order n={q} overflows at lmax={lmax}")
    base = degree_weights(lmax)
    if table.shape[-1:] != base.shape:
        raise ValueError(f"table shape {table.shape}: rows need (lmax + 1)**2 = {base.size} values at lmax={lmax}")
    mag2 = table.real**2 + table.imag**2
    norms = [np.sqrt(np.sum(base ** (2 * q) * mag2, axis=-1)) for q in orders]
    return np.stack(norms, axis=-1) if isinstance(n, tuple) else norms[0]


def graded_norm(f: HarmonicExpansion, n: int) -> float:
    """Norm of order ``n``: ``graded_norms`` of the one-row table ``f.coeffs``."""
    return float(graded_norms(f.coeffs, f.lmax, n))


def hilbert_norm(f: HarmonicExpansion) -> float:
    """Plain coefficient two-norm; equal to ``graded_norm(f, 0)``."""
    return graded_norm(f, 0)


def estimate_decay(f: HarmonicExpansion) -> DecayEstimate:
    """Fit ``log max_m |c_{l,m}| ~ -s * log(l+1)`` and classify the decay.

    Verdict is ``rapid-decay`` when the fitted exponent reaches 4 with an
    acceptable fit (root-mean-square log residual at most 1), ``slow-decay``
    when the fit is acceptable but the exponent is below 4, and
    ``inconclusive`` for degenerate inputs (coefficients vanishing beyond
    l=0, too few usable degrees) or a residual above 1.
    """
    if f.lmax < 4:
        raise ValueError("decay fit needs lmax >= 4")
    C = np.abs(f.to_matrix())
    peaks = C.max(axis=1)
    usable = peaks > 0.0
    if usable.sum() < 3 or not usable[1:].any():
        return DecayEstimate(float("nan"), float("nan"), INCONCLUSIVE)
    ldeg = np.arange(f.lmax + 1)[usable]
    logw = np.log(ldeg + 1.0)
    logp = np.log(peaks[usable])
    slope, intercept = np.polyfit(logw, logp, 1)
    resid = float(np.sqrt(np.mean((logp - (slope * logw + intercept)) ** 2)))
    s = -float(slope)
    if resid > 1.0:
        return DecayEstimate(s, resid, INCONCLUSIVE)
    verdict = RAPID_DECAY if s >= 4.0 else SLOW_DECAY
    return DecayEstimate(s, resid, verdict)


# ---------------------------------------------------------------------------
# coefficient document I/O (single JSON document, canonical (l, m) ordering)

# records per write: the text held at once stays bounded whatever the lmax
_RECORDS_PER_BLOCK = 4096
# json.dump(indent=1) layout of one record; %r of a float is float.__repr__, as in json
_RECORD = '  {\n   "l": %r,\n   "m": %r,\n   "re": %r,\n   "im": %r\n  }'
_RECORD_FIELDS = operator.itemgetter("l", "m", "re", "im")


def save_expansion(f: HarmonicExpansion, path) -> None:
    """Write ``f`` as an indented JSON coefficient document.

    The bytes are those of ``json.dump(indent=1)`` on the document object
    plus a final newline, pinned by tests to the per-record reference writer
    in ``tests/reference_io.py``; the text is built from whole columns, in
    blocks of ``_RECORDS_PER_BLOCK`` records.
    """
    ls, ms = degree_order_arrays(f.lmax)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write('{\n "lmax": %s,\n "basis": %s,\n "coefficients": [\n'
                 % (json.dumps(f.lmax), json.dumps(BASIS_TAG)))
        for start in range(0, f.coeffs.size, _RECORDS_PER_BLOCK):
            block = slice(start, start + _RECORDS_PER_BLOCK)
            c = f.coeffs[block]
            columns = (ls[block].tolist(), ms[block].tolist(), c.real.tolist(), c.imag.tolist())
            if start:
                fh.write(",\n")
            fh.write(",\n".join(map(_RECORD.__mod__, zip(*columns))))
        fh.write("\n ]\n}\n")


def load_expansion(path) -> HarmonicExpansion:
    """Read a JSON coefficient document, validating every record.

    Accepts and rejects the same documents, with the same messages, as the
    per-record reference reader in ``tests/reference_io.py``, and loads the
    same bits.  One pass over the records names the first bad one.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise CoefficientFileError(f"{path}: not valid JSON: {exc}") from exc
        except UnicodeDecodeError as exc:
            raise CoefficientFileError(f"{path}: not UTF-8 text: {exc}") from exc
        except RecursionError as exc:
            raise CoefficientFileError(f"{path}: arrays or objects nested too deeply") from exc
        except ValueError as exc:  # int() refuses a JSON integer past its digit limit
            raise CoefficientFileError(f"{path}: integer too long: {exc}") from exc
    if not isinstance(doc, dict):
        raise CoefficientFileError(f"{path}: top level must be an object, not {type(doc).__name__}")
    for key in ("lmax", "basis", "coefficients"):
        if key not in doc:
            raise CoefficientFileError(f"{path}: missing field {key!r}")
    if doc["basis"] != BASIS_TAG:
        raise CoefficientFileError(
            f"{path}: basis {doc['basis']!r} does not match {BASIS_TAG!r}"
        )
    lmax = doc["lmax"]
    if type(lmax) is not int or lmax < 0:
        raise CoefficientFileError(f"{path}: lmax must be an integer >= 0, got {lmax!r}")
    size = (lmax + 1) ** 2
    records = doc["coefficients"]
    if not isinstance(records, list):
        raise CoefficientFileError(f"{path}: coefficients must be a list of records")
    # checked before allocating: a short document may declare a huge lmax
    if len(records) != size:
        raise CoefficientFileError(
            f"{path}: {len(records)} records for lmax={lmax}, expected {size}:"
            " entries missing or surplus"
        )
    re_list, im_list, seen = [0.0] * size, [0.0] * size, bytearray(size)
    # JSON numbers only (type() rules out bool, which float() would read as 1);
    # NaN, Infinity and integers past the double range fail the bound
    number_types, top = {int, float}, sys.float_info.max
    for k, rec in enumerate(records):
        try:
            l, m, re, im = _RECORD_FIELDS(rec)
        except (KeyError, TypeError) as exc:
            raise CoefficientFileError(f"{path}: bad record #{k}: {rec!r}") from exc
        if not (type(re) in number_types and abs(re) <= top and type(im) in number_types and abs(im) <= top):
            raise CoefficientFileError(f"{path}: record #{k} re/im not finite numbers: {rec!r}")
        # JSON integers only: json makes no int subclass but bool, which type() rules out
        if type(l) is not int or type(m) is not int or not 0 <= l <= lmax or abs(m) > l:
            raise CoefficientFileError(f"{path}: record #{k} index ({l!r},{m!r}) out of range")
        pos = l * l + l + m
        if seen[pos]:
            raise CoefficientFileError(f"{path}: duplicate entry for ({l},{m})")
        seen[pos] = 1
        re_list[pos], im_list[pos] = re, im
    # size distinct in-range records leave no (l, m) missing; the list
    # assignment keeps -0.0 and rounds integer amplitudes as float() does
    coeffs = np.empty(size, dtype=np.complex128)
    coeffs.real, coeffs.imag = re_list, im_list
    return HarmonicExpansion(lmax, coeffs)

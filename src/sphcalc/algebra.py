"""Banded coefficient-space operators and the ten-generator ladder algebra.

Shift amplitudes are stated on the plain-``Y`` basis; application to stored
coefficients (orthonormal basis) multiplies each transferred term by
``sqrt((2l+1)/(2l'+1))`` where ``l' = l + dl``.  Raising operators grow the
stored ``lmax`` by their band width instead of dropping boundary terms, so
application is exact on truncated expansions.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Callable

import numpy as np

from .expansions import HarmonicExpansion, degree_order_arrays, flat_index
from .report import BoundReport


class DomainError(ValueError):
    """Operand outside an operator's admissible domain."""


GENERATOR_NAMES = ("L", "M", "J+", "J-", "K+", "K-", "R+", "R-", "S+", "S-")


@dataclass(frozen=True)
class ShiftRule:
    """One band of a coefficient operator: ``(l, m) -> (l+dl, m+dm)``."""

    dl: int
    dm: int
    amplitude: Callable[[np.ndarray, np.ndarray], np.ndarray]


class Operator:
    """Linear map on expansions; supports ``*`` (compose/scale), ``+``, ``-``."""

    band_growth: int = 0

    def apply(self, f: HarmonicExpansion) -> HarmonicExpansion:
        table, lmax = self._apply_table(f.coeffs[None, :], f.lmax)
        return HarmonicExpansion(lmax, table[0])

    def _apply_table(self, coeffs: np.ndarray, lmax: int):
        raise NotImplementedError

    def matrix(self, lmax_in: int, lmax_out: int | None = None) -> np.ndarray:
        """Dense matrix on flat triangular layouts, columns = inputs."""
        K_in = (lmax_in + 1) ** 2
        table, lmax_nat = self._apply_table(np.eye(K_in, dtype=np.complex128), lmax_in)
        if lmax_out is None:
            lmax_out = lmax_nat
        K_out = (lmax_out + 1) ** 2
        out = np.zeros((K_out, K_in), dtype=np.complex128)
        keep = min(K_out, table.shape[1])
        out[:keep, :] = table[:, :keep].T
        return out

    def __mul__(self, other):
        if isinstance(other, Operator):
            return ComposedOperator(self, other)
        return ScaledOperator(complex(other), self)

    def __rmul__(self, scalar):
        return ScaledOperator(complex(scalar), self)

    def __add__(self, other):
        return SumOperator(self, other)

    def __sub__(self, other):
        return SumOperator(self, ScaledOperator(-1.0, other))

    def __neg__(self):
        return ScaledOperator(-1.0, self)


class CoefficientOperator(Operator):
    """Banded operator from shift rules with boundary-vanishing amplitudes.

    ``precondition(coeffs, lmax)``, when given, vets every ``(batch, K)`` table
    the operator receives, so ``apply``, ``matrix`` and the batched bound scans
    share one domain check.
    """

    def __init__(self, name: str, rules: tuple[ShiftRule, ...], precondition=None):
        self.name = name
        self.rules = tuple(rules)
        self.precondition = precondition
        self.band_growth = max([r.dl for r in self.rules] + [0])

    def _apply_table(self, coeffs: np.ndarray, lmax: int):
        if self.precondition is not None:
            self.precondition(coeffs, lmax)
        out_lmax = lmax + self.band_growth
        out = np.zeros((coeffs.shape[0], (out_lmax + 1) ** 2), dtype=np.complex128)
        ls, ms = degree_order_arrays(lmax)
        for rule in self.rules:
            lt = ls + rule.dl
            mt = ms + rule.dm
            valid = (lt >= 0) & (np.abs(mt) <= lt)
            if not valid.any():
                continue
            src = np.nonzero(valid)[0]
            amp = np.asarray(rule.amplitude(ls[src], ms[src]), dtype=np.complex128)
            ratio = np.sqrt((2.0 * ls[src] + 1.0) / (2.0 * lt[src] + 1.0))
            tgt = flat_index(lt[src], mt[src])
            out[:, tgt] += (amp * ratio)[None, :] * coeffs[:, src]
        return out, out_lmax

    def __repr__(self):
        return f"CoefficientOperator({self.name!r})"


class ComposedOperator(Operator):
    def __init__(self, outer: Operator, inner: Operator):
        self.outer = outer
        self.inner = inner
        self.band_growth = outer.band_growth + inner.band_growth

    def _apply_table(self, coeffs, lmax):
        mid, lmid = self.inner._apply_table(coeffs, lmax)
        return self.outer._apply_table(mid, lmid)

    def __repr__(self):
        return f"({self.outer!r} * {self.inner!r})"


class SumOperator(Operator):
    def __init__(self, a: Operator, b: Operator):
        self.a = a
        self.b = b
        self.band_growth = max(a.band_growth, b.band_growth)

    def _apply_table(self, coeffs, lmax):
        ta, la = self.a._apply_table(coeffs, lmax)
        tb, lb = self.b._apply_table(coeffs, lmax)
        lout = max(la, lb)
        # zero-pad both terms before adding, as HarmonicExpansion addition does
        width = (lout + 1) ** 2
        ta, tb = (np.pad(t, ((0, 0), (0, width - t.shape[1]))) for t in (ta, tb))
        return ta + tb, lout

    def __repr__(self):
        return f"({self.a!r} + {self.b!r})"


class ScaledOperator(Operator):
    def __init__(self, scalar: complex, op: Operator):
        self.scalar = scalar
        self.op = op
        self.band_growth = op.band_growth

    def _apply_table(self, coeffs, lmax):
        table, lout = self.op._apply_table(coeffs, lmax)
        return self.scalar * table, lout

    def __repr__(self):
        return f"({self.scalar} * {self.op!r})"


def commutator(a: Operator, b: Operator) -> Operator:
    """Expression for ``a*b - b*a``."""
    return SumOperator(ComposedOperator(a, b), ScaledOperator(-1.0, ComposedOperator(b, a)))


def _sq(expr) -> np.ndarray:
    # amplitudes are sqrt of integer products that are >= 0 on valid targets;
    # clip shields the exact-zero boundary cases from roundoff sign flips
    return np.sqrt(np.clip(np.asarray(expr, dtype=np.float64), 0.0, None))


_GENERATOR_RULES = {
    "L": (ShiftRule(0, 0, lambda l, m: np.asarray(l, dtype=np.float64)),),
    "M": (ShiftRule(0, 0, lambda l, m: np.asarray(m, dtype=np.float64)),),
    "J+": (ShiftRule(0, +1, lambda l, m: _sq((l - m) * (l + m + 1))),),
    "J-": (ShiftRule(0, -1, lambda l, m: _sq((l + m) * (l - m + 1))),),
    "K+": (ShiftRule(+1, 0, lambda l, m: _sq((l + 1) ** 2 - m * m)),),
    "K-": (ShiftRule(-1, 0, lambda l, m: _sq(l * l - m * m)),),
    "R+": (ShiftRule(+1, +1, lambda l, m: _sq((l + m + 2) * (l + m + 1))),),
    "R-": (ShiftRule(-1, -1, lambda l, m: _sq((l + m) * (l + m - 1))),),
    "S+": (ShiftRule(+1, -1, lambda l, m: _sq((l - m + 2) * (l - m + 1))),),
    "S-": (ShiftRule(-1, +1, lambda l, m: _sq((l - m) * (l - m - 1))),),
}


def generator(name: str) -> CoefficientOperator:
    """One of the ten ladder/Cartan generators acting on coefficients."""
    if name not in _GENERATOR_RULES:
        raise KeyError(f"unknown generator {name!r}; expected one of {GENERATOR_NAMES}")
    return CoefficientOperator(name, _GENERATOR_RULES[name])


def apply(op: Operator, f: HarmonicExpansion) -> HarmonicExpansion:
    return op.apply(f)


def derive_structure_constants(lmax: int, include_identity: bool = True):
    """Least-squares expansion of every commutator in the generator actions.

    Returns ``(constants, max_residual)`` where ``constants[(a, b)]`` maps
    basis-element names to the fitted coefficient of ``[a, b]``.  Commutators
    are formed by ``commutator`` composition, the same path ``apply`` takes,
    and evaluated on basis elements of degree <= ``lmax`` inside a space
    padded by two degrees, so no truncation error enters.

    The opposite-ladder pairs produce diagonal commutators such as
    ``[K+, K-] = -(2L + 1)``: the ten printed actions close exactly once the
    identity map (name ``"1"``) joins the regression basis, equivalently once
    the degree label carries a half-unit shift.  With ``include_identity``
    off, those central terms surface as residual instead.
    """
    if lmax < 4:
        raise ValueError("closure check needs lmax >= 4")
    lpad = lmax + 2
    gens = {name: generator(name) for name in GENERATOR_NAMES}
    columns = {name: op.matrix(lmax, lpad) for name, op in gens.items()}
    if include_identity:
        columns["1"] = np.eye((lpad + 1) ** 2, (lmax + 1) ** 2, dtype=np.complex128)
    basis_names = list(columns)
    design = np.stack([columns[name].ravel() for name in basis_names], axis=1)
    pairs = list(combinations(GENERATOR_NAMES, 2))
    rhs = np.stack(
        [commutator(gens[a], gens[b]).matrix(lmax, lpad).ravel() for a, b in pairs], axis=1
    )
    sol, *_ = np.linalg.lstsq(design, rhs, rcond=None)
    resid = np.abs(design @ sol - rhs)
    constants = {}
    for j, pair in enumerate(pairs):
        constants[pair] = {
            name: complex(sol[i, j]) for i, name in enumerate(basis_names)
        }
    return constants, float(resid.max())


def closure_check(lmax: int, residual_bound: float = 1e-10) -> BoundReport:
    """Verify the ten generators close under commutation (modulo the center).

    Structure constants are derived outputs; the report carries the non-zero
    ones (rounded) in its details, including the central identity
    coefficients of the opposite-ladder pairs.
    """
    constants, worst = derive_structure_constants(lmax)
    table = {}
    for (a, b), comb in constants.items():
        entries = {
            name: round(c.real, 12) for name, c in comb.items() if abs(c) > 1e-8
        }
        if entries:
            table[f"[{a},{b}]"] = entries
    return BoundReport(
        check="ladder_algebra_closure",
        anchor="commutators of the ten generators stay in their span plus the central unit",
        lhs=worst,
        rhs=residual_bound,
        lmax=lmax,
        details={"structure_constants": table},
    )


def so3_casimir_check(lmax: int, residual_bound: float = 1e-12) -> BoundReport:
    """``(J+J- + J-J+)/2 + M^2`` must act as ``l(l+1)`` on every basis element."""
    jp, jm, M = generator("J+"), generator("J-"), generator("M")
    cas = 0.5 * (jp * jm + jm * jp) + M * M
    mat = cas.matrix(lmax, lmax)
    ls, _ = degree_order_arrays(lmax)
    expected = np.diag((ls * (ls + 1)).astype(np.float64))
    dev = float(np.max(np.abs(mat - expected)))
    return BoundReport(
        check="so3_sub_casimir",
        anchor="(J+J- + J-J+)/2 + M^2 = l(l+1) on basis elements",
        lhs=dev,
        rhs=residual_bound,
        lmax=lmax,
    )


def boundary_vanishing_check(lmax: int) -> BoundReport:
    """Amplitudes must be exactly zero wherever the target leaves the triangle."""
    worst = 0.0
    ls, ms = degree_order_arrays(lmax)
    for name in GENERATOR_NAMES:
        for rule in generator(name).rules:
            lt = ls + rule.dl
            mt = ms + rule.dm
            invalid = (lt < 0) | (np.abs(mt) > lt)
            if invalid.any():
                amps = np.abs(rule.amplitude(ls[invalid], ms[invalid]))
                worst = max(worst, float(amps.max()))
    return BoundReport(
        check="boundary_vanishing",
        anchor="shift amplitudes vanish at out-of-triangle targets",
        lhs=worst,
        rhs=0.0,
        lmax=lmax,
    )

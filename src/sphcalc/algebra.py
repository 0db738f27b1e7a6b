"""Banded coefficient-space operators and the ten-generator ladder algebra.

Every operator is one :class:`Operator`: a name and a tuple of shift rules
``(l, m) -> (l+dl, m+dm)``.  Products, sums and scalar multiples fold into
rules (``a * b`` composes every pair, ``a + b`` joins the tuples, a scalar
scales the amplitudes), so one stencil serves ``apply``, ``matrix``, the
batched tables and the closure and sub-Casimir checks.  Those checks read
each single-shift map as its band, one coefficient per source mode: maps with
different shifts share no matrix entry, so the closure fit splits exactly by
shift and needs no matrix.

Shift amplitudes are stated on the plain-``Y`` basis; application to stored
coefficients (orthonormal basis) multiplies each transferred term by
``sqrt((2l+1)/(2l'+1))`` where ``l' = l + dl`` is the rule's net shift.  The
output ``lmax`` grows by the net band width (the largest ``dl``) instead of
dropping boundary terms, so application is exact on truncated expansions.

The domain comes from the amplitudes: a non-finite amplitude marks its source
mode as outside the domain, and any input carrying that mode (any source, for
``matrix``) raises :class:`DomainError`.
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
    """Banded linear map on expansions: a name and a tuple of shift rules."""

    def __init__(self, name: str, rules: tuple[ShiftRule, ...]):
        self.name = name
        self.rules = tuple(rules)
        self.band_growth = max([r.dl for r in self.rules] + [0])

    def apply(self, f: HarmonicExpansion) -> HarmonicExpansion:
        table, lmax = self._apply_table(f.coeffs[None, :], f.lmax)
        return HarmonicExpansion(lmax, table[0])

    def _stencil(self, lmax: int, support: np.ndarray):
        """Yield ``(src, tgt, coef)`` per rule on the flat layout at ``lmax``.

        ``coef`` carries the basis ratio of the rule's net shift.  A non-finite
        amplitude at a source flagged in ``support`` raises ``DomainError``;
        at an unflagged source it contributes nothing.
        """
        ls, ms = degree_order_arrays(lmax)
        for rule in self.rules:
            lt = ls + rule.dl
            mt = ms + rule.dm
            src = np.nonzero((lt >= 0) & (np.abs(mt) <= lt))[0]
            if src.size == 0:
                continue
            with np.errstate(divide="ignore", invalid="ignore"):
                amp = np.asarray(rule.amplitude(ls[src], ms[src]), dtype=np.complex128)
            singular = ~np.isfinite(amp)
            if singular.any():
                hit = src[singular & support[src]]
                if hit.size:
                    l, m = int(ls[hit[0]]), int(ms[hit[0]])
                    raise DomainError(f"{self.name} is undefined on the ({l},{m}) mode")
                amp[singular] = 0.0
            ratio = np.sqrt((2.0 * ls[src] + 1.0) / (2.0 * lt[src] + 1.0))
            yield src, flat_index(lt[src], mt[src]), amp * ratio

    def _apply_table(self, coeffs: np.ndarray, lmax: int):
        out_lmax = lmax + self.band_growth
        out = np.zeros((coeffs.shape[0], (out_lmax + 1) ** 2), dtype=np.complex128)
        for src, tgt, coef in self._stencil(lmax, (coeffs != 0).any(axis=0)):
            out[:, tgt] += coef[None, :] * coeffs[:, src]
        return out, out_lmax

    def matrix(self, lmax: int) -> np.ndarray:
        """Dense matrix on flat triangular layouts, columns = inputs."""
        K_in = (lmax + 1) ** 2
        out = np.zeros(((lmax + self.band_growth + 1) ** 2, K_in), dtype=np.complex128)
        for src, tgt, coef in self._stencil(lmax, np.ones(K_in, dtype=bool)):
            out[tgt, src] += coef
        return out

    def _band(self, lmax: int):
        """``(shift, column)``: the coefficient each source mode carries to its
        target, summed over the rules, which must share one shift."""
        (shift,) = {(r.dl, r.dm) for r in self.rules}
        column = np.zeros((lmax + 1) ** 2, dtype=np.complex128)
        for src, _, coef in self._stencil(lmax, np.ones(column.size, dtype=bool)):
            column[src] += coef
        return shift, column

    def __mul__(self, other):
        if isinstance(other, Operator):
            rules = tuple(_compose(a, b) for a in self.rules for b in other.rules)
            return Operator(f"({self.name} * {other.name})", rules)
        return self._scaled(complex(other))

    __rmul__ = __mul__  # only scalars reach it, and they commute

    def _scaled(self, scalar: complex) -> Operator:
        rules = tuple(
            ShiftRule(r.dl, r.dm, lambda l, m, a=r.amplitude: scalar * np.asarray(a(l, m)))
            for r in self.rules
        )
        return Operator(f"({scalar} * {self.name})", rules)

    def __add__(self, other):
        return Operator(f"({self.name} + {other.name})", self.rules + other.rules)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return self._scaled(-1.0)

    def __repr__(self):
        return f"Operator({self.name!r})"


def _compose(outer: ShiftRule, inner: ShiftRule) -> ShiftRule:
    # plain-Y amplitudes multiply (the basis ratio telescopes to the net shift);
    # the pair contributes nothing where the intermediate target leaves the
    # triangle or the inner amplitude is zero
    def amplitude(l, m):
        a = np.asarray(inner.amplitude(l, m), dtype=np.complex128)
        li = l + inner.dl
        mi = m + inner.dm
        live = (li >= 0) & (np.abs(mi) <= li) & (a != 0)
        out = np.zeros(l.shape, dtype=np.complex128)
        out[live] = a[live] * outer.amplitude(li[live], mi[live])
        return out

    return ShiftRule(inner.dl + outer.dl, inner.dm + outer.dm, amplitude)


def commutator(a: Operator, b: Operator) -> Operator:
    """Expression for ``a*b - b*a``."""
    return a * b - b * a


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


def generator(name: str) -> Operator:
    """One of the ten ladder/Cartan generators acting on coefficients."""
    if name not in _GENERATOR_RULES:
        raise KeyError(f"unknown generator {name!r}; expected one of {GENERATOR_NAMES}")
    return Operator(name, _GENERATOR_RULES[name])


def derive_structure_constants(lmax: int, include_identity: bool = True):
    """Least-squares expansion of every commutator in the generator actions.

    Returns ``(constants, max_residual)`` where ``constants[(a, b)]`` maps
    every basis-element name to the fitted coefficient of ``[a, b]``.
    Commutators are formed by ``commutator`` composition, the same path
    ``apply`` takes, and read on basis elements of degree <= ``lmax`` with
    their targets kept whole, so no truncation error enters.

    Each generator is one shift rule, so each commutator has one net shift,
    and the global fit splits exactly by shift: a commutator's band is fitted
    against the basis bands of its own shift only (at most ``L``, ``M`` and
    the unit), and every other constant is zero.

    The opposite-ladder pairs produce diagonal commutators such as
    ``[K+, K-] = -(2L + 1)``: the ten printed actions close exactly once the
    identity map (name ``"1"``) joins the regression basis, equivalently once
    the degree label carries a half-unit shift.  With ``include_identity``
    off, those central terms surface as residual instead.
    """
    if lmax < 4:
        raise ValueError("closure check needs lmax >= 4")
    gens = {name: generator(name) for name in GENERATOR_NAMES}
    bands = {name: op._band(lmax) for name, op in gens.items()}
    if include_identity:
        bands["1"] = ((0, 0), np.ones((lmax + 1) ** 2, dtype=np.complex128))
    constants, worst = {}, 0.0
    for a, b in combinations(GENERATOR_NAMES, 2):
        shift, rhs = commutator(gens[a], gens[b])._band(lmax)
        same = [name for name, (s, _) in bands.items() if s == shift]
        columns = [bands[name][1] for name in same]
        # with no same-shift column, the empty design leaves the band as residual
        design = np.column_stack(columns) if columns else np.zeros((rhs.size, 0))
        sol, *_ = np.linalg.lstsq(design, rhs, rcond=None)
        fit = dict.fromkeys(bands, 0j)
        fit.update(zip(same, sol.tolist()))
        constants[(a, b)] = fit
        worst = max(worst, float(np.abs(design @ sol - rhs).max()))
    return constants, worst


def closure_check(lmax: int) -> BoundReport:
    """Verify the ten generators close under commutation (modulo the center).

    The fit residual must stay below 1e-10.  Structure constants are derived
    outputs; the report carries the non-zero ones (rounded) in its details,
    including the central identity coefficients of the opposite-ladder pairs.
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
        rhs=1e-10,
        lmax=lmax,
        details={"structure_constants": table},
    )


def so3_casimir_check(lmax: int) -> BoundReport:
    """``(J+J- + J-J+)/2 + M^2`` must act as ``l(l+1)``, to 1e-12, on every basis element."""
    jp, jm, M = generator("J+"), generator("J-"), generator("M")
    cas = 0.5 * (jp * jm + jm * jp) + M * M
    _, column = cas._band(lmax)
    ls, _ = degree_order_arrays(lmax)
    dev = float(np.max(np.abs(column - ls * (ls + 1.0))))
    return BoundReport(
        check="so3_sub_casimir",
        anchor="(J+J- + J-J+)/2 + M^2 = l(l+1) on basis elements",
        lhs=dev,
        rhs=1e-12,
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

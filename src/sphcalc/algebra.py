"""Banded coefficient-space operators and the ten-generator ladder algebra.

Every operator is one :class:`Operator`: a name and, per input degree, one
plain-``Y`` amplitude column per shift ``(l, m) -> (l+dl, m+dm)``, computed
once.  A product composes columns, a sum adds same-shift columns and a scalar
scales them, so ``cosTheta`` to the k-th power holds k + 1 columns.  One
stencil serves ``apply``, ``matrix``, the batched tables and the closure and
sub-Casimir checks.  Those checks read each single-shift map as its band, one
coefficient per source mode: maps with different shifts share no matrix
entry, so the closure fit splits exactly by shift and needs no matrix.

Shift amplitudes are stated on the plain-``Y`` basis; application to stored
coefficients (orthonormal basis) multiplies each transferred term by
``sqrt((2l+1)/(2l'+1))`` where ``l' = l + dl`` is the column's net shift.  The
output ``lmax`` grows by the net band width (the largest ``dl``) instead of
dropping boundary terms, so application is exact on truncated expansions.

The domain comes from the amplitudes: a non-finite amplitude marks its source
mode as outside the domain, and any input carrying that mode (any source, for
``matrix``) raises :class:`DomainError`; an overflowing one, ``OverflowError``.
"""

from __future__ import annotations

from functools import partial
from itertools import combinations

import numpy as np

from .expansions import HarmonicExpansion, as_degree, degree_order_arrays, flat_index
from .report import BoundReport


class DomainError(ValueError):
    """Operand outside an operator's admissible domain."""


class Operator:
    """Banded linear map: a name and, per input degree, one amplitude column per shift.

    ``amplitudes`` maps each shift ``(dl, dm)`` to its plain-``Y`` amplitude ``f(l, m)``.
    """

    def __init__(self, name: str, amplitudes: dict):
        self.name = name
        self.shifts = tuple(amplitudes)
        self.band_growth = max([dl for dl, _ in self.shifts] + [0])
        # columns at degree d: _combine(d, *(op._columns(d + extra) for op, extra in _operands))
        self._operands = ()
        self._combine = partial(_evaluate, amplitudes)
        self._cache = {}

    def apply(self, f: HarmonicExpansion) -> HarmonicExpansion:
        table, lmax = self._apply_table(f.coeffs[None, :], f.lmax)
        return HarmonicExpansion(lmax, table[0])

    def _columns(self, lmax: int) -> dict:
        """``{(dl, dm): column}``: each source mode's plain-``Y`` amplitude at ``lmax``."""
        if lmax not in self._cache:
            parts = []
            for op, extra in self._operands:  # a loop, not a comprehension: one frame per factor
                parts.append(op._columns(lmax + extra))
            with _overflow(f"an amplitude of {self.name} overflows", divide="ignore", invalid="ignore"):
                columns = self._combine(lmax, *parts)
            for column in columns.values():  # never written once stored: threads share them
                column.flags.writeable = False
            self._cache[lmax] = columns
        return self._cache[lmax]

    def _stencil(self, lmax: int, support: np.ndarray):
        """``(src, tgt, coef)`` per column on the flat layout at ``lmax``.

        Only the sources flagged in ``support`` get entries.  ``coef``
        carries the basis ratio of the column's net shift; a non-finite
        amplitude at a flagged source raises ``DomainError``.
        """
        ls, ms = degree_order_arrays(lmax)
        stencil = []
        with _overflow(f"an amplitude of {self.name} overflows"):
            for (dl, dm), column in self._columns(lmax).items():
                lt, mt = ls + dl, ms + dm
                src = np.nonzero(support & (lt >= 0) & (np.abs(mt) <= lt))[0]
                amp = column[src]
                hit = src[~np.isfinite(amp)]
                if hit.size:
                    raise DomainError(f"{self.name} is undefined on the ({ls[hit[0]]},{ms[hit[0]]}) mode")
                ratio = np.sqrt((2.0 * ls[src] + 1.0) / (2.0 * lt[src] + 1.0))
                stencil.append((src, flat_index(lt[src], mt[src]), amp * ratio))
        return stencil

    def _apply_table(self, coeffs: np.ndarray, lmax: int):
        out_lmax = lmax + self.band_growth
        out = np.zeros((coeffs.shape[0], (out_lmax + 1) ** 2), dtype=np.complex128)
        stencil = self._stencil(lmax, (coeffs != 0).any(axis=0))
        with _overflow(f"{self.name} overflows on this input"):
            for src, tgt, coef in stencil:
                out[:, tgt] += coef[None, :] * coeffs[:, src]
        return out, out_lmax

    def matrix(self, lmax: int) -> np.ndarray:
        """Dense matrix on flat triangular layouts, columns = inputs."""
        K = degree_order_arrays(lmax)[0].size  # checks the degree before numpy sees it
        out = np.zeros(((lmax + self.band_growth + 1) ** 2, K), dtype=np.complex128)
        for src, tgt, coef in self._stencil(lmax, np.ones(K, dtype=bool)):
            out[tgt, src] += coef
        return out

    def _band(self, lmax: int):
        """``(shift, column)``: each source mode's coefficient, for a map with one shift."""
        column = np.zeros(degree_order_arrays(lmax)[0].size, dtype=np.complex128)
        ((src, _, coef),) = self._stencil(lmax, np.ones(column.size, dtype=bool))
        column[src] = coef
        return self.shifts[0], column

    def __mul__(self, other):
        if isinstance(other, Operator):
            shifts = [(dl + odl, dm + odm) for odl, odm in other.shifts for dl, dm in self.shifts]
            # the outer map reads the intermediate modes, up to other.band_growth higher
            return _derived(f"({self.name} * {other.name})", shifts,
                            ((self, other.band_growth), (other, 0)), _product)
        scalar = complex(other)
        return _derived(f"({scalar} * {self.name})", self.shifts, ((self, 0),),
                        lambda lmax, a: {s: scalar * c for s, c in a.items()})

    __rmul__ = __mul__  # only scalars reach it, and they commute

    def __add__(self, other):
        return _derived(f"({self.name} + {other.name})", self.shifts + other.shifts,
                        ((self, 0), (other, 0)), lambda lmax, a, b: _merge([*a.items(), *b.items()]))

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return -1.0 * self

    def __repr__(self):
        return f"Operator({self.name!r})"


class _overflow(np.errstate):
    """``np.errstate`` that raises ``OverflowError(message)`` where numpy would
    warn of an overflow; other error settings pass through."""

    def __init__(self, message: str, **settings):
        super().__init__(over="raise", **settings)
        self.message = message

    def __exit__(self, kind, value, traceback):
        super().__exit__(kind, value, traceback)
        if kind is FloatingPointError:
            raise OverflowError(self.message) from None


def _derived(name, shifts, operands, combine) -> Operator:
    op = Operator(name, dict.fromkeys(shifts))
    op._operands, op._combine = operands, combine
    return op


def _evaluate(amplitudes, lmax):
    ls, ms = degree_order_arrays(lmax)
    return {s: np.asarray(amp(ls, ms), dtype=np.complex128) for s, amp in amplitudes.items()}


def _merge(terms) -> dict:
    out = {}
    for shift, column in terms:
        out[shift] = out[shift] + column if shift in out else column
    return out


def _product(lmax, outer, inner):
    # plain-Y amplitudes multiply (the basis ratio telescopes to the net shift);
    # a pair contributes nothing where the intermediate mode leaves the
    # triangle or the inner amplitude is zero
    ls, ms = degree_order_arrays(lmax)
    terms = []
    for (dl, dm), a in inner.items():
        li, mi = ls + dl, ms + dm
        live = np.nonzero((li >= 0) & (np.abs(mi) <= li) & (a != 0))[0]
        mid = flat_index(li[live], mi[live])
        for (odl, odm), b in outer.items():
            column = np.zeros(ls.size, dtype=np.complex128)
            column[live] = a[live] * b[mid]
            terms.append(((dl + odl, dm + odm), column))
    return _merge(terms)


def commutator(a: Operator, b: Operator) -> Operator:
    """Expression for ``a*b - b*a``, named ``[a,b]``."""
    op = a * b - b * a
    op.name = f"[{a.name},{b.name}]"  # the expanded name doubles with each nesting level
    return op


def _sq(expr) -> np.ndarray:
    # amplitudes are sqrt of integer products that are >= 0 on valid targets;
    # clip shields the exact-zero boundary cases from roundoff sign flips
    return np.sqrt(np.clip(np.asarray(expr, dtype=np.float64), 0.0, None))


_GENERATOR_AMPLITUDES = {
    "L": {(0, 0): lambda l, m: np.asarray(l, dtype=np.float64)},
    "M": {(0, 0): lambda l, m: np.asarray(m, dtype=np.float64)},
    "J+": {(0, +1): lambda l, m: _sq((l - m) * (l + m + 1))},
    "J-": {(0, -1): lambda l, m: _sq((l + m) * (l - m + 1))},
    "K+": {(+1, 0): lambda l, m: _sq((l + 1) ** 2 - m * m)},
    "K-": {(-1, 0): lambda l, m: _sq(l * l - m * m)},
    "R+": {(+1, +1): lambda l, m: _sq((l + m + 2) * (l + m + 1))},
    "R-": {(-1, -1): lambda l, m: _sq((l + m) * (l + m - 1))},
    "S+": {(+1, -1): lambda l, m: _sq((l - m + 2) * (l - m + 1))},
    "S-": {(-1, +1): lambda l, m: _sq((l - m) * (l - m - 1))},
}
GENERATOR_NAMES = tuple(_GENERATOR_AMPLITUDES)


def generator(name: str) -> Operator:
    """One of the ten ladder/Cartan generators acting on coefficients."""
    if name not in _GENERATOR_AMPLITUDES:
        raise KeyError(f"unknown generator {name!r}; expected one of {GENERATOR_NAMES}")
    return Operator(name, _GENERATOR_AMPLITUDES[name])


def derive_structure_constants(lmax: int):
    """Least-squares expansion of every commutator in the generator actions and the unit.

    Returns ``(constants, max_residual)`` where ``constants[(a, b)]`` maps
    every basis-element name to the fitted coefficient of ``[a, b]``.
    Commutators are formed by ``commutator`` composition, the same path
    ``apply`` takes, and read on basis elements of degree <= ``lmax`` with
    their targets kept whole, so no truncation error enters.

    Each generator has one shift, so each commutator has one net shift,
    and the global fit splits exactly by shift: a commutator's band is fitted
    against the basis bands of its own shift only (at most ``L``, ``M`` and
    the unit), and every other constant is zero.

    The opposite-ladder pairs produce diagonal commutators such as
    ``[K+, K-] = -(2L + 1)``: the ten printed actions close exactly once the
    identity map (name ``"1"``) joins the basis, equivalently once the degree
    label carries a half-unit shift.  The unit is therefore always a basis
    column, and those central terms are its ``"1"`` coefficients.
    """
    if as_degree(lmax) < 4:
        raise ValueError("closure check needs lmax >= 4")
    gens = {name: generator(name) for name in GENERATOR_NAMES}
    bands = {name: op._band(lmax) for name, op in gens.items()}
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
    lmax = as_degree(lmax)
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
    lmax = as_degree(lmax)
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
    lmax = as_degree(lmax)
    worst = 0.0
    ls, ms = degree_order_arrays(lmax)
    for name in GENERATOR_NAMES:
        for (dl, dm), column in generator(name)._columns(lmax).items():
            lt, mt = ls + dl, ms + dm
            invalid = (lt < 0) | (np.abs(mt) > lt)
            worst = max(worst, float(np.abs(column[invalid]).max(initial=0.0)))
    return BoundReport(
        check="boundary_vanishing",
        anchor="shift amplitudes vanish at out-of-triangle targets",
        lhs=worst,
        rhs=0.0,
        lmax=lmax,
    )

"""Verification suites: each checks claims of the paper numerically, as records.

A suite takes ``(lmax, trials, seed)`` and returns ``BoundReport`` records.
``verify --suite all`` runs the suites in ``SUITES`` order.  Every trial is
drawn from a ``(seed, ...)`` substream, never from shared state, so a suite's
records do not depend on which suites ran before it, and the same seed gives
a byte-identical report.
"""

from __future__ import annotations

import math

import numpy as np

from . import algebra, legendre, transform
from . import bounds as bnd
from . import structural as st
from .algebra import DomainError, boundary_vanishing_check, generator, so3_casimir_check
from .expansions import (
    HarmonicExpansion, SpherePoint, at_least, degree_order_arrays, flat_index, graded_norms, hilbert_norm,
)
from .legendre import orthonormal_sh_values, uniform_bound_check
from .report import BoundReport
from .transform import (
    SampledField, _analyze_table, _synthesize_table, make_grid, orthonormality_check,
    quadrature_inner_product,
)

# closure_check and analyze are looked up on their modules at each call:
# perfbench/spans.py patches the names bound in the layer modules and in cli,
# and this module is neither, so a name bound here would escape its span

_TRIAL_BLOCK = 64
_POINT_BLOCK = 8  # bounds-suite functions whose point values are gathered at once from its one table


def suite_transforms(lmax: int, trials: int, seed: int) -> list[BoundReport]:
    trials = at_least(trials, "trials", 1)  # no trial would report round_trip and parseval as passed
    reports = [uniform_bound_check(min(lmax, 64))]
    reports.append(orthonormality_check(lmax))
    grid = make_grid(lmax)
    # trials pass through synthesis and analysis in fixed blocks, so memory
    # does not grow with --trials; the worst cases are maxima over blocks
    worst_rt = worst_pv = 0.0
    for start in range(0, trials, _TRIAL_BLOCK):
        seeds = [(seed, t) for t in range(start, min(start + _TRIAL_BLOCK, trials))]
        rows = bnd._random_rows(seeds, lmax, decay=2.0)
        samples = _synthesize_table(rows, grid)
        rt = np.max(np.abs(_analyze_table(samples, grid, lmax) - rows))
        fields = [SampledField(grid, s) for s in samples]
        quad = np.array([quadrature_inner_product(f, f).real for f in fields])
        coeff = graded_norms(rows, lmax, 0) ** 2
        worst_rt = max(worst_rt, float(rt))
        worst_pv = max(worst_pv, float(np.max(np.abs(quad - coeff) / coeff)))
    reports.append(
        BoundReport(
            check="round_trip",
            anchor="analyze(synthesize(f)) = f on band-limited expansions",
            lhs=worst_rt, rhs=1e-12, seed=seed, lmax=lmax,
            details={"trials": trials},
        )
    )
    reports.append(
        BoundReport(
            check="parseval",
            anchor="sum |f_lm|^2 = integral of |f|^2 over the sphere",
            lhs=worst_pv, rhs=1e-10, seed=seed, lmax=lmax,
            details={"trials": trials},
        )
    )
    # real samples must produce coefficients with c_{l,-m} = (-1)^m conj(c_{l,m})
    rng = bnd.substream(seed, "real")
    field = SampledField(grid, rng.standard_normal((grid.n_theta, grid.n_phi)) + 0j)
    c = transform.analyze(field, lmax)
    ls, ms = degree_order_arrays(lmax)
    mirrored = ((-1.0) ** ms) * np.conj(c.coeffs[flat_index(ls, -ms)])  # flat_index(ls, ms) is the identity
    reports.append(
        BoundReport(
            check="real_field_symmetry",
            anchor="real samples give c_{l,-m} = (-1)^m conj(c_{l,m})",
            lhs=float(np.max(np.abs(c.coeffs - mirrored))),
            rhs=1e-12, seed=seed, lmax=lmax,
        )
    )
    return reports


def suite_algebra(lmax: int, trials: int, seed: int) -> list[BoundReport]:
    lmax = min(max(lmax, 4), 16)
    return [
        algebra.closure_check(lmax),
        so3_casimir_check(lmax),
        boundary_vanishing_check(max(lmax, 8)),
    ]


def suite_structural(lmax: int, trials: int, seed: int) -> list[BoundReport]:
    lmax = min(lmax, 32)
    reports = []
    f = bnd.random_expansion((seed, "oracle"), lmax, decay=2.0)
    cases = [
        ("cosTheta", st.cos_theta_op(), lambda t, p: np.cos(t)),
        ("sinExp+", st.sin_exp_op(+1), lambda t, p: np.sin(t) * np.exp(1j * p)),
        ("sinExp-", st.sin_exp_op(-1), lambda t, p: np.sin(t) * np.exp(-1j * p)),
    ]
    grid = make_grid(lmax + 2)  # exact for all three products, each of degree lmax + 1
    for name, op, mult in cases:
        banded = op.apply(f)
        oracle = st.pointwise_multiply_oracle(f, mult, banded.lmax, grid)
        dev = float(np.max(np.abs(banded.coeffs - oracle.coeffs)))
        reports.append(
            BoundReport(
                check=f"{name}_vs_oracle",
                anchor=f"banded {name} map equals pointwise multiplication",
                lhs=dev, rhs=1e-10, seed=seed, lmax=lmax,
            )
        )
    # cos^2 + sin(theta)e^{i phi} * sin(theta)e^{-i phi} = 1 as banded maps
    ident = st.cos_theta_op() * st.cos_theta_op() + st.sin_exp_op(+1) * st.sin_exp_op(-1)
    g = ident.apply(f)
    dev = float(np.max(np.abs(g.coeffs - f.with_lmax(g.lmax).coeffs)))
    reports.append(
        BoundReport(
            check="cos2_plus_sin2",
            anchor="cos^2 + sin e^{i phi} sin e^{-i phi} = identity",
            lhs=dev, rhs=1e-10, seed=seed, lmax=lmax,
        )
    )
    # -i * dPhi equals M exactly on coefficients
    dev = float(
        np.max(np.abs(((-1j) * st.dphi_op()).matrix(8) - generator("M").matrix(8)))
    )
    reports.append(
        BoundReport(
            check="dphi_is_iM",
            anchor="-i d/dphi = M on coefficients",
            lhs=dev, rhs=0.0, seed=seed, lmax=8,
        )
    )
    reports.append(dtheta_identity_order_report(seed))
    reports.append(product_law_report(min(lmax, 6)))
    # order-0 selection rule: coupling <1 0 l 0 | l 0> vanishes identically
    sel = max(abs(st.clebsch_gordan(1, 0, l, 0, l, 0)) for l in range(1, 13))
    reports.append(
        BoundReport(
            check="product_selection_rule",
            anchor="<1 0 l 0|l 0> = 0 kills the L = l coupling",
            lhs=sel, rhs=0.0,
        )
    )
    reports.append(inv_sin_domain_report())
    reports.append(exp_iphi_gap_report(seed))
    return reports


def dtheta_identity_order_report(seed: int) -> BoundReport:
    """Measured convergence order of the FD check of the derivative identity."""
    rng = bnd.substream(seed, "dtheta")
    pts = [(float(rng.uniform(0.6, math.pi - 0.6)), float(rng.uniform(0, 2 * math.pi)))
           for _ in range(6)]
    theta, phi = np.array(pts).T
    # one table of every Y_l^m at theta, then theta + h and theta - h for each step h
    shifts = [0.0, 4e-3, -4e-3, 2e-3, -2e-3]
    x = np.cos(theta[:, None] + np.array(shifts)).ravel()
    y = orthonormal_sh_values(9, x, np.repeat(phi, 5)).reshape(6, 5, -1)
    y = y / np.sqrt(degree_order_arrays(9)[0] + 0.5)
    # the literal map's columns, m-1 then m+1; each shifted term regains its exp(-i*dm*phi)
    columns = st.dtheta_op_literal()._columns(9)
    orders = []
    for l, m in [(2, 1), (5, -3), (7, 0), (9, 6)]:
        exact = sum(
            column[flat_index(l, m)] * np.exp(-1j * dm * phi) * y[:, 0, flat_index(l, m + dm)]
            for (_, dm), column in columns.items() if abs(m + dm) <= l
        )
        k = flat_index(l, m)
        errs = [
            float(np.max(np.abs((y[:, 2 * j + 1, k] - y[:, 2 * j + 2, k]) / (2 * h) - exact)))
            for j, h in enumerate(shifts[1::2])
        ]
        orders.append(math.log2(errs[0] / errs[1]))
    dev = max(abs(o - 2.0) for o in orders)
    return BoundReport(
        check="dtheta_identity_fd_order",
        anchor="d/dtheta Y_l^m = -(1/2)[a- e^{i phi} Y_l^{m-1} - a+ e^{-i phi} Y_l^{m+1}]",
        lhs=dev, rhs=0.2, seed=seed,
        details={"orders": [round(o, 3) for o in orders]},
    )


def _product_quadrature(lcap: int):
    """Per first harmonic up to ``lcap``, the complex block ``(second, out)``
    of quadratures of first times second harmonic, each over ``sqrt(l + 1/2)``,
    against every out harmonic up to ``2*lcap`` on ``make_grid(2*lcap)``.

    Each entry is the Gauss-Legendre sum over every node of the three real
    theta factors times ``SphereGrid.phi_sums`` at ``d = m1 + m2 - M``, so
    entries off ``M = m1 + m2`` are formed too.
    """
    grid = make_grid(2 * lcap)
    ls, ms = degree_order_arrays(lcap)
    _, out_ms = degree_order_arrays(2 * lcap)
    # T[k, n]: the real theta factor of harmonic n at Gauss node k
    T = orthonormal_sh_values(2 * lcap, grid.x, 0.0).real
    y = T[:, :ls.size] / np.sqrt(ls + 0.5)
    wT = grid.w[:, None] * T
    phi_sum = grid.phi_sums(4 * lcap)
    shift = ms[:, None] - out_ms[None, :] + 4 * lcap  # m2 - M, offset into phi_sum
    for i in range(ls.size):
        yield ((y[:, i, None] * y).T @ wT) * phi_sum[ms[i] + shift]


def product_law_report(lcap: int) -> BoundReport:
    """Banded coupling product against quadrature of the pointwise product.

    Every (first, second, out) entry of ``_product_quadrature``, first and
    second harmonics up to ``lcap``, is compared where the out degree is at
    most ``l1 + l2`` with the coupling weight ``sh_product`` places there,
    zero off the coupled entries, so a coupling at a wrong degree or order
    shows.  The weights are evaluated once for all pairs; the quadrature is
    formed one first harmonic at a time, with no sample table or transform.
    """
    ls, ms = degree_order_arrays(lcap)
    out_ls, _ = degree_order_arrays(2 * lcap)
    # the (first, second, L) entries sh_product fills, first harmonic slowest:
    # |M| <= L inside the triangle, with l1 + l2 + L even (else parity kills it)
    l1, m1 = ls[:, None, None], ms[:, None, None]
    l2, m2 = ls[None, :, None], ms[None, :, None]
    degs = np.arange(2 * lcap + 1)
    first, second, L = np.nonzero(
        (np.abs(m1 + m2) <= degs) & (np.abs(l1 - l2) <= degs) & (degs <= l1 + l2)
        & ((l1 + l2 + degs) % 2 == 0)
    )
    weights = st.product_weights(ls[first], ms[first], ls[second], ms[second], L)
    targets = flat_index(L, ms[first] + ms[second])
    starts = np.searchsorted(first, np.arange(ls.size + 1))
    worst = 0.0
    for i, diff in enumerate(_product_quadrature(lcap)):
        sel = slice(starts[i], starts[i + 1])
        diff[second[sel], targets[sel]] -= weights[sel]
        compared = out_ls[None, :] <= ls[i] + ls[:, None]
        worst = max(worst, float(np.max(np.abs(diff[compared]))))
    return BoundReport(
        check="product_law",
        anchor="Y1*Y2 = (2*pi)^(-1/2) sum of coupled harmonics",
        lhs=worst, rhs=1e-9, lmax=lcap,
    )


def inv_sin_domain_report() -> BoundReport:
    lmax = 6
    f = HarmonicExpansion.unit(2, 0, lmax)
    try:
        st.inv_sin_op_literal().apply(f)
    except DomainError:
        rejected = True
    else:
        rejected = False
    return BoundReport(
        check="inv_sin_domain",
        anchor="1/sin map rejects expansions with m = 0 support",
        lhs=0.0 if rejected else 1.0,
        rhs=0.0,
        lmax=lmax,
    )


def _exp_iphi_projection(f: HarmonicExpansion, top: int, intervals: int) -> np.ndarray:
    """Flat coefficients up to degree ``top`` of ``exp(i*phi) * f``, exact, on no grid.

    ``exp(i*phi)`` moves order ``m`` to ``m + 1`` only, and the theta integrand of
    ``<e_{L,m+1}, exp(i*phi) e_{l,m}> = 2*pi * int_0^pi N_L^{m+1} N_l^m sin(theta) dtheta``
    is an even trigonometric polynomial of degree at most ``L + l + 1``, which the
    trapezoid rule on ``[0, pi]`` integrates exactly once ``intervals`` exceeds
    half that degree.  It vanishes at both ends, so only interior nodes are summed.
    """
    theta = np.arange(1, intervals) * (math.pi / intervals)
    T = orthonormal_sh_values(top, np.cos(theta), 0.0).real  # signed N at each node, by flat index
    ms, K = degree_order_arrays(top)[1], f.coeffs.size
    # parts[j, M + top]: f's order-(M - 1) part at node j, for every M = -top..top
    parts = (T[:, :K] * f.coeffs) @ (ms[:K, None] == np.arange(-top - 1, top))
    weights = 2 * math.pi * math.pi / intervals * np.sin(theta)
    return np.einsum("jk,jk->k", T * weights[:, None], parts[:, ms + top])


def exp_iphi_gap_report(seed: int) -> BoundReport:
    """Scan of the formal-vs-pointwise gap for the phase-multiplication map.

    Informational: pointwise ``exp(i*phi) * f`` is not band-limited, so the
    truncation tail at ``lmax + 1 + delta`` (lmax 8) is measured and reported,
    never asserted.  Tails and coefficient gap are exact, read from one
    ``_exp_iphi_projection`` up to the top cap: no grid and no transform.
    """
    lmax = 8
    seeds = [(seed, "expiphi")] + [(seed, "expiphi", t) for t in range(16)]
    rows = bnd._random_rows(seeds, lmax, decay=3.0)
    # zero the m = -1 column so the composite's domain condition holds
    rows[:, degree_order_arrays(lmax)[1] == -1] = 0.0
    f = HarmonicExpansion(lmax, rows[0])
    total = hilbert_norm(f) ** 2
    # row 0 is f's image; rows 1-16 give the amplification |C g|_n / |g|_{n+2}, not asserted
    out, out_lmax = st.exp_iphi_composite()._apply_table(rows, lmax)
    composite = HarmonicExpansion(out_lmax, out[0])
    ratios = np.max(graded_norms(out[1:], out_lmax, (0, 1, 2, 3)) / graded_norms(rows[1:], lmax, (2, 3, 4, 5)), axis=0)
    deltas = list(range(0, 7))
    # the product projected up to the top cap; the tail at each cap lmax + 1 + delta
    # is what lies past the cap's leading block, and the cap composite.lmax is the gap's
    top = lmax + 1 + deltas[-1]
    exact = _exp_iphi_projection(f, top, (top + lmax + 1) // 2 + 1)
    tails = [float(math.sqrt(max(total - graded_norms(exact[:(cap + 1) ** 2], cap, 0) ** 2, 0.0)))
             for cap in range(lmax + 1, top + 1)]
    coeff_gap = float(np.max(np.abs(exact[:composite.coeffs.size] - composite.coeffs)))
    return BoundReport(
        check="exp_iphi_formal_gap",
        anchor="formal (1/sin) o (sin e^{i phi}) vs pointwise e^{i phi} multiplication",
        lhs=coeff_gap,
        rhs=float("nan"),
        seed=seed,
        lmax=lmax,
        informational=True,
        details={
            "truncation_delta": deltas,
            "truncation_tail": [round(t, 12) for t in tails],
            "banded_vs_pointwise_coeff_gap": coeff_gap,
            "norm_ratio_to_order_plus_2": {str(n): round(float(r), 6) for n, r in enumerate(ratios)},
        },
    )


def suite_bounds(lmax: int, trials: int, seed: int) -> list[BoundReport]:
    lmax = min(lmax, 16)
    # the functions are the falsifier's smooth draws (seed, t), drawn once for both
    n_funcs = max(4, min(trials, 100))
    reports, rows = bnd._criterion_checks(tuple(bnd._CLAIMS), trials, seed, lmax, n_funcs)
    # each function is certified at its own ten points, all in one table gathered _POINT_BLOCK
    # functions at a time; the worst pair is certified again alone, so its record has one-point bits
    draws = bnd.substream(seed, "points").uniform([-1, 0], [1, 2 * math.pi], size=(n_funcs, 10, 2))
    theta, phi = np.arccos(draws[..., 0]), draws[..., 1]
    x = np.cos(theta)
    N = legendre.orthonormal_legendre_table(lmax, x.ravel())  # on the module: --trace sees it
    values = np.empty((n_funcs, 10), dtype=np.complex128)
    for start in range(0, n_funcs, _POINT_BLOCK):
        at = slice(start, start + _POINT_BLOCK)
        E = legendre._table_values(lmax, N[:, 10 * start:10 * at.stop], phi[at].ravel()).reshape(-1, 10, rows.shape[1])
        values[at] = np.einsum("tpk,tk->tp", E, rows[at])
    margins = bnd.functional_constant(3) * graded_norms(rows, lmax, 3)[:, None] - np.abs(values)
    # the weak eigenrelation at each function's last point, screened from one
    # image table: a pair off by half its tolerance is certified again alone,
    # and its one-point record is kept if it fails
    image, image_lmax = st.cos_theta_op()._apply_table(rows, lmax)
    lhs = np.einsum("tk,tk->t", orthonormal_sh_values(image_lmax, x[:, -1], phi[:, -1]), image)
    rhs = x[:, -1] * values[:, -1]
    scale = np.maximum(np.maximum(np.abs(lhs), np.abs(rhs)), 1e-300)
    for t in np.flatnonzero(np.abs(lhs - rhs) > 0.5 * bnd.WEAK_EIGEN_TOL * scale).tolist():
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


def suite_pde(lmax: int, trials: int, seed: int) -> list[BoundReport]:
    lmax = min(lmax, 8)
    reports = []
    # the order records read l = 2 even at lmax 1
    top = max(lmax, 2)
    worst = float(np.max(st.pde_residual(top, 1e-3)[: (lmax + 1) ** 2]))
    r1, r2 = st.pde_residual(top, 4e-3), st.pde_residual(top, 2e-3)
    orders = {}
    for l in (2, min(5, lmax), lmax):
        m = min(1, l)
        k = flat_index(l, m)
        if r1[k] > 0 and r2[k] > 0:
            orders[f"l={l},m={m}"] = round(math.log2(r1[k] / r2[k]), 3)
    reports.append(
        BoundReport(
            check="laplacian_annihilation",
            anchor="(Lap_S2 + l(l+1)) Y_l^m = 0, FD residual at h = 1e-3",
            lhs=worst, rhs=1e-4, lmax=lmax,
            details={"convergence_orders": orders},
        )
    )
    order_dev = max(abs(o - 2.0) for o in orders.values()) if orders else float("nan")
    reports.append(
        BoundReport(
            check="laplacian_fd_order",
            anchor="central differences converge at order 2",
            lhs=order_dev, rhs=0.35, lmax=lmax,
            details={"convergence_orders": orders},
        )
    )
    return reports


SUITES = {
    "transforms": suite_transforms,
    "algebra": suite_algebra,
    "structural": suite_structural,
    "bounds": suite_bounds,
    "pde": suite_pde,
}

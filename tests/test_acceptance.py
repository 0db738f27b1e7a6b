"""Acceptance suite: every shipped guarantee at its contractual tolerance.

Each test prints one PASS/FAIL line (run ``pytest tests/test_acceptance.py -v -s``
to see them inline).  Tolerances are pinned here, not configurable.
"""

import math
import time

import numpy as np

from sphcalc import (
    DomainError,
    HarmonicExpansion,
    analyze,
    clebsch_gordan,
    cos_theta_op,
    derive_structure_constants,
    functional_constant,
    graded_norm,
    hilbert_norm,
    inv_sin_op_literal,
    make_grid,
    orthonormal_sh_values,
    orthonormality_check,
    pde_residual,
    pointwise_multiply_oracle,
    quadrature_inner_product,
    sh_eval,
    sin_exp_op,
    so3_casimir_check,
    synthesize,
    uniform_bound_check,
)
from sphcalc.bounds import (
    claim_margins,
    continuity_criterion_check,
    random_expansion,
    substream,
)
from sphcalc.expansions import degree_order_arrays, flat_index
from sphcalc.verify import exp_iphi_gap_report, product_law_report

SEED = 42


def verdict(number: int, ok: bool, text: str) -> None:
    print(f"\n{'PASS' if ok else 'FAIL'}  criterion {number:02d}: {text}")
    assert ok, f"criterion {number:02d}: {text}"


def test_criterion_01_orthonormality():
    t0 = time.perf_counter()
    report = orthonormality_check(32)
    elapsed = time.perf_counter() - t0
    ok = report.lhs <= 1e-10 and elapsed <= 60.0
    verdict(1, ok, f"Gram deviation {report.lhs:.3e} <= 1e-10 at lmax=32 ({elapsed:.2f}s)")


def test_criterion_02_round_trip():
    t0 = time.perf_counter()
    worst = 0.0
    grid = make_grid(64)
    for t in range(5):
        f = random_expansion((SEED, t), 64, decay=2.0)
        back = analyze(synthesize(f, grid), 64)
        worst = max(worst, float(np.max(np.abs(back.coeffs - f.coeffs))))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and elapsed <= 30.0
    verdict(2, ok, f"round-trip deviation {worst:.3e} <= 1e-12 at lmax=64 ({elapsed:.2f}s)")


def test_criterion_03_parseval():
    grid = make_grid(32)
    worst = 0.0
    for t in range(100):
        f = random_expansion((SEED, "parseval", t), 32, decay=2.0)
        field = synthesize(f, grid)
        quad = quadrature_inner_product(field, field).real
        coeff = hilbert_norm(f) ** 2
        worst = max(worst, abs(quad - coeff) / coeff)
    ok = worst <= 1e-10
    verdict(3, ok, f"Parseval relative deviation {worst:.3e} <= 1e-10 over 100 expansions")


def test_criterion_04_uniform_bound():
    report = uniform_bound_check(64)
    ok = report.lhs <= 1 / math.sqrt(2 * math.pi) + 1e-12
    verdict(4, ok, f"sup |Y_l^m| = {report.lhs:.12f} <= 1/sqrt(2*pi) + 1e-12, l <= 64")


def test_criterion_05_ladder_closure():
    constants, resid = derive_structure_constants(16)

    def coeff(a, b, name):
        return constants[(a, b)][name].real

    named = [
        abs(coeff("M", "J+", "J+") - 1.0),
        abs(coeff("M", "J-", "J-") + 1.0),
        abs(coeff("L", "K+", "K+") - 1.0),
        abs(coeff("L", "K-", "K-") + 1.0),
        abs(coeff("J+", "J-", "M") - 2.0),
    ]
    ok = resid <= 1e-10 and max(named) <= 1e-12
    verdict(
        5,
        ok,
        f"closure residual {resid:.3e} <= 1e-10 (45 pairs, l <= 16); "
        f"named constants off by {max(named):.2e} <= 1e-12",
    )


def test_criterion_06_so3_casimir():
    report = so3_casimir_check(16)
    ok = report.lhs <= 1e-12
    verdict(6, ok, f"(J+J- + J-J+)/2 + M^2 - l(l+1) deviation {report.lhs:.3e} <= 1e-12, l <= 16")


def test_criterion_07_continuity_bounds():
    trials = 10_000
    results = {}
    sweeps = {}
    for name in ("K+", "L", "cosTheta", "dThetaLit"):
        report = continuity_criterion_check(name, trials=trials, seed=SEED, lmax=10)
        results[name] = report.margin
        # every unit mode of degree <= 48: the identity block in slices of 64 rows
        K = 49**2
        sides = [claim_margins(name, np.eye(min(64, K - a), K, a, dtype=np.complex128), 48) for a in range(0, K, 64)]
        sweeps[name] = min(float(np.min(rhs - lhs)) for lhs, rhs in sides)
    ok = all(m >= 0.0 for m in results.values()) and all(m >= 0.0 for m in sweeps.values())
    summary = ", ".join(f"{k}: {v:.3e}" for k, v in results.items())
    verdict(
        7,
        ok,
        f"worst margins over {trials} trials each, high-degree single-mode probes "
        f"included, >= 0  ({summary}); "
        f"exhaustive single modes l <= 48 also all >= 0",
    )


def test_criterion_08_point_functional_and_weak_eigen():
    c3 = functional_constant(3)
    lmax = 12
    rng = substream(SEED, "pts")
    points = [
        (float(np.arccos(rng.uniform(-1, 1))), float(rng.uniform(0, 2 * math.pi)))
        for _ in range(100)
    ]
    theta, phi = np.array(points).T
    E = orthonormal_sh_values(lmax, np.cos(theta), phi)
    B = np.stack([random_expansion((SEED, t), lmax).coeffs for t in range(100)])
    values = E @ B.T  # [point, function]
    norms3 = np.array([graded_norm(HarmonicExpansion(lmax, row), 3) for row in B])
    margins = c3 * norms3[None, :] - np.abs(values)
    functional_ok = c3 <= 0.3089 and float(margins.min()) >= 0.0

    cos_op = cos_theta_op()
    out, out_lmax = cos_op._apply_table(B, lmax)
    E2 = orthonormal_sh_values(out_lmax, np.cos(theta), phi)
    lhs = E2 @ out.T
    rhs = np.array([math.cos(p[0]) for p in points])[:, None] * values
    scale = np.maximum(np.abs(lhs), np.abs(rhs)).max()
    weak_dev = float(np.max(np.abs(lhs - rhs))) / scale
    weak_ok = weak_dev <= 1e-10
    verdict(
        8,
        functional_ok and weak_ok,
        f"C_3 = {c3:.4f} <= 0.3089, min margin {margins.min():.3e} >= 0 "
        f"(100 x 100); weak eigenrelation deviation {weak_dev:.3e} <= 1e-10",
    )


def test_criterion_09_pointwise_equivalences():
    lmax = 32
    f = random_expansion((SEED, "pw"), lmax, decay=2.0)
    devs = {}
    grid = make_grid(lmax + 2)
    for name, op, mult in [
        ("cos", cos_theta_op(), lambda t, p: np.cos(t)),
        ("sin+", sin_exp_op(+1), lambda t, p: np.sin(t) * np.exp(1j * p)),
        ("sin-", sin_exp_op(-1), lambda t, p: np.sin(t) * np.exp(-1j * p)),
    ]:
        banded = op.apply(f)
        oracle = pointwise_multiply_oracle(f, mult, banded.lmax, grid)
        devs[name] = float(np.max(np.abs(banded.coeffs - oracle.coeffs)))
    bands_ok = max(devs.values()) <= 1e-10

    # derivative identity vs central differences, measured order
    rng = substream(SEED, "fd")
    orders = []
    for l, m in [(3, 1), (6, -4), (8, 0)]:
        points = [
            (float(rng.uniform(0.5, math.pi - 0.5)), float(rng.uniform(0, 2 * math.pi)))
            for _ in range(5)
        ]
        errs = []
        for h in (4e-3, 2e-3):
            worst = 0.0
            for theta, phi in points:
                fd = (sh_eval((l, m), (theta + h, phi)) - sh_eval((l, m), (theta - h, phi))) / (2 * h)
                exact = 0.0
                if abs(m - 1) <= l:
                    exact += -0.5 * math.sqrt((l + m) * (l - m + 1)) * np.exp(1j * phi) * sh_eval((l, m - 1), (theta, phi))
                if abs(m + 1) <= l:
                    exact += 0.5 * math.sqrt((l - m) * (l + m + 1)) * np.exp(-1j * phi) * sh_eval((l, m + 1), (theta, phi))
                worst = max(worst, abs(fd - exact))
            errs.append(worst)
        orders.append(math.log2(errs[0] / errs[1]))
    orders_ok = all(abs(o - 2.0) <= 0.2 for o in orders)
    verdict(
        9,
        bands_ok and orders_ok,
        f"banded-vs-oracle deviations {devs} <= 1e-10 (lmax=32); "
        f"derivative-identity FD orders {[round(o, 2) for o in orders]} within 2.0 +- 0.2",
    )


def test_criterion_10_product_law():
    t0 = time.perf_counter()
    report = product_law_report(8)
    elapsed = time.perf_counter() - t0
    selection = max(abs(clebsch_gordan(1, 0, l, 0, l, 0)) for l in range(1, 17))
    ok = report.lhs <= 1e-9 and selection == 0.0
    verdict(
        10,
        ok,
        f"product law deviation {report.lhs:.3e} <= 1e-9 exhaustive l1,l2 <= 8 "
        f"({elapsed:.1f}s); order-zero selection rule exactly 0",
    )


def test_criterion_11_laplacian():
    worst = float(np.max(pde_residual(8, 1e-3)))
    r1, r2 = pde_residual(8, 4e-3), pde_residual(8, 2e-3)
    orders = []
    for l in range(1, 9):
        k = flat_index(l, min(1, l))
        orders.append(math.log2(r1[k] / r2[k]))
    ok = worst <= 1e-4 and all(abs(o - 2.0) <= 0.3 for o in orders)
    verdict(
        11,
        ok,
        f"eigen-equation FD residual {worst:.3e} <= 1e-4 at h=1e-3 (l <= 8, interior); "
        f"orders {[round(o, 2) for o in orders]}",
    )


def test_criterion_12_documented_gaps():
    rejected = False
    try:
        inv_sin_op_literal().apply(HarmonicExpansion.unit(3, 0))
    except DomainError:
        rejected = True
    gap = exp_iphi_gap_report(SEED)
    scan = gap.details.get("truncation_tail", [])
    scan_ok = (
        gap.informational
        and len(scan) >= 5
        and scan[-1] < scan[0]  # tail must shrink as the band grows
        and gap.details["banded_vs_pointwise_coeff_gap"] > 1e-6
    )
    verdict(
        12,
        rejected and scan_ok,
        f"1/sin map rejects m=0 input; phase-map gap scan reported "
        f"(tail {scan[0]:.2e} -> {scan[-1]:.2e}, coefficient gap "
        f"{gap.details['banded_vs_pointwise_coeff_gap']:.2e})",
    )

import math
import tracemalloc

import numpy as np
import pytest

from sphcalc import (
    DomainError,
    HarmonicExpansion,
    clebsch_gordan,
    clebsch_gordan_array,
    cos_theta_op,
    dphi_op,
    dtheta_op_literal,
    exp_iphi_composite,
    generator,
    inv_sin_op_literal,
    orthonormal_sh_values,
    pde_residual,
    pointwise_multiply_oracle,
    sh_eval,
    sh_product,
    sin_exp_op,
)
from sphcalc.bounds import random_expansion, substream
from sphcalc.expansions import degree_order_arrays, flat_index
from sphcalc.transform import SampledField, analyze, make_grid, point_eval, synthesize
from sphcalc.verify import dtheta_identity_order_report, product_law_report

import reference
from reference import from_dict


# ---------------------------------------------------------------------------
# multiplication operators vs the pointwise oracle

def test_cos_theta_single_modes():
    op = cos_theta_op()
    g = op.apply(HarmonicExpansion.unit(0, 0))
    # plain-basis amplitude 1 toward (1,0); stored value carries sqrt(1/3)
    assert g[(1, 0)] == pytest.approx(math.sqrt(1 / 3), rel=1e-15)

    h = op.apply(HarmonicExpansion.unit(1, 0))
    assert h[(2, 0)] == pytest.approx(math.sqrt(4 / 15), rel=1e-14)
    assert h[(0, 0)] == pytest.approx(1 / math.sqrt(3), rel=1e-14)


@pytest.mark.parametrize("lmax", [6, 12])
def test_cos_theta_matches_pointwise(lmax):
    f = random_expansion((50, lmax), lmax, decay=2.0)
    banded = cos_theta_op().apply(f)
    oracle = pointwise_multiply_oracle(f, lambda t, p: np.cos(t), banded.lmax)
    assert np.max(np.abs(banded.coeffs - oracle.coeffs)) <= 1e-11


def test_cos_theta_pointwise_at_points():
    f = random_expansion(51, 8, decay=2.0)
    g = cos_theta_op().apply(f)
    rng = np.random.default_rng(4)
    for _ in range(10):
        p = (float(rng.uniform(0, math.pi)), float(rng.uniform(0, 2 * math.pi)))
        assert point_eval(g, p) == pytest.approx(
            math.cos(p[0]) * point_eval(f, p), rel=1e-11, abs=1e-13
        )


def test_sin_exp_on_ground_state():
    # sin(theta) e^{i phi} = -2 sqrt(pi) Y_1^1, so the plain-basis amplitude
    # from (0,0) is -sqrt(2); stored coefficient adds the sqrt(1/3) ratio
    g = sin_exp_op(+1).apply(HarmonicExpansion.unit(0, 0))
    assert g[(1, 1)] == pytest.approx(-math.sqrt(2) * math.sqrt(1 / 3), rel=1e-14)
    assert abs(g[(1, -1)]) == 0.0


def test_sin_exp_top_state_only_raises():
    f = HarmonicExpansion.unit(3, 3)
    g = sin_exp_op(+1).apply(f)
    support = [lm for lm, c in g.items() if abs(c) > 0]
    assert support == [(4, 4)]


@pytest.mark.parametrize("sign", [+1, -1])
def test_sin_exp_matches_pointwise(sign):
    f = random_expansion((52, sign % 3), 10, decay=2.0)
    banded = sin_exp_op(sign).apply(f)
    oracle = pointwise_multiply_oracle(
        f, lambda t, p: np.sin(t) * np.exp(1j * sign * p), banded.lmax
    )
    assert np.max(np.abs(banded.coeffs - oracle.coeffs)) <= 1e-11


def test_cos2_plus_sin2_is_identity():
    f = random_expansion(53, 9, decay=2.0)
    op = cos_theta_op() * cos_theta_op() + sin_exp_op(+1) * sin_exp_op(-1)
    g = op.apply(f)
    assert np.max(np.abs(g.coeffs - f.with_lmax(g.lmax).coeffs)) <= 1e-12


# ---------------------------------------------------------------------------
# formal 1/sin map

def test_inv_sin_on_unit_mode():
    op = inv_sin_op_literal()
    g = op.apply(HarmonicExpansion.unit(1, 1))
    support = sorted(lm for lm, c in g.items() if abs(c) > 0)
    assert support == [(2, 0), (2, 2)]
    ratio = math.sqrt(3 / 5)
    assert g[(2, 2)] == pytest.approx(-math.sqrt(12) / 2 * ratio, rel=1e-14)
    assert g[(2, 0)] == pytest.approx(-math.sqrt(2) / 2 * ratio, rel=1e-14)


def test_inv_sin_scalar_identity_closed_forms():
    # at x = 0.5, l = m = 1 both sides equal -1 exactly:
    # P_1^1/sqrt(1-x^2) = -1, and -[P_2^2 + 2 P_2^0]/2 = -[2.25 - 0.25]/2
    x = 0.5
    p11 = -math.sqrt(1 - x * x)
    lhs = p11 / math.sqrt(1 - x * x)
    p22 = 3 * (1 - x * x)
    p20 = (3 * x * x - 1) / 2
    rhs = -(p22 + 2 * p20) / 2
    assert lhs == pytest.approx(-1.0, abs=1e-15)
    assert rhs == pytest.approx(-1.0, abs=1e-15)


def test_inv_sin_rejects_axisymmetric_modes():
    op = inv_sin_op_literal()
    with pytest.raises(DomainError):
        op.apply(from_dict(2, {(2, 0): 1e-3, (2, 2): 1.0}))
    # pure m != 0 input passes
    op.apply(HarmonicExpansion.unit(2, 2))


# ---------------------------------------------------------------------------
# derivative maps

def test_dtheta_on_unit_modes():
    op = dtheta_op_literal()
    g = op.apply(HarmonicExpansion.unit(1, 0))
    assert g[(1, -1)] == pytest.approx(-0.5 * math.sqrt(2), rel=1e-15)
    assert g[(1, 1)] == pytest.approx(+0.5 * math.sqrt(2), rel=1e-15)

    top = op.apply(HarmonicExpansion.unit(3, 3))
    support = [lm for lm, c in top.items() if abs(c) > 0]
    assert support == [(3, 2)]  # only the m-1 branch survives at m = l


def dtheta_identity_value(l, m, theta, phi):
    """Phase-corrected shift combination equal to the theta derivative."""
    exact = 0.0
    if abs(m - 1) <= l:
        exact += -0.5 * math.sqrt((l + m) * (l - m + 1)) * np.exp(1j * phi) * sh_eval(
            (l, m - 1), (theta, phi)
        )
    if abs(m + 1) <= l:
        exact += 0.5 * math.sqrt((l - m) * (l + m + 1)) * np.exp(-1j * phi) * sh_eval(
            (l, m + 1), (theta, phi)
        )
    return exact


def test_dtheta_phase_corrected_identity_fd_order():
    rng = np.random.default_rng(5)
    orders = []
    for l, m in [(2, 1), (4, -2), (6, 0), (7, 5)]:
        # fixed sample points per case so the two step sizes see the same error
        points = [
            (float(rng.uniform(0.5, math.pi - 0.5)), float(rng.uniform(0, 2 * math.pi)))
            for _ in range(6)
        ]
        errs = []
        for h in (4e-3, 2e-3):
            worst = 0.0
            for theta, phi in points:
                fd = (sh_eval((l, m), (theta + h, phi)) - sh_eval((l, m), (theta - h, phi))) / (2 * h)
                worst = max(worst, abs(fd - dtheta_identity_value(l, m, theta, phi)))
            errs.append(worst)
        orders.append(math.log2(errs[0] / errs[1]))
    for order in orders:
        assert order == pytest.approx(2.0, abs=0.2)


def reference_dtheta_order_report(seed):
    """The per-point ``sh_eval`` loop behind ``dtheta_identity_fd_order``: (lhs, orders)."""
    rng = substream(seed, "dtheta")
    pts = [(float(rng.uniform(0.6, math.pi - 0.6)), float(rng.uniform(0, 2 * math.pi)))
           for _ in range(6)]
    orders = []
    for l, m in [(2, 1), (5, -3), (7, 0), (9, 6)]:
        errs = []
        for h in (4e-3, 2e-3):
            worst = 0.0
            for theta, phi in pts:
                fd = (sh_eval((l, m), (theta + h, phi)) - sh_eval((l, m), (theta - h, phi))) / (2 * h)
                worst = max(worst, abs(fd - dtheta_identity_value(l, m, theta, phi)))
            errs.append(worst)
        orders.append(math.log2(errs[0] / errs[1]))
    return max(abs(o - 2.0) for o in orders), [round(o, 3) for o in orders]


@pytest.mark.parametrize("seed", [42, 7, 123456])
def test_dtheta_order_report_matches_per_point_loop(seed):
    lhs, orders = reference_dtheta_order_report(seed)
    report = dtheta_identity_order_report(seed)
    assert report.details["orders"] == orders
    assert abs(report.lhs - lhs) <= 1e-9
    assert report.passed


def test_dphi_examples():
    op = dphi_op()
    g = op.apply(HarmonicExpansion.unit(1, 1))
    assert g[(1, 1)] == pytest.approx(1j)
    zero = op.apply(HarmonicExpansion.unit(3, 0))
    assert np.max(np.abs(zero.coeffs)) == 0.0

    # -i * dPhi coincides with M exactly
    dev = np.max(np.abs(((-1j) * dphi_op()).matrix(6) - generator("M").matrix(6)))
    assert dev == 0.0


def test_dphi_matches_finite_differences():
    f = random_expansion(54, 6, decay=2.0)
    g = dphi_op().apply(f)
    errs = []
    for h in (2e-3, 1e-3):
        worst = 0.0
        for theta, phi in [(0.9, 0.3), (2.0, 4.1), (1.3, 5.9)]:
            fd = (point_eval(f, (theta, (phi + h) % (2 * math.pi))) -
                  point_eval(f, (theta, (phi - h) % (2 * math.pi)))) / (2 * h)
            worst = max(worst, abs(fd - point_eval(g, (theta, phi))))
        errs.append(worst)
    assert math.log2(errs[0] / errs[1]) == pytest.approx(2.0, abs=0.3)


# ---------------------------------------------------------------------------
# formal exp(i phi)

def test_exp_iphi_two_step_support():
    op = exp_iphi_composite()
    g = op.apply(HarmonicExpansion.unit(1, 1))
    support = sorted(lm for lm, c in g.items() if abs(c) > 1e-15)
    assert support == [(3, 1), (3, 3)]
    # pin against the amplitude product of the two banded steps
    step1 = -math.sqrt(12) / 3 * math.sqrt(3 / 5)          # (1,1) -> (2,2)
    to_33 = -math.sqrt(30) / 4 * math.sqrt(5 / 7)          # (2,2) -> (3,3)
    to_31 = -math.sqrt(2) / 4 * math.sqrt(5 / 7)           # (2,2) -> (3,1)
    assert g[(3, 3)] == pytest.approx(step1 * to_33, rel=1e-13)
    assert g[(3, 1)] == pytest.approx(step1 * to_31, rel=1e-13)


def test_exp_iphi_domain_propagates():
    op = exp_iphi_composite()
    bad = from_dict(2, {(1, -1): 1.0, (2, 2): 1.0})
    with pytest.raises(DomainError):
        op.apply(bad)
    ok = from_dict(2, {(1, 1): 1.0, (2, 0): 0.5})
    op.apply(ok)


def test_matrix_enforces_the_apply_domain():
    # the identity columns include m = 0 (and, for the composite, m = -1) modes
    for op in (inv_sin_op_literal(), exp_iphi_composite()):
        with pytest.raises(DomainError):
            op.matrix(4)


def test_exp_iphi_is_not_pointwise_phase():
    # the formal composite keeps the result band-limited, the true phase
    # multiplication does not: the coefficient gap must be visibly nonzero
    f = from_dict(2, {(1, 1): 1.0, (2, 0): 0.3})
    comp = exp_iphi_composite().apply(f)
    pointwise = pointwise_multiply_oracle(
        f, lambda t, p: np.exp(1j * p), comp.lmax, grid_lmax=comp.lmax + 8
    )
    assert np.max(np.abs(comp.coeffs - pointwise.coeffs)) > 1e-3


# ---------------------------------------------------------------------------
# coupling coefficients: closed values, an independent eigen-oracle, products

def coupling_oracle(l1, l2):
    """CG table from diagonalising the total-momentum operator in the
    product basis, highest-m1 components taken positive."""
    def ladder(l):
        ms = np.arange(-l, l + 1)
        up = np.diag(np.sqrt((l - ms[:-1]) * (l + ms[:-1] + 1)), -1)
        return up  # <m+1| J+ |m> on index m + l

    d1, d2 = 2 * l1 + 1, 2 * l2 + 1
    jp = np.kron(ladder(l1), np.eye(d2)) + np.kron(np.eye(d1), ladder(l2))
    jz = np.kron(np.diag(np.arange(-l1, l1 + 1)), np.eye(d2)) + np.kron(
        np.eye(d1), np.diag(np.arange(-l2, l2 + 1))
    )
    j2 = jp.T @ jp + jz @ jz + jz
    table = {}
    m1s = np.repeat(np.arange(-l1, l1 + 1), d2)
    m2s = np.tile(np.arange(-l2, l2 + 1), d1)
    for M in range(-(l1 + l2), l1 + l2 + 1):
        block = np.nonzero(m1s + m2s == M)[0]
        vals, vecs = np.linalg.eigh(j2[np.ix_(block, block)])
        for col in range(block.size):
            L = int(round((-1 + math.sqrt(1 + 4 * vals[col])) / 2))
            vec = vecs[:, col]
            lead = int(np.argmax(m1s[block]))
            if vec[lead] < 0:
                vec = -vec
            for pos, idx in enumerate(block):
                table[(int(m1s[idx]), int(m2s[idx]), L, M)] = vec[pos]
    return table


def test_clebsch_gordan_pinned_values():
    assert clebsch_gordan(1, 0, 1, 0, 2, 0) == pytest.approx(math.sqrt(2 / 3), rel=1e-13)
    assert clebsch_gordan(1, 1, 1, -1, 0, 0) == pytest.approx(1 / math.sqrt(3), rel=1e-13)
    assert clebsch_gordan(1, 0, 1, 0, 1, 0) == 0.0
    assert clebsch_gordan(1, 1, 1, 1, 3, 2) == 0.0  # triangle violation
    assert clebsch_gordan(2, 1, 1, 0, 3, 0) == 0.0  # M mismatch


def test_parity_selection_rule_exact():
    for l in range(0, 13):
        assert clebsch_gordan(1, 0, l, 0, l, 0) == 0.0


@pytest.mark.parametrize("l1,l2", [(1, 1), (2, 1), (2, 2), (3, 2), (3, 3)])
def test_clebsch_gordan_against_eigen_oracle(l1, l2):
    table = coupling_oracle(l1, l2)
    for (m1, m2, L, M), expected in table.items():
        got = clebsch_gordan(l1, m1, l2, m2, L, M)
        assert got == pytest.approx(expected, abs=1e-10)


def test_product_with_ground_mode():
    # multiplying by the constant harmonic only rescales by 1/sqrt(2 pi)
    for l, m in [(0, 0), (2, 1), (5, -4)]:
        prod = sh_product((0, 0), (l, m))
        expected = 1 / math.sqrt(2 * math.pi) / math.sqrt(l + 0.5)
        assert prod[(l, m)] == pytest.approx(expected, rel=1e-13)
        assert sum(abs(c) > 1e-14 for _, c in prod.items()) == 1


def test_product_of_two_top_modes():
    prod = sh_product((1, 1), (1, 1))
    support = [lm for lm, c in prod.items() if abs(c) > 1e-14]
    assert support == [(2, 2)]  # L = 1 killed by the parity rule


@pytest.mark.parametrize("l1,l2", [(1, 1), (2, 2), (3, 4), (4, 4)])
def test_product_law_against_quadrature(l1, l2):
    grid = make_grid(l1 + l2)
    for m1 in range(-l1, l1 + 1):
        for m2 in range(-l2, l2 + 1):
            # plain-basis samples: e_{l,m} / sqrt(l + 1/2)
            y1 = synthesize(HarmonicExpansion.unit(l1, m1, l1 + l2), grid).samples / math.sqrt(l1 + 0.5)
            y2 = synthesize(HarmonicExpansion.unit(l2, m2, l1 + l2), grid).samples / math.sqrt(l2 + 0.5)
            via_quad = analyze(SampledField(grid, y1 * y2), l1 + l2)
            via_cg = sh_product((l1, m1), (l2, m2))
            assert np.max(np.abs(via_quad.coeffs - via_cg.coeffs)) <= 1e-9


def test_coupling_array_matches_scalar_clebsch_gordan():
    # every (l1, m1, l2, m2, L) up to lcap 8, orders one past each bound and
    # a mismatched M included, so out-of-domain entries are exercised too
    lcap = 8
    rows = np.array([
        (l1, m1, l2, m2, L, M)
        for l1 in range(lcap + 1) for m1 in range(-l1 - 1, l1 + 2)
        for l2 in range(lcap + 1) for m2 in range(-l2 - 1, l2 + 2)
        for L in range(2 * lcap + 2) for M in (m1 + m2, m1 + m2 + 1)
    ])
    got = clebsch_gordan_array(*rows.T)
    expected = np.array([reference.clebsch_gordan(*map(int, row)) for row in rows])
    assert np.max(np.abs(got - expected)) <= 1e-14
    l1, m1, l2, m2, L, M = rows.T
    outside = (
        (M != m1 + m2) | (L < np.abs(l1 - l2)) | (L > l1 + l2) | (np.abs(M) > L)
        | (np.abs(m1) > l1) | (np.abs(m2) > l2)
        | ((m1 == 0) & (m2 == 0) & ((l1 + l2 + L) % 2 == 1))
    )
    assert outside.any() and np.all(got[outside] == 0.0)


def _sh_product_scalar(l1, m1, l2, m2):
    # the per-degree product the coupling weights replaced, kept as reference
    M = m1 + m2
    coeffs = np.zeros((l1 + l2 + 1) ** 2, dtype=np.complex128)
    for L in range(max(abs(l1 - l2), abs(M)), l1 + l2 + 1):
        parity = reference.clebsch_gordan(l1, 0, l2, 0, L, 0)
        if parity == 0.0:
            continue
        weight = parity * reference.clebsch_gordan(l1, m1, l2, m2, L, M)
        coeffs[L * L + L + M] = weight / math.sqrt(2.0 * math.pi) / math.sqrt(L + 0.5)
    return coeffs


def reference_product_law(lcap):
    """Worst coefficient gap over every harmonic pair, one analysis per pair."""
    grid = make_grid(2 * lcap)
    fields = {}
    for l in range(lcap + 1):
        for m in range(-l, l + 1):
            e = HarmonicExpansion.unit(l, m, lcap)
            fields[(l, m)] = synthesize(e, grid).samples / math.sqrt(l + 0.5)
    worst = 0.0
    for (l1, m1), y1 in fields.items():
        for (l2, m2), y2 in fields.items():
            via_quad = analyze(SampledField(grid, y1 * y2), l1 + l2)
            via_cg = _sh_product_scalar(l1, m1, l2, m2)
            worst = max(worst, float(np.max(np.abs(via_quad.coeffs - via_cg))))
    return worst


def test_sh_product_matches_scalar_coupling():
    for l1, l2 in [(0, 0), (1, 1), (3, 2), (4, 4), (6, 5)]:
        for m1 in range(-l1, l1 + 1):
            for m2 in range(-l2, l2 + 1):
                got = sh_product((l1, m1), (l2, m2)).coeffs
                expected = _sh_product_scalar(l1, m1, l2, m2)
                assert np.max(np.abs(got - expected)) <= 1e-15


@pytest.mark.parametrize("lcap", [0, 1, 2, 4, 6])
def test_product_law_matches_per_pair_loop(lcap):
    report = product_law_report(lcap)
    reference = reference_product_law(lcap)
    assert report.passed and reference <= report.rhs
    assert abs(report.lhs - reference) <= 1e-15


def test_product_law_memory_stays_small():
    # one analysis block per first harmonic: all 2,401 pairs in one block
    # would hold a 13 MB sample table at lcap 6
    tracemalloc.start()
    try:
        assert product_law_report(6).passed
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6


# ---------------------------------------------------------------------------
# eigen-equation residual

def reference_pde_residual(idx, h):
    """The per-mode residual: one table at degree l for one harmonic."""
    l, m = idx
    thetas = np.linspace(math.pi / 3.0, 2.0 * math.pi / 3.0, 5)
    phis = np.linspace(0.0, 2.0 * math.pi, 4, endpoint=False) + 0.37
    theta, phi = np.asarray([(t, p) for t in thetas for p in phis]).T
    tt = theta[:, None] + h * np.array([0.0, -1.0, 1.0, 0.0, 0.0])
    pp = phi[:, None] % (2.0 * math.pi) + h * np.array([0.0, 0.0, 0.0, -1.0, 1.0])
    values = orthonormal_sh_values(l, np.cos(tt).ravel(), (pp % (2.0 * math.pi)).ravel())
    y = values[:, flat_index(l, m)].reshape(tt.shape) / math.sqrt(l + 0.5)
    y0, yt_lo, yt_hi, yp_lo, yp_hi = y.T
    d2_theta = (yt_hi - 2.0 * y0 + yt_lo) / (h * h)
    d1_theta = (yt_hi - yt_lo) / (2.0 * h)
    d2_phi = (yp_hi - 2.0 * y0 + yp_lo) / (h * h)
    eig = float(l * (l + 1))
    residual = d2_theta + d1_theta / np.tan(theta) + d2_phi / np.sin(theta) ** 2 + eig * y0
    return float(np.max(np.abs(residual), initial=0.0))


@pytest.mark.parametrize("h", [1e-3, 2e-3, 4e-3])
def test_pde_residual_table_equals_per_mode_residuals(h):
    ls, ms = degree_order_arrays(8)
    reference = [reference_pde_residual((l, m), h) for l, m in zip(ls.tolist(), ms.tolist())]
    residual = pde_residual(8, h)
    assert residual.shape == (81,)
    assert np.array_equal(residual, reference)


def test_pde_residual_constant_mode_exact():
    assert pde_residual(0, 1e-3)[0] == 0.0
    assert pde_residual(4, 1e-3)[0] == 0.0


def test_pde_residual_small():
    res = pde_residual(2, 1e-3)[flat_index(2, 1)]
    assert res <= 1e-4 * 6 * (1 / math.sqrt(2 * math.pi))


def test_pde_residual_halving_step():
    k = flat_index(5, 3)
    r1 = pde_residual(5, 4e-3)[k]
    r2 = pde_residual(5, 2e-3)[k]
    assert r1 / r2 == pytest.approx(4.0, rel=0.2)


def test_pde_residual_preconditions():
    with pytest.raises(ValueError):
        pde_residual(2, 0.2)

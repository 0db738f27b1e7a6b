import dataclasses
import functools
import inspect
import math
import tracemalloc
import warnings
from collections.abc import Callable
from typing import NamedTuple

import numpy as np
import pytest
from scipy.special import lpmv, sph_harm_y

import sphcalc
from sphcalc import (
    SH_SUP_BOUND,
    HarmonicExpansion,
    HarmonicIndex,
    SphereGrid,
    analyze,
    bound_point_functional,
    boundary_vanishing_check,
    claim_margins,
    clebsch_gordan,
    closure_check,
    completeness_kernel,
    continuity_criterion_check,
    continuity_criterion_checks,
    derive_structure_constants,
    functional_constant,
    gauss_legendre,
    generator,
    graded_norm,
    graded_norms,
    make_grid,
    orthonormal_legendre_table,
    orthonormal_sh_values,
    orthonormality_check,
    pde_residual,
    pointwise_multiply_oracle,
    sh_eval,
    sin_exp_op,
    so3_casimir_check,
    synthesize,
    table_row,
    uniform_bound_check,
)
from sphcalc.bounds import random_expansion, substream
from sphcalc.expansions import degree_order_arrays, flat_index
from sphcalc.legendre import GROUP, MAX_LMAX, _table_map, _table_values
from sphcalc.verify import suite_transforms

from reference import assoc_legendre, orthonormal_sh_values_reference, packed_legendre_table, packed_row

RNG = np.random.default_rng(2024)


def test_assoc_legendre_base_cases():
    assert assoc_legendre(0, 0, 0.3) == 1.0
    assert assoc_legendre(2, 0, 0.5) == pytest.approx(-0.125, abs=1e-15)
    assert assoc_legendre(1, 1, 0.0) == pytest.approx(-1.0, abs=1e-15)
    assert assoc_legendre(1, 2, 0.5) == 0.0  # order above degree
    with pytest.raises(ValueError):
        assoc_legendre(1, 1, 1.5)
    with pytest.raises(ValueError):
        assoc_legendre(1, -1, 0.5)


def test_assoc_legendre_closed_forms():
    # low-degree polynomials, Condon-Shortley phase
    xs = np.linspace(-1.0, 1.0, 41)
    closed = {
        (1, 0): xs,
        (2, 0): (3 * xs**2 - 1) / 2,
        (3, 0): (5 * xs**3 - 3 * xs) / 2,
        (4, 0): (35 * xs**4 - 30 * xs**2 + 3) / 8,
        (1, 1): -np.sqrt(1 - xs**2),
        (2, 1): -3 * xs * np.sqrt(1 - xs**2),
        (2, 2): 3 * (1 - xs**2),
        (3, 2): 15 * xs * (1 - xs**2),
    }
    for (l, m), expected in closed.items():
        np.testing.assert_allclose(assoc_legendre(l, m, xs), expected, atol=1e-13)


@pytest.mark.parametrize("trial", range(20))
def test_assoc_legendre_against_scipy(trial):
    l = int(RNG.integers(0, 40))
    m = int(RNG.integers(0, l + 1))
    x = float(RNG.uniform(-1, 1))
    ours = assoc_legendre(l, m, x)
    ref = float(lpmv(m, l, x))
    assert ours == pytest.approx(ref, rel=1e-11, abs=1e-11)


def test_sin_recurrence_identity():
    # sqrt(1-x^2) P_l^m = [(l-m+1)(l-m+2) P_{l+1}^{m-1} - (l+m)(l+m-1) P_{l-1}^{m-1}] / (2l+1)
    rng = np.random.default_rng(7)
    for _ in range(200):
        l = int(rng.integers(1, 21))
        m = int(rng.integers(1, l + 1))
        x = float(rng.uniform(-0.999, 0.999))
        lhs = math.sqrt(1 - x * x) * assoc_legendre(l, m, x)
        up = (l - m + 1) * (l - m + 2) * assoc_legendre(l + 1, m - 1, x)
        down = (l + m) * (l + m - 1) * (assoc_legendre(l - 1, m - 1, x) if l >= 1 else 0.0)
        rhs = (up - down) / (2 * l + 1)
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-12)


def test_inv_sin_recurrence_identity():
    # (1-x^2)^(-1/2) P_l^m = -[P_{l+1}^{m+1} + (l-m+1)(l-m+2) P_{l+1}^{m-1}] / (2m)
    rng = np.random.default_rng(8)
    for _ in range(200):
        l = int(rng.integers(1, 21))
        m = int(rng.integers(1, l + 1))
        x = float(rng.uniform(-0.999, 0.999))
        lhs = assoc_legendre(l, m, x) / math.sqrt(1 - x * x)
        rhs = -(
            assoc_legendre(l + 1, m + 1, x)
            + (l - m + 1) * (l - m + 2) * assoc_legendre(l + 1, m - 1, x)
        ) / (2 * m)
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-12)


def test_derivative_identity_by_central_differences():
    # sqrt(1-x^2) dP/dx = [(l+m)(l-m+1) P_l^{m-1} - P_l^{m+1}] / 2, with the
    # negative-order extension P_l^{-1} = -P_l^1 (l-1)!/(l+1)!
    def p_any_order(l, m, x):
        if m >= 0:
            return assoc_legendre(l, m, x)
        mu = -m
        ratio = math.exp(math.lgamma(l - mu + 1) - math.lgamma(l + mu + 1))
        return (-1) ** mu * ratio * assoc_legendre(l, mu, x)

    rng = np.random.default_rng(9)
    for _ in range(100):
        l = int(rng.integers(1, 16))
        m = int(rng.integers(0, l + 1))
        x = float(rng.uniform(-0.9, 0.9))
        errs = []
        for h in (1e-3, 5e-4):
            fd = (assoc_legendre(l, m, x + h) - assoc_legendre(l, m, x - h)) / (2 * h)
            lhs = math.sqrt(1 - x * x) * fd
            rhs = 0.5 * ((l + m) * (l - m + 1) * p_any_order(l, m - 1, x) - p_any_order(l, m + 1, x))
            errs.append(abs(lhs - rhs))
        scale = max(abs(assoc_legendre(l, m, x)), 1.0)
        assert errs[1] <= max(0.3 * errs[0], 1e-11 * scale)  # ~O(h^2) shrink


def test_assoc_legendre_raises_instead_of_overflowing():
    # the unnormalised values leave the double range; no inf, nan or warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for l, m, x in [(170, 170, 0.5), (400, 300, 0.45), (400, 300, [0.1, 0.45])]:
            with pytest.raises(OverflowError):
                assoc_legendre(l, m, x)
        assert np.isfinite(assoc_legendre(150, 150, 0.5))


def test_sh_eval_pinned_values():
    inv_sqrt_2pi = 1.0 / math.sqrt(2 * math.pi)
    assert sh_eval((0, 0), (1.234, 2.345)) == pytest.approx(inv_sqrt_2pi)
    assert sh_eval((1, 0), (0.0, 0.4)) == pytest.approx(inv_sqrt_2pi)
    assert sh_eval((1, 1), (math.pi / 2, 0.0)) == pytest.approx(-1 / (2 * math.sqrt(math.pi)))


def test_sh_eval_negative_order_symmetry():
    rng = np.random.default_rng(10)
    for _ in range(30):
        l = int(rng.integers(0, 12))
        m = int(rng.integers(0, l + 1))
        p = (float(rng.uniform(0, math.pi)), float(rng.uniform(0, 2 * math.pi)))
        plus = sh_eval((l, m), p)
        minus = sh_eval((l, -m), p)
        assert minus == pytest.approx((-1) ** m * np.conj(plus), rel=1e-12, abs=1e-14)


def _orthonormal_at(l, m, theta, phi):
    return orthonormal_sh_values(l, math.cos(theta), phi)[0, flat_index(l, m)]


@pytest.mark.parametrize("trial", range(25))
def test_orthonormal_eval_against_scipy(trial):
    # the orthonormal functions coincide with the fully normalised harmonics
    l = int(RNG.integers(0, 30))
    m = int(RNG.integers(-l, l + 1)) if l else 0
    theta = float(RNG.uniform(0, math.pi))
    phi = float(RNG.uniform(0, 2 * math.pi))
    ours = _orthonormal_at(l, m, theta, phi)
    ref = complex(sph_harm_y(l, m, theta, phi))
    assert ours == pytest.approx(ref, rel=1e-11, abs=1e-12)


def test_orthonormal_eval_pinned_values():
    assert _orthonormal_at(0, 0, 0.7, 0.1) == pytest.approx(1 / math.sqrt(4 * math.pi))
    assert abs(_orthonormal_at(1, 0, math.pi / 2, 1.0)) < 1e-16
    assert _orthonormal_at(1, 1, math.pi / 2, math.pi) == pytest.approx(
        math.sqrt(3 / (8 * math.pi)), rel=1e-12
    )


def test_table_consistent_with_scalar_path():
    xs = np.linspace(-0.99, 0.99, 7)
    lmax = 20
    table = orthonormal_legendre_table(lmax, xs)
    for i, x in enumerate(xs):
        for l in (0, 3, 11, 20):
            for m in sorted({0, min(1, l), l // 2, l}):
                expected = math.sqrt(l + 0.5) * _amp(l, m) * assoc_legendre(l, m, x)
                got = table[table_row(lmax, l, m), i]
                assert got == pytest.approx(expected, rel=1e-11, abs=1e-13)


def _amp(l, m):
    return math.exp(
        0.5 * (math.lgamma(l - m + 1) - math.lgamma(l + m + 1)) - 0.5 * math.log(2 * math.pi)
    )


def test_uniform_bound_lmax0_margin_zero():
    r = uniform_bound_check(0)
    assert r.lhs == pytest.approx(SH_SUP_BOUND, abs=1e-15)
    assert r.passed


def test_uniform_bound_dense_scan():
    r = uniform_bound_check(64)
    assert r.passed
    assert r.lhs <= SH_SUP_BOUND + 1e-12


def test_uniform_bound_scan_holds_one_table():
    # the modulus and the 1/sqrt(l+1/2) scaling once made two more copies of
    # the 2.5 MB scan table at lmax 16, a 7.6 MB tracemalloc peak
    tracemalloc.start()
    try:
        assert uniform_bound_check(16).passed
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6


def test_pole_values():
    # at theta = 0 only m = 0 survives and sits exactly on the bound
    for l in range(9):
        assert abs(sh_eval((l, 0), (0.0, 0.0))) == pytest.approx(SH_SUP_BOUND, rel=1e-13)
        for m in range(1, l + 1):
            assert abs(sh_eval((l, m), (0.0, 0.0))) == 0.0


def test_high_degree_no_overflow():
    # the normalised recurrence stays finite where the bare factorial ratio
    # and the plain P_l^m overflow (l + m well past 170)
    for l, m in [(120, 60), (150, 149), (200, 100), (170, 170), (200, 150), (400, 300)]:
        theta, phi = 1.1, 0.6
        ours = sh_eval((l, m), (theta, phi))
        assert np.isfinite(ours.real) and np.isfinite(ours.imag)
        ref = complex(sph_harm_y(l, m, theta, phi)) / math.sqrt(l + 0.5)
        assert ours == pytest.approx(ref, rel=1e-9, abs=1e-12)


def test_near_pole_graceful():
    # clamped cosine; nonzero orders underflow to 0 without warnings or nans
    for theta in (1e-9, math.pi - 1e-9):
        v = sh_eval((6, 3), (theta, 1.0))
        assert np.isfinite(v.real) and np.isfinite(v.imag)
        assert abs(v) < 1e-20
        assert abs(sh_eval((6, 0), (theta, 1.0))) == pytest.approx(SH_SUP_BOUND, rel=1e-8)


def _table_per_order(lmax, x):
    # the order-by-order loop the per-degree table replaced, kept as reference
    N = np.zeros((x.size, lmax + 1, lmax + 1))
    s = np.sqrt(np.maximum(1.0 - x * x, 0.0))
    N[:, 0, 0] = 1.0 / math.sqrt(4.0 * math.pi)
    for m in range(1, lmax + 1):
        N[:, m, m] = -math.sqrt((2 * m + 1) / (2.0 * m)) * s * N[:, m - 1, m - 1]
    for m in range(lmax + 1):
        if m + 1 <= lmax:
            N[:, m + 1, m] = math.sqrt(2 * m + 3.0) * x * N[:, m, m]
        for l in range(m + 2, lmax + 1):
            a = math.sqrt((4.0 * l * l - 1.0) / (l * l - m * m))
            b = math.sqrt(((l - 1.0) ** 2 - m * m) / (4.0 * (l - 1.0) ** 2 - 1.0))
            N[:, l, m] = a * (x * N[:, l - 1, m] - b * N[:, l - 2, m])
    return N


@pytest.mark.parametrize("lmax", [0, 1, 2, 16, 64])
def test_table_equals_per_order_recurrence(lmax):
    # same arithmetic per entry, so the tables agree bit for bit
    x = np.concatenate([np.random.default_rng(lmax).uniform(-1, 1, 9), [-1.0, 1.0, 0.0]])
    ms, ls = np.triu_indices(lmax + 1)
    per_order = _table_per_order(lmax, x)[:, ls, ms].T
    np.testing.assert_array_equal(orthonormal_legendre_table(lmax, x)[table_row(lmax, ls, ms)], per_order)
    # the packed reference: rows m-major, degree l of order m at off[m] + l - m
    reference = packed_legendre_table(lmax, x)
    assert reference.shape == ((lmax + 1) * (lmax + 2) // 2, x.size)
    np.testing.assert_array_equal(packed_row(lmax, ls, ms), np.arange(reference.shape[0]))
    np.testing.assert_array_equal(reference, per_order)


@pytest.mark.parametrize("lmax", [0, 1, 16, 47, 128])
@pytest.mark.parametrize("phi_kind", ["scalar", "array"])
def test_point_values_equal_the_reference_gather(lmax, phi_kind):
    # point values through legendre's one map against a gather of the packed
    # reference table with its own sign formula
    rng = np.random.default_rng(1000 + lmax)
    x = rng.uniform(-1.0, 1.0, 20)
    phi = rng.uniform(0.0, 2.0 * math.pi, 20) if phi_kind == "array" else 0.7
    _assert_reference_gather(lmax, x, phi)


def _assert_reference_gather(lmax, x, phi, values=orthonormal_sh_values):
    got = values(lmax, x, phi)
    want = orthonormal_sh_values_reference(lmax, x, phi)
    # bit for bit, signed zeros included; the scalar-phi product is not C-contiguous
    assert got.shape == want.shape and got.dtype == want.dtype == np.complex128
    assert np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(want).tobytes()


def _bounds_suite_points(seed):
    # the bounds suite's ten points for each of its 50 functions at 50 trials
    draws = substream(seed, "points").uniform([-1, 0], [1, 2 * math.pi], size=(50, 10, 2))
    return np.cos(np.arccos(draws[..., 0])), draws[..., 1]


def _dtheta_points(seed):
    # dtheta_identity_order_report's six points, each at five theta shifts
    rng = substream(seed, "dtheta")
    theta, phi = np.array([(rng.uniform(0.6, math.pi - 0.6), rng.uniform(0, 2 * math.pi)) for _ in range(6)]).T
    return np.cos(theta[:, None] + np.array([0.0, 4e-3, -4e-3, 2e-3, -2e-3])).ravel(), np.repeat(phi, 5)


def _one_table_gather(lmax, x, phi):
    # the bounds suite's gather: one table at every point, whose columns and
    # phases are taken 80 at a time (8 functions of ten points)
    N = orthonormal_legendre_table(lmax, x)
    return np.concatenate([_table_values(lmax, N[:, s:s + 80], phi[s:s + 80]) for s in range(0, x.size, 80)])


@pytest.mark.parametrize("site", [
    lambda: (16, make_grid(16).x, 0.0),  # orthonormality_check(16)
    lambda: (12, make_grid(12).x, 0.0),  # the product law's degree-12 grid
    lambda: (16, *(a[:8].ravel() for a in _bounds_suite_points(42))),  # one 80-point block
    lambda: (16, *(a.ravel() for a in _bounds_suite_points(42)), _one_table_gather),  # all 500 in one table
    lambda: (17, *(a[:, -1] for a in _bounds_suite_points(42))),  # the weak eigenrelation's last points
    lambda: (9, *_dtheta_points(42)),
], ids=["gram-grid", "product-grid", "point-block", "point-table", "last-points", "dtheta-fd"])
def test_point_values_at_each_call_site_equal_the_reference_gather(site):
    _assert_reference_gather(*site())


@pytest.mark.parametrize("lmax", [0, 1, 2, 16])
def test_recurrence_constants_are_made_once_and_read_only(lmax):
    # the constants live in the degree's one record, beside the layout, and
    # the record is the module's one cache
    record = _table_map(lmax)
    assert not any(a.flags.writeable for a in record)
    assert _table_map(lmax) is record
    legendre = sphcalc.legendre
    assert [f for f in vars(legendre).values()
            if hasattr(f, "cache_info") and f.__module__ == legendre.__name__] == [_table_map]
    # the factors as each build once computed them, bit for bit
    l, m = np.tril_indices(max(lmax - 1, 0))
    l += 2
    assert record.a.tobytes() == np.sqrt((4.0 * l * l - 1.0) / (l * l - m * m)).tobytes()
    assert record.b.tobytes() == np.sqrt(((l - 1.0) ** 2 - m * m) / (4.0 * (l - 1.0) ** 2 - 1.0)).tobytes()
    deg = np.arange(1, lmax + 1)
    assert record.diag.tobytes() == (-np.sqrt((2 * deg + 1) / (2.0 * deg))).tobytes()
    assert record.sub.tobytes() == np.sqrt(2 * deg + 1.0).tobytes()
    assert record.diag_rows.tolist() == [table_row(lmax, l, l) for l in range(lmax + 1)]
    assert record.sub_rows.tolist() == [table_row(lmax, l, l - 1) for l in range(1, lmax + 1)]


def _layout_rows(lmax):
    """Block records and the table row of each (l, m), m >= 0, walked block by block."""
    blocks, row, start = [], {}, 0
    for m0 in range(0, lmax + 1, GROUP):
        k = min(GROUP, lmax + 1 - m0)
        for p in (0, 1):
            # k orders x R rows, R the first order's row count: degree
            # m + p + 2i of order m = m0 + j at row start + j*R + i
            R = (lmax - m0 - p) // 2 + 1
            blocks.append([m0, k, p, start, R])
            for j in range(k):
                for i, l in enumerate(range(m0 + j + p, lmax + 1, 2)):
                    row[l, m0 + j] = start + j * R + i
            start += k * R
    return blocks, row, start


@pytest.mark.parametrize("lmax", [0, 1, 16])
def test_table_map_is_read_only_and_matches_the_layout(lmax):
    rows, slot, sign, blocks = _table_map(lmax)[:4]
    assert not any(a.flags.writeable for a in (rows, slot, sign, blocks))
    want_blocks, row, _ = _layout_rows(lmax)
    assert blocks.tolist() == want_blocks
    for l in range(lmax + 1):
        for m in range(-l, l + 1):
            k = flat_index(l, m)
            assert rows[k] == row[l, abs(m)] == table_row(lmax, l, m)
            assert slot[k] == (m < 0)
            assert sign[k] == ((-1) ** m if m < 0 else 1)


@pytest.mark.parametrize("l,m", [
    (2, 5),  # once the row of (3, -1)
    (-1, 0),  # once the row of (0, 0)
    (17, 0),  # once an IndexError naming a flat index
    (np.array([2, 16, 3]), np.array([0, 1, -4])),
], ids=["order-above-degree", "negative-degree", "degree-above-lmax", "array"])
def test_table_row_refuses_pairs_outside_the_triangle(l, m):
    with pytest.raises(ValueError, match=r"lmax=16$"):
        table_row(16, l, m)


@pytest.mark.parametrize("lmax", [0, 1, 7, 8, 9, 16, 256, 1024])
def test_stacked_table_holds_the_packed_rows(lmax):
    # the one layout: every (l, m) at its block row with the bits of the packed
    # reference recurrence, and zeros in the padding; a handful of nodes at 1024
    nodes = 2 if lmax == 1024 else 5
    x = np.concatenate([np.random.default_rng(lmax).uniform(-1, 1, nodes), [-1.0, 1.0, 0.0]])
    table = orthonormal_legendre_table(lmax, x)
    _, row, count = _layout_rows(lmax)
    assert table.shape == (count, x.size)
    ls, ms = np.array(list(row)).T
    rows = np.array(list(row.values()))
    assert table[rows].tobytes() == packed_legendre_table(lmax, x)[packed_row(lmax, ls, ms)].tobytes()
    padding = np.ones(count, dtype=bool)
    padding[rows] = False
    assert not table[padding].any()


class Row(NamedTuple):
    """One integer argument of one entry point."""

    call: Callable  # the entry point, that argument its one parameter
    covers: str | None  # the exported "callable.parameter" it checks, None for a helper
    name: str = "lmax"  # the argument as its errors name it
    good: int = 2  # an integer the call accepts
    negative: str | None = r"^lmax must be >= 0, got -1$"  # what -1 raises; None: -1 is accepted


def _cg(at, index):
    """``clebsch_gordan`` of <1 0 1 0|2 0> with argument ``at`` set to ``index``."""
    args = [1, 0, 1, 0, 2, 0]
    args[at] = index
    return clebsch_gordan(*args)


# ROADMAP item 15's one contract for integer arguments: per row, 2.0, 2.5 and
# True raise TypeError naming the argument, -1 raises the row's ValueError or
# is accepted, and a numpy integer gives the int's result, type for type
DEGREE_CALLS = {
    "table": Row(lambda L: orthonormal_legendre_table(L, [0.3]), "orthonormal_legendre_table.lmax"),
    "point-values": Row(lambda L: orthonormal_sh_values(L, 0.3, 0.0), "orthonormal_sh_values.lmax"),
    "sup-scan": Row(uniform_bound_check, "uniform_bound_check.lmax"),
    "table-row": Row(lambda L: table_row(L, 0, 0), "table_row.lmax"),
    "flat-order": Row(degree_order_arrays, None),
    "kernel": Row(lambda L: completeness_kernel(L, (0.1, 0.2), (0.3, 0.4)), "completeness_kernel.lmax"),
    "pde": Row(lambda L: pde_residual(L, 1e-3), "pde_residual.lmax"),
    "matrix": Row(lambda L: generator("L").matrix(L), "Operator.matrix.lmax"),
    "casimir": Row(so3_casimir_check, "so3_casimir_check.lmax"),
    "random-expansion": Row(lambda L: random_expansion(3, L), "random_expansion.lmax"),
    "grid": Row(make_grid, "make_grid.lmax"),
    "grid-class": Row(SphereGrid, "SphereGrid.lmax"),
    "grid-entry": Row(lambda L: make_grid(4).basis_table(L), "SphereGrid.basis_table.lmax"),
    "claim-margins": Row(lambda L: claim_margins("L", np.ones((1, 9)), L), "claim_margins.lmax"),
    "graded-norms": Row(lambda L: graded_norms(np.ones((1, 9)), L, 1), "graded_norms.lmax"),
    "expansion": Row(lambda L: HarmonicExpansion(L, np.zeros(9)), "HarmonicExpansion.lmax"),
    "zeros": Row(HarmonicExpansion.zeros, "HarmonicExpansion.zeros.lmax"),
    # at l = 2 a degree of True is below the index, which once hid the check
    "unit": Row(lambda L: HarmonicExpansion.unit(2, 0, L), "HarmonicExpansion.unit.lmax"),
    "with-lmax": Row(lambda L: HarmonicExpansion.zeros(1).with_lmax(L), "HarmonicExpansion.with_lmax.lmax"),
    "analyze": Row(lambda L: analyze(synthesize(random_expansion(3, 2), make_grid(2)), L), "analyze.lmax"),
    # checked first, naming out_lmax: 2.5 once failed in the last step's analyze, as "lmax"
    "oracle": Row(lambda L: pointwise_multiply_oracle(random_expansion(3, 2), lambda t, p: np.cos(t), L,
                                                      make_grid(4)), "pointwise_multiply_oracle.out_lmax",
                  "out_lmax", negative=r"^out_lmax must be >= 0, got -1$"),
    "orthonormality": Row(orthonormality_check, "orthonormality_check.lmax"),
    "boundary": Row(boundary_vanishing_check, "boundary_vanishing_check.lmax"),
    # the closure fit needs lmax >= 4: compared with it, True and 2.0 were refused as too small
    "closure": Row(closure_check, "closure_check.lmax", good=4),
    "structure-constants": Row(derive_structure_constants, "derive_structure_constants.lmax", good=4),
    "criterion-lmax": Row(lambda L: continuity_criterion_checks(["L"], 9, 0, L), "continuity_criterion_checks.lmax"),
    "criterion-one-lmax": Row(lambda L: continuity_criterion_check("L", 9, 0, L), "continuity_criterion_check.lmax"),
    "gauss-nodes": Row(gauss_legendre, "gauss_legendre.n", "n", negative=r"^n must be >= 1, got -1$"),
    "criterion-trials": Row(lambda T: continuity_criterion_checks(["L"], T, 0, 2), "continuity_criterion_checks.trials",
                            "trials", negative=r"^trials must be >= 1, got -1$"),
    "criterion-one-trials": Row(lambda T: continuity_criterion_check("L", T, 0, 2), "continuity_criterion_check.trials",
                                "trials", negative=r"^trials must be >= 1, got -1$"),
    "suite-trials": Row(lambda T: suite_transforms(2, T, 0), None, "trials", negative=r"^trials must be >= 1, got -1$"),
    # True was written into the record as "seed": true, and 2.5 and -1 failed inside numpy
    "criterion-seed": Row(lambda s: continuity_criterion_checks(["L"], 9, s, 2), "continuity_criterion_checks.seed",
                          "seed", negative=r"^seed must be >= 0, got -1$"),
    "criterion-one-seed": Row(lambda s: continuity_criterion_check("L", 9, s, 2), "continuity_criterion_check.seed",
                              "seed", negative=r"^seed must be >= 0, got -1$"),
    # 2.5 gave six sums, True three, and -2 none
    "phi-sums": Row(lambda d: make_grid(2).phi_sums(d), "SphereGrid.phi_sums.dmax", "dmax",
                    negative=r"^dmax must be >= 0, got -1$"),
    "index-degree": Row(lambda l: HarmonicIndex(l, 0), "HarmonicIndex.l", "degree l",
                        negative=r"^degree l must be >= 0, got -1$"),
    "index-order": Row(lambda m: HarmonicIndex(2, m), "HarmonicIndex.m", "order m", negative=None),
    "unit-degree": Row(lambda l: HarmonicExpansion.unit(l, 0, 3), "HarmonicExpansion.unit.l", "degree l",
                       negative=r"^degree l must be >= 0, got -1$"),
    "unit-order": Row(lambda m: HarmonicExpansion.unit(2, m, 3), "HarmonicExpansion.unit.m", "order m", negative=None),
    "table-row-index": Row(lambda l: table_row(4, l, 0), None, "table_row index",
                           negative=r"^table_row needs \|m\| <= l <= lmax, with lmax=4$"),
    # a coefficient outside the coupling rules is 0, a negative index included
    **{f"clebsch-gordan-{arg}": Row(functools.partial(_cg, at), f"clebsch_gordan.{arg}", "Clebsch-Gordan index",
                                    negative=None)
       for at, arg in enumerate(["l1", "m1", "l2", "m2", "L", "M"])},
    "norm-order": Row(lambda n: graded_norms(np.ones((1, 9)), 2, n), "graded_norms.n", "norm order",
                      negative=r"^norm order must be >= 0, got -1$"),
    "norm-orders": Row(lambda n: graded_norms(np.ones((1, 9)), 2, (0, n)), None, "norm order",
                       negative=r"^norm order must be >= 0, got -1$"),
    "graded-norm-order": Row(lambda n: graded_norm(random_expansion(3, 2), n), "graded_norm.n", "norm order",
                             negative=r"^norm order must be >= 0, got -1$"),
    "functional-order": Row(functional_constant, "functional_constant.p", "order",
                            negative=r"^order must be >= 2, got -1$"),
    "point-bound-order": Row(lambda p: bound_point_functional(random_expansion(3, 2), (0.3, 0.4), p),
                             "bound_point_functional.order", "order",
                             negative=r"^order must be >= 2, got -1$"),
    # 2 is no sign
    "sin-exp-sign": Row(lambda s: sin_exp_op(s).matrix(2), "sin_exp_op.sign", "sign", good=-1, negative=None),
}

# exported integer parameters that have no row, each with its reason
NO_ROW = {f"BoundReport.{field}": "a record field, stored as the check that builds the record passes it"
          for field in ("seed", "lmax", "n")}


@pytest.mark.parametrize("row", DEGREE_CALLS.values(), ids=DEGREE_CALLS)
def test_negative_degrees_name_one_error(row):
    # these once raised a bare IndexError or "need at least one array to concatenate"
    if row.negative is None:
        row.call(-1)
    else:
        with pytest.raises(ValueError, match=row.negative):
            row.call(-1)


@pytest.mark.parametrize("degree", [2.5, 2.0, True])
@pytest.mark.parametrize("row", DEGREE_CALLS.values(), ids=DEGREE_CALLS)
def test_non_integer_degrees_name_one_error(row, degree):
    # these once failed inside range() or numpy, or took 1.0 or True as a
    # degree and failed later or not at all; a value cached as a numpy
    # integer must not let 2.0 through
    row.call(np.int64(row.good))
    with pytest.raises(TypeError, match=rf"^{row.name} must be an integer, got {degree!r}$"):
        row.call(degree)


def _parts(value):
    """``value`` as nested tuples of types, reprs and array bytes: two
    results give equal parts only if every part has the same type and bits."""
    if isinstance(value, np.ndarray):
        return (value.dtype.str, value.shape, value.tobytes())
    if isinstance(value, (tuple, list)):
        return (type(value), *map(_parts, value))
    if isinstance(value, dict):
        return (dict, *((_parts(k), _parts(v)) for k, v in value.items()))
    if dataclasses.is_dataclass(value):
        return (type(value), *(_parts(getattr(value, f.name)) for f in dataclasses.fields(value)))
    if isinstance(value, (HarmonicExpansion, SphereGrid)):
        return (type(value), *(_parts(getattr(value, s)) for s in type(value).__slots__ if s[0] != "_"))
    return (type(value), repr(value))


@pytest.mark.parametrize("row", DEGREE_CALLS.values(), ids=DEGREE_CALLS)
def test_numpy_integers_give_the_int_result(row):
    assert _parts(row.call(np.int64(row.good))) == _parts(row.call(row.good))


def _integer_parameters():
    """``"callable.parameter"`` for every parameter annotated ``int``, ``int | None`` or
    ``int | tuple[int, ...]`` of a callable that ``sphcalc`` exports, or of an exported
    class's public methods."""
    targets = []
    for name, value in vars(sphcalc).items():
        if name.startswith("_") or not callable(value):
            continue
        targets.append((name, value))
        if inspect.isclass(value):
            targets += [(f"{name}.{attr}", getattr(value, attr)) for attr in vars(value)
                        if not attr.startswith("_") and callable(getattr(value, attr))]
    found = set()
    for name, target in targets:
        try:
            parameters = inspect.signature(target).parameters.values()
        except ValueError:  # a class that inherits a builtin's constructor
            continue
        found.update(f"{name}.{p.name}" for p in parameters
                     if p.annotation in ("int", "int | None", "int | tuple[int, ...]"))
    return found


def test_every_integer_parameter_of_the_api_has_a_row():
    # a new entry point cannot skip the contract: its integer arguments need a
    # row above, or an entry in NO_ROW with the reason
    covered = {row.covers for row in DEGREE_CALLS.values()} - {None}
    assert sorted(_integer_parameters()) == sorted(covered | set(NO_ROW))


def _refused_peak(call):
    """tracemalloc peak of a call that must raise the range error."""
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=rf"lmax={MAX_LMAX + 1} .*{MAX_LMAX}"):
            call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("call", [
    lambda: orthonormal_legendre_table(MAX_LMAX + 1, [0.37]),
    lambda: orthonormal_sh_values(MAX_LMAX + 1, 0.37, 0.0),
    lambda: sh_eval((MAX_LMAX + 1, 0), (0.3767, 0.0)),
], ids=["table", "point-values", "sh_eval"])
def test_degrees_past_the_validated_range_are_refused_before_allocation(call):
    # the diagonal seed underflows past L~1,900: the addition theorem's deficit
    # was 9.7e-2 at L=2048 with no error, from a 17 MB one-point table
    assert MAX_LMAX == 1850
    assert _refused_peak(call) < 1 << 20


def test_addition_theorem_holds_at_the_ceiling():
    # sum over m = -L..L of N(L,m)^2 is (2L+1)/(4 pi) at every x
    L = MAX_LMAX
    table = orthonormal_legendre_table(L, np.cos([0.15, 0.3767, 0.6]))
    top = table[table_row(L, L, np.arange(L + 1))]
    total = top[0] ** 2 + 2.0 * np.sum(top[1:] ** 2, axis=0)
    exact = (2 * L + 1) / (4.0 * math.pi)
    assert np.max(np.abs(total - exact)) / exact <= 1e-12

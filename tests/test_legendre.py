import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.special import lpmv, sph_harm_y

from sphcalc import (
    SH_SUP_BOUND,
    completeness_kernel,
    generator,
    make_grid,
    orthonormal_legendre_table,
    orthonormal_sh_values,
    pde_residual,
    sh_eval,
    so3_casimir_check,
    table_row,
    uniform_bound_check,
)
from sphcalc.bounds import random_expansion
from sphcalc.expansions import degree_order_arrays, flat_index
from sphcalc.legendre import GROUP, MAX_LMAX, _table_map

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
    got = orthonormal_sh_values(lmax, x, phi)
    want = orthonormal_sh_values_reference(lmax, x, phi)
    # bit for bit, signed zeros included; the scalar-phi product is not C-contiguous
    assert got.shape == want.shape and got.dtype == want.dtype == np.complex128
    assert np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(want).tobytes()


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
    rows, slot, sign, blocks = _table_map(lmax)
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


@pytest.mark.parametrize("call", [
    lambda: orthonormal_legendre_table(-1, [0.3]),
    lambda: orthonormal_sh_values(-1, 0.3, 0.0),
    lambda: uniform_bound_check(-1),
    lambda: table_row(-1, 0, 0),
    lambda: degree_order_arrays(-1),
    lambda: completeness_kernel(-1, (0.1, 0.2), (0.3, 0.4)),
    lambda: pde_residual(-1, 1e-3),
    lambda: generator("L").matrix(-1),
    lambda: so3_casimir_check(-1),
    lambda: random_expansion(3, -1),
    lambda: make_grid(-1),
    lambda: make_grid(4).basis_table(-1),
], ids=["table", "point-values", "sup-scan", "table-row", "flat-order", "kernel", "pde", "matrix",
        "casimir", "random-expansion", "grid", "grid-entry"])
def test_negative_degrees_name_one_error(call):
    # these once raised a bare IndexError or "need at least one array to concatenate"
    with pytest.raises(ValueError, match=r"^lmax must be >= 0$"):
        call()


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

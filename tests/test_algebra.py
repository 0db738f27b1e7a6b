import math
import re
import sys
import tracemalloc
import warnings
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from sphcalc import (
    GENERATOR_NAMES,
    OPERATORS,
    DomainError,
    HarmonicExpansion,
    Operator,
    boundary_vanishing_check,
    closure_check,
    commutator,
    derive_structure_constants,
    generator,
    graded_norm,
    so3_casimir_check,
)
from sphcalc.expansions import degree_order_arrays, flat_index

from reference import from_dict


def amp_of(name, l, m):
    """Plain-basis shift amplitude of a single-shift generator."""
    (column,) = generator(name)._columns(l).values()
    return float(column[flat_index(l, m)].real)


def test_generator_amplitudes_on_plain_basis():
    assert amp_of("K+", 0, 0) == 1.0                      # sqrt((0+1)^2 - 0)
    assert amp_of("J+", 1, 0) == pytest.approx(math.sqrt(2))
    assert amp_of("K-", 0, 0) == 0.0
    assert amp_of("S-", 1, 1) == 0.0
    assert amp_of("R+", 2, 1) == pytest.approx(math.sqrt(5 * 4))
    assert amp_of("L", 3, -2) == 3.0
    assert amp_of("M", 3, -2) == -2.0
    with pytest.raises(KeyError):
        generator("Q+")


def test_apply_diagonal():
    f = HarmonicExpansion.unit(2, 1)
    g = generator("L").apply(f)
    assert g[(2, 1)] == 2.0
    assert g.lmax == 2

    m_only = generator("M").apply(from_dict(3, {(1, 0): 1.0, (3, 0): 2.0}))
    assert np.max(np.abs(m_only.coeffs)) == 0.0


def test_apply_includes_basis_ratio():
    # raising by one degree carries sqrt((2l+1)/(2l+3))
    g = generator("K+").apply(HarmonicExpansion.unit(0, 0))
    assert g.lmax == 1
    assert g[(1, 0)] == pytest.approx(math.sqrt(1 / 3), rel=1e-15)
    h = generator("K-").apply(HarmonicExpansion.unit(1, 0))
    assert h.lmax == 1  # lowering does not grow the table
    assert h[(0, 0)] == pytest.approx(math.sqrt(3), rel=1e-15)


def test_boundary_indices_produce_nothing():
    top = generator("J+").apply(HarmonicExpansion.unit(3, 3))
    assert np.max(np.abs(top.coeffs)) == 0.0
    bottom = generator("K-").apply(HarmonicExpansion.unit(2, 2))
    assert np.max(np.abs(bottom.coeffs)) == 0.0
    r = boundary_vanishing_check(12)
    assert r.lhs == 0.0 and r.passed


def test_commutator_examples():
    jplus = generator("J+")
    e10 = HarmonicExpansion.unit(1, 0)
    lhs = commutator(generator("M"), jplus).apply(e10)
    rhs = jplus.apply(e10)
    np.testing.assert_allclose(lhs.coeffs, rhs.coeffs, atol=1e-15)

    e11 = HarmonicExpansion.unit(1, 1)
    both = commutator(generator("J+"), generator("J-")).apply(e11)
    np.testing.assert_allclose(both.coeffs, (2.0 * e11).coeffs, atol=1e-14)

    zero = commutator(generator("L"), generator("M")).apply(HarmonicExpansion.unit(2, -1))
    assert np.max(np.abs(zero.coeffs)) == 0.0


def test_operator_expression_arithmetic():
    f = HarmonicExpansion.unit(1, 1)
    scaled = (2.5 * generator("M")).apply(f)
    assert scaled[(1, 1)] == 2.5
    summed = (generator("L") + generator("M")).apply(f)
    assert summed[(1, 1)] == 2.0
    diff = (generator("L") - generator("M")).apply(f)
    assert diff[(1, 1)] == 0.0
    composed = (generator("J-") * generator("J+")).apply(HarmonicExpansion.unit(1, 0))
    assert composed[(1, 0)] == pytest.approx(2.0)


def test_matrix_matches_apply():
    op = generator("K+") * generator("J+") + 0.5 * generator("M")
    lmax = 5
    mat = op.matrix(lmax)
    rng = np.random.default_rng(3)
    f = HarmonicExpansion(lmax, rng.standard_normal((lmax + 1) ** 2) + 0j)
    via_apply = op.apply(f)
    via_mat = mat @ f.coeffs
    np.testing.assert_allclose(via_apply.coeffs, via_mat, atol=1e-14)


MATRIX_OPERATORS = {
    **OPERATORS,
    "(-1j)*dPhi": lambda: (-1j) * OPERATORS["dPhi"](),
    "J+*J-": lambda: generator("J+") * generator("J-"),
}


@pytest.mark.parametrize("lmax", [1, 8, 16, 32])
@pytest.mark.parametrize("name", list(MATRIX_OPERATORS))
def test_matrix_scatter_equals_identity_image(name, lmax):
    # the matrix once was the image of the identity block; scattering the
    # stencil gives the same bytes, zeros' signs included, or the same error
    op = MATRIX_OPERATORS[name]()
    identity = np.eye((lmax + 1) ** 2, dtype=np.complex128)
    try:
        expected = op._apply_table(identity, lmax)[0].T
    except DomainError as err:
        with pytest.raises(DomainError, match=re.escape(str(err))):
            MATRIX_OPERATORS[name]().matrix(lmax)
        return
    got = MATRIX_OPERATORS[name]().matrix(lmax)
    assert got.shape == expected.shape and got.tobytes() == expected.tobytes()


def test_closure_and_derived_constants():
    constants, resid = derive_structure_constants(8)
    assert resid <= 1e-10

    def coeffs_of(a, b):
        return {k: v.real for k, v in constants[(a, b)].items() if abs(v) > 1e-9}

    assert coeffs_of("M", "J+") == pytest.approx({"J+": 1.0}, abs=1e-12)
    assert coeffs_of("M", "J-") == pytest.approx({"J-": -1.0}, abs=1e-12)
    assert coeffs_of("L", "K+") == pytest.approx({"K+": 1.0}, abs=1e-12)
    assert coeffs_of("L", "K-") == pytest.approx({"K-": -1.0}, abs=1e-12)
    assert coeffs_of("J+", "J-") == pytest.approx({"M": 2.0}, abs=1e-12)
    assert coeffs_of("L", "J+") == {}
    # opposite ladders close onto the Cartan pair plus the central unit
    assert coeffs_of("K+", "K-") == pytest.approx({"L": -2.0, "1": -1.0}, abs=1e-11)
    assert coeffs_of("R+", "R-") == pytest.approx({"L": -4.0, "M": -4.0, "1": -2.0}, abs=1e-11)
    assert coeffs_of("S+", "S-") == pytest.approx({"L": -4.0, "M": 4.0, "1": -2.0}, abs=1e-11)

    report = closure_check(8)
    assert report.passed
    assert "[J+,J-]" in report.details["structure_constants"]


def test_central_unit_coefficients_are_pinned():
    # the printed Cartan label is off by the half shift, so the opposite-ladder
    # pairs close only through the unit column; without it the largest of these
    # coefficients, 2, would be the fit's residual
    central = {
        ("K+", "K-"): {"L": -2.0, "1": -1.0},
        ("R+", "R-"): {"L": -4.0, "M": -4.0, "1": -2.0},
        ("S+", "S-"): {"L": -4.0, "M": 4.0, "1": -2.0},
    }
    for lmax in (6, 8):
        constants, resid = derive_structure_constants(lmax)
        assert resid <= 1e-10
        for pair, fit in constants.items():
            if pair in central:
                got = {name: c.real for name, c in fit.items() if abs(c) > 1e-9}
                assert got == pytest.approx(central[pair], abs=1e-11), (lmax, pair)
            else:
                assert abs(fit["1"]) <= 1e-11, (lmax, pair)


def _dense_structure_constants(lmax):
    # the global fit the per-shift fit replaced, kept as reference: every map
    # as a dense matrix zero-padded to (lmax+3)^2 rows, all commutators
    # fitted at once against all basis columns
    K_out = (lmax + 3) ** 2

    def padded(op):
        mat = op.matrix(lmax)
        return np.vstack([mat, np.zeros((K_out - mat.shape[0], mat.shape[1]))])

    gens = {name: generator(name) for name in GENERATOR_NAMES}
    columns = {name: padded(op) for name, op in gens.items()}
    columns["1"] = np.eye(K_out, (lmax + 1) ** 2, dtype=np.complex128)
    pairs = list(combinations(GENERATOR_NAMES, 2))
    design = np.stack([col.ravel() for col in columns.values()], axis=1)
    rhs = np.stack([padded(commutator(gens[a], gens[b])).ravel() for a, b in pairs], axis=1)
    sol, *_ = np.linalg.lstsq(design, rhs, rcond=None)
    constants = {pair: dict(zip(columns, sol[:, j])) for j, pair in enumerate(pairs)}
    return constants, float(np.abs(design @ sol - rhs).max())


@pytest.mark.parametrize("lmax", [4, 8])
def test_per_shift_fit_matches_dense_fit(lmax):
    constants, resid = derive_structure_constants(lmax)
    dense, dense_resid = _dense_structure_constants(lmax)
    assert constants.keys() == dense.keys()
    for pair, fit in constants.items():
        assert fit.keys() == dense[pair].keys()
        for name, c in fit.items():
            assert abs(c - dense[pair][name]) <= 1e-12, (pair, name)
    assert resid <= 1e-10 and dense_resid <= 1e-10


def test_closure_check_memory_stays_small():
    # the dense fit stacked 56 maps of (lmax+3)^2 x (lmax+1)^2 entries, a
    # 187 MB tracemalloc peak at lmax 16; the per-shift bands are vectors
    tracemalloc.start()
    try:
        assert closure_check(16).passed
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5e6


def test_so3_casimir():
    report = so3_casimir_check(10)
    assert report.passed
    assert report.lhs <= 1e-12


def test_kplus_norm_bound_on_random_modes():
    rng = np.random.default_rng(12)
    kplus = generator("K+")
    for _ in range(25):
        lmax = int(rng.integers(2, 10))
        ls, ms = degree_order_arrays(lmax)
        coeffs = (ls + np.abs(ms) + 1.0) ** -6 * (
            rng.standard_normal(ls.size) + 1j * rng.standard_normal(ls.size)
        )
        f = HarmonicExpansion(lmax, coeffs)
        for n in range(5):
            assert graded_norm(kplus.apply(f), n) <= 2**n * graded_norm(f, n + 1) * (1 + 1e-14)


# ---------------------------------------------------------------------------
# operator arithmetic folds into shift rules: every expression must match the
# staged application of its parts

def assert_same_expansion(a: HarmonicExpansion, b: HarmonicExpansion, *terms):
    # within 1e-12 of the largest coefficient of a, b or the staged terms
    # (a commutator such as [J+, L] is zero up to the roundoff of its terms)
    lmax = max(a.lmax, b.lmax)
    x, y = a.with_lmax(lmax).coeffs, b.with_lmax(lmax).coeffs
    scale = max(float(np.max(np.abs(e.coeffs))) for e in (a, b, *terms))
    assert np.max(np.abs(x - y)) <= 1e-12 * scale


def seeded_expansion(lmax: int, seed: int) -> HarmonicExpansion:
    re_part, im_part = np.random.default_rng(seed).standard_normal((2, (lmax + 1) ** 2))
    return HarmonicExpansion(lmax, re_part + 1j * im_part)


# invSinLit and expIPhi have a domain that random expansions leave
operator_names = hs.sampled_from(sorted(set(OPERATORS) - {"invSinLit", "expIPhi"}))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    operator_names,
    operator_names,
    hs.floats(-4.0, 4.0, allow_nan=False),
    hs.builds(seeded_expansion, hs.integers(0, 7), hs.integers(0, 2**32 - 1)),
)
def test_operator_arithmetic_matches_staged_application(a, b, s, f):
    A, B = OPERATORS[a](), OPERATORS[b]()
    af, bf = A.apply(f), B.apply(f)
    ab, ba = A.apply(bf), B.apply(af)
    assert_same_expansion((A * B).apply(f), ab)
    assert_same_expansion((A + B).apply(f), af + bf)
    assert_same_expansion((s * A).apply(f), af * s)
    assert_same_expansion(commutator(A, B).apply(f), ab - ba, ab, ba)
    assert_same_expansion(HarmonicExpansion(af.lmax, A.matrix(f.lmax) @ f.coeffs), af)


def test_product_drops_intermediates_outside_the_triangle():
    # unit amplitudes do not vanish at the boundary: (l, l) -> (l-1, l) must
    # be dropped inside the product exactly as staged application drops it
    def flat(dl):
        return Operator(f"flat{dl:+d}", {(dl, 0): lambda l, m: np.ones(l.shape)})

    up, down = flat(+1), flat(-1)
    f = seeded_expansion(4, 11)
    assert_same_expansion((up * down).apply(f), up.apply(down.apply(f)))


def test_product_domain_is_the_net_domain():
    inv_sin, M = OPERATORS["invSinLit"](), generator("M")
    f = from_dict(3, {(2, 0): 1.0, (3, 1): 0.5, (1, -1): 2.0})
    with pytest.raises(DomainError):
        inv_sin.apply(f)
    # M kills the m = 0 part before 1/sin sees it
    assert_same_expansion((inv_sin * M).apply(f), inv_sin.apply(M.apply(f)))

    with pytest.raises(DomainError, match=re.escape("(1,-1)")):
        OPERATORS["expIPhi"]().apply(HarmonicExpansion.unit(1, -1, 3))


def test_singular_amplitude_raises_no_warning():
    inv_sin = OPERATORS["invSinLit"]()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        g = inv_sin.apply(HarmonicExpansion.unit(2, 1, 4))
        assert np.all(np.isfinite(g.coeffs))
        with pytest.raises(DomainError):
            inv_sin.matrix(4)


def test_stencil_covers_only_the_flagged_sources():
    # a probe block flags a few modes of a degree-71 table; the stencil once
    # gave every valid source an entry, about 5,000 per shift
    ls, ms = degree_order_arrays(6)
    support = np.isin(np.arange(ls.size), flat_index(np.array([2, 3, 6]), np.array([1, -2, 6])))
    domain = (ms != 0) & (ms != -1)  # in every operator's domain, the flagged modes included
    for name, make in OPERATORS.items():
        op = make()
        for (src, tgt, coef), (whole_src, whole_tgt, whole_coef) in zip(
            op._stencil(6, support), op._stencil(6, domain), strict=True
        ):
            keep = support[whole_src]
            assert src.tolist() == whole_src[keep].tolist(), name
            assert tgt.tolist() == whole_tgt[keep].tolist(), name
            assert coef.tobytes() == whole_coef[keep].tobytes(), name


@pytest.mark.parametrize("expr, lmax", [
    (lambda: OPERATORS["K-"]() * OPERATORS["K+"](), 3),
    (lambda: OPERATORS["K+"]() * OPERATORS["K-"](), 3),
    (lambda: commutator(OPERATORS["K+"](), OPERATORS["K-"]()), 3),
    (lambda: OPERATORS["K+"]() * OPERATORS["K+"](), 5),
    (lambda: OPERATORS["cosTheta"]() * OPERATORS["cosTheta"](), 5),
], ids=["K-*K+", "K+*K-", "[K+,K-]", "K+*K+", "cosTheta*cosTheta"])
def test_product_lmax_grows_by_the_net_shift(expr, lmax):
    # the growth is the largest net dl, not the sum of the factors' growths
    assert expr().apply(seeded_expansion(3, 5)).lmax == lmax


def test_long_product_matches_staged_application():
    cos = OPERATORS["cosTheta"]()
    power = cos
    for _ in range(29):
        power = power * cos
    f = seeded_expansion(16, 21)
    staged = f
    for _ in range(30):
        staged = cos.apply(staged)
    assert_same_expansion(power.apply(f), staged)
    assert len(power._columns(16)) <= 31


def _staged_commutator(ops, f, terms):
    # [[..[ops[0], ops[1]], ..], ops[-1]] f, one factor at a time
    if len(ops) == 1:
        return ops[0].apply(f)
    ab = _staged_commutator(ops[:-1], ops[-1].apply(f), terms)
    ba = ops[-1].apply(_staged_commutator(ops[:-1], f, terms))
    terms += [ab, ba]
    return ab - ba


def test_nested_commutator_matches_staged_application():
    names = ["cosTheta", "dThetaLit", "sinExp+", "K+", "J-", "cosTheta", "sinExp-", "R+", "S-"]
    ops = [OPERATORS[name]() for name in names]
    nested = ops[0]
    for op in ops[1:]:
        nested = commutator(nested, op)
    assert nested.name == "[[[[[[[[cosTheta,dThetaLit],sinExp+],K+],J-],cosTheta],sinExp-],R+],S-]"
    f = seeded_expansion(8, 31)
    terms = []
    staged = _staged_commutator(ops, f, terms)
    # inner levels cancel to roundoff, so the scale is the largest staged term
    assert_same_expansion(nested.apply(f), staged, *terms)


def test_shared_operator_is_deterministic_across_threads():
    from concurrent.futures import ThreadPoolExecutor

    def make():
        return commutator(OPERATORS["cosTheta"](), OPERATORS["dThetaLit"]())

    inputs = [seeded_expansion(4 + i % 5, 40 + i) for i in range(16)]
    reference = [make().apply(f).coeffs for f in inputs]
    shared = make()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(shared.apply, f) for f in inputs]
            results = [future.result(timeout=60).coeffs for future in futures]
    finally:
        sys.setswitchinterval(interval)
    for got, want in zip(results, reference):
        np.testing.assert_array_equal(got, want)
    stored = [c for columns in shared._cache.values() for c in columns.values()]
    assert stored and not any(c.flags.writeable for c in stored)

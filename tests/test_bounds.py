import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.special import zeta

from sphcalc import (
    OPERATORS,
    DomainError,
    HarmonicExpansion,
    SpherePoint,
    bound_point_functional,
    claim_margins,
    continuity_criterion_check,
    continuity_criterion_checks,
    functional_constant,
    graded_norm,
    point_eval,
    weak_eigen_cos,
)
from sphcalc import algebra, bounds, legendre, structural
from sphcalc.bounds import _CLAIMS, BoundClaim, random_expansion, substream
from sphcalc.expansions import degree_weights, flat_index
from sphcalc.verify import suite_bounds

from reference import suite_bounds_reference

# claims the registered ones do not make: the first fails on high-degree
# single modes, the second on the constant mode at n = 2
FALSE_CLAIMS = [
    ("K+", BoundClaim(lambda n: 1.0, lambda n: (n,), 1)),
    ("cosTheta", BoundClaim(lambda n: 2.0, lambda n: (n + 1,), 4)),
]


def margins_at(op_name, f, n):
    """``(lhs, rhs)`` of the registered claim for one expansion at order ``n``."""
    lhs, rhs = claim_margins(op_name, f.coeffs[None, :], f.lmax)
    return lhs[0, n], rhs[0, n]


def block(seed, trials, lmax):
    return np.array([random_expansion((seed, t), lmax).coeffs for t in range(trials)])


def test_oversized_claim_order_raises_instead_of_inf_or_nan(monkeypatch):
    # the weights (l+|m|+1)^800 leave the double range at lmax 8
    monkeypatch.setitem(_CLAIMS, "L", BoundClaim(lambda n: 1.0, lambda n: (400,), 0))
    with pytest.raises(OverflowError):
        claim_margins("L", block(3, 4, 8), 8)
    with pytest.raises(OverflowError):
        continuity_criterion_check("L", trials=16, seed=3, lmax=8)


def test_falsifier_refuses_zero_trials_before_any_draw(monkeypatch):
    # zero trials once ended in numpy's argmin of an empty margin table
    draws = []
    monkeypatch.setattr(bounds, "_random_rows", lambda *args: draws.append(args))
    monkeypatch.setattr(bounds, "substream", lambda *args: draws.append(args))
    with pytest.raises(ValueError, match="^trials must be >= 1, got 0$"):
        continuity_criterion_checks(["K+", "L"], 0, 42, 16)
    with pytest.raises(ValueError, match="^trials must be >= 1, got 0$"):
        continuity_criterion_check("cosTheta", trials=0, seed=42, lmax=16)
    with pytest.raises(ValueError, match="^trials must be >= 1, got -3$"):
        continuity_criterion_checks(["M"], -3, 42, 16)
    assert draws == []


def test_suite_bounds_tries_every_registered_claim(monkeypatch):
    # the suite falsifies the names of _CLAIMS, in its order: a claim added there is tried
    monkeypatch.setitem(_CLAIMS, "J+", BoundClaim(lambda n: 1.0, lambda n: (n + 1,), 2))
    checks = [r.check for r in suite_bounds(4, 8, 42)]
    names = ["K+", "L", "M", "cosTheta", "dThetaLit", "J+"]
    assert checks[:6] == [f"{name}_claimed_bound" for name in names]


def test_bound_kplus_single_mode():
    lhs, rhs = margins_at("K+", HarmonicExpansion.unit(0, 0), 0)
    assert lhs == pytest.approx(math.sqrt(1 / 3), rel=1e-14)
    assert rhs == pytest.approx(1.0)
    assert rhs - lhs == pytest.approx(1.0 - math.sqrt(1 / 3), rel=1e-12)
    assert rhs - lhs >= 0


def test_bound_kplus_random_scan():
    lhs, rhs = claim_margins("K+", block(1000, 60, 10), 10)
    assert lhs.shape == (60, 5)
    assert np.all(rhs - lhs >= 0)


def test_bound_kplus_zero_input():
    lhs, rhs = margins_at("K+", HarmonicExpansion.zeros(3), 2)
    assert lhs == 0.0 and rhs == 0.0


def test_bound_L_single_mode():
    lhs, rhs = margins_at("L", HarmonicExpansion.unit(2, 1), 1)
    assert lhs == pytest.approx(8.0)   # 2 * 4
    assert rhs == pytest.approx(16.0)  # 4^2
    assert rhs - lhs >= 0


def test_bound_cos_single_mode():
    lhs, rhs = margins_at("cosTheta", HarmonicExpansion.unit(0, 0), 0)
    assert lhs == pytest.approx(math.sqrt(1 / 3), rel=1e-14)
    assert rhs == pytest.approx(2.0)
    assert rhs - lhs >= 0


def test_cos_bound_needs_order_dependent_constant(monkeypatch):
    # an n-independent constant 2 is falsified by the constant mode: the
    # image sits one degree up, where the order-n weight has doubled
    f = HarmonicExpansion.unit(0, 0)
    g = None
    from sphcalc import cos_theta_op

    g = cos_theta_op().apply(f)
    assert graded_norm(g, 2) > 2.0 * graded_norm(f, 3)
    monkeypatch.setitem(_CLAIMS, "cosTheta", BoundClaim(lambda n: 2.0, lambda n: (n + 1,), 4))
    r = continuity_criterion_check("cosTheta", trials=64, seed=13, lmax=8)
    assert not r.passed


def test_bound_dtheta_single_mode():
    lhs, rhs = margins_at("dThetaLit", HarmonicExpansion.unit(1, 0), 1)
    # image is -+ sqrt(2)/2 at (1, -+1), each with weight 3
    assert lhs == pytest.approx(3.0, rel=1e-14)
    assert rhs == pytest.approx(0.5 * (4.0 + 16.0))
    assert rhs - lhs >= 0


@pytest.mark.parametrize(
    "op_name,n_top",
    [("L", 4), ("cosTheta", 4), ("dThetaLit", 2)],
    ids=["bound_L-4", "bound_cos-4", "bound_dtheta-2"],
)
def test_bound_random_scans(op_name, n_top):
    lhs, rhs = claim_margins(op_name, block(1100, 40, 9), 9)
    assert lhs.shape == (40, n_top + 1)
    assert np.all(rhs - lhs >= 0)


def test_margins_scale_invariant():
    rows = random_expansion((7, 0), 8).coeffs[None, :]
    for name in ("K+", "L", "cosTheta", "dThetaLit"):
        base_lhs, base_rhs = (side[0, 1] for side in claim_margins(name, rows, 8))
        lhs, rhs = (side[0, 1] for side in claim_margins(name, 137.0 * rows, 8))
        assert lhs == pytest.approx(137.0 * base_lhs, rel=1e-12)
        assert rhs == pytest.approx(137.0 * base_rhs, rel=1e-12)
        assert (rhs - lhs >= 0) == (base_rhs - base_lhs >= 0)


def test_functional_constant_values():
    # p = 3 partial sum telescopes to zeta values: (4 z(4) - 4 z(5) + z(6))/(4 pi)
    exact_sq = (4 * zeta(4) - 4 * zeta(5) + zeta(6)) / (4 * math.pi)
    c3 = functional_constant(3)
    assert c3 == pytest.approx(math.sqrt(exact_sq), rel=1e-6)
    assert c3 <= 0.3089
    assert functional_constant(2) < 0.5
    values = [functional_constant(p) for p in range(2, 8)]
    assert all(a > b for a, b in zip(values, values[1:]))
    # large order limit: only the l = 0 term survives
    assert functional_constant(40) == pytest.approx(1 / math.sqrt(4 * math.pi), rel=1e-8)
    with pytest.raises(ValueError):
        functional_constant(1)


def test_functional_constant_is_warning_free_at_high_order():
    # (l + 1)^(2p) passes the double range from p = 43 and once warned twice
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for p in (43, 60, 400):
            assert math.isfinite(functional_constant(p))
        degs = np.arange(4001, dtype=np.float64)
        for p in range(2, 43):
            # the unguarded formula, which stays in range below p = 43
            partial = float(np.sum((2 * degs + 1) ** 2 / (4 * math.pi * (degs + 1) ** (2 * p))))
            tail = 4001.0 ** (3 - 2 * p) / (math.pi * (2 * p - 3))
            assert functional_constant(p) == math.sqrt(partial + tail)


def test_point_functional_single_mode():
    f = HarmonicExpansion.unit(0, 0)
    r = bound_point_functional(f, (0.3, 0.4), 3)
    assert r.lhs == pytest.approx(1 / math.sqrt(4 * math.pi), rel=1e-13)
    assert r.rhs == pytest.approx(functional_constant(3), rel=1e-13)
    assert r.passed


def test_point_functional_scan():
    rng = np.random.default_rng(8)
    for t in range(25):
        f = random_expansion((1200, t), 10)
        for _ in range(4):
            p = (float(np.arccos(rng.uniform(-1, 1))), float(rng.uniform(0, 2 * math.pi)))
            assert bound_point_functional(f, p, 3).passed
        assert bound_point_functional(HarmonicExpansion.zeros(2), p, 2).passed


def test_point_functional_validation():
    with pytest.raises(ValueError):
        bound_point_functional(HarmonicExpansion.unit(0, 0), SpherePoint(0.1, 0.1), 1)


def test_weak_eigen_cos_closed_form():
    f = HarmonicExpansion.unit(0, 0)
    p = (math.pi / 3, 0.0)
    r = weak_eigen_cos(f, p)
    assert r.passed
    assert point_eval(f, p) == pytest.approx(1 / math.sqrt(4 * math.pi))


def test_weak_eigen_cos_random_and_pole():
    for t in range(20):
        f = random_expansion((1300, t), 9)
        assert weak_eigen_cos(f, (1.1, 2.2)).passed
    f = random_expansion((1300, 0), 9)
    r = weak_eigen_cos(f, (0.0, 0.0))  # cos(0) = 1: both sides are the pole value
    assert r.passed


def test_falsifier_true_claims_hold():
    for name in ("K+", "L", "M", "cosTheta", "dThetaLit"):
        r = continuity_criterion_check(name, trials=120, seed=9, lmax=8)
        assert r.passed, name
    with pytest.raises(KeyError):
        continuity_criterion_check("nosuch", trials=2, seed=42, lmax=12)


def test_falsifier_rejects_false_claim(monkeypatch):
    # claiming |K+ f|_1 <= |f|_1 fails on a single high-degree mode
    monkeypatch.setitem(_CLAIMS, "K+", BoundClaim(lambda n: 1.0, lambda n: (n,), 1))
    r = continuity_criterion_check("K+", trials=64, seed=11, lmax=10)
    assert not r.passed
    assert r.margin < 0


def test_unit_mode_sweeps_hold_and_pin_tightest_case():
    identity = np.eye(25 * 25, dtype=np.complex128)
    for name in ("K+", "L", "M", "cosTheta", "dThetaLit"):
        lhs, rhs = claim_margins(name, identity, 24)
        assert np.all(rhs - lhs >= 0), name
    # tightest case for the degree-raiser is the constant mode at n = 0
    lhs, rhs = claim_margins("K+", identity, 24)
    mode, n = np.unravel_index(np.argmin(rhs - lhs), lhs.shape)
    assert (mode, n) == (0, 0)
    assert rhs[mode, n] - lhs[mode, n] == pytest.approx(1.0 - math.sqrt(1 / 3), rel=1e-12)


def reference_falsifier(name, trials, seed, lmax, claim):
    """Per-trial loop: ``op.apply`` and ``graded_norm`` on each seeded input."""
    op = OPERATORS[name]()
    worst = None
    for t in range(trials):
        if t % 8 == 7:
            rng = np.random.default_rng((seed, t))
            l = int(rng.integers(lmax, 4 * lmax + 8))
            f = HarmonicExpansion.unit(l, int(rng.integers(-l, l + 1)))
        else:
            f = random_expansion((seed, t), lmax)
        g = op.apply(f)
        for n in range(claim.max_n + 1):
            lhs = graded_norm(g, n)
            rhs = claim.constant(n) * sum(graded_norm(f, q) for q in claim.indices(n))
            if worst is None or rhs - lhs < worst[1] - worst[0]:
                worst = (lhs, rhs, n, t)
    return worst


def test_batched_scan_matches_per_trial(monkeypatch):
    cases = [(name, 200, 5, 8, claim) for name, claim in _CLAIMS.items()]
    (kplus, kplus_claim), (cos, cos_claim) = FALSE_CLAIMS
    cases += [(kplus, 64, 11, 10, kplus_claim), (cos, 64, 13, 8, cos_claim)]
    # 525 smooth trials: three blocks of the falsifier's draws
    assert bounds._TRIAL_BLOCK < 525 <= 3 * bounds._TRIAL_BLOCK
    cases += [("cosTheta", 600, 17, 6, _CLAIMS["cosTheta"])]
    registered = dict(_CLAIMS)
    for name, trials, seed, lmax, claim in cases:
        with monkeypatch.context() as patch:
            patch.setitem(_CLAIMS, name, claim)  # the falsifier reads the claim from the table
            r = continuity_criterion_check(name, trials=trials, seed=seed, lmax=lmax)
        expected = reference_falsifier(name, trials, seed, lmax, claim)
        assert (r.lhs, r.rhs, r.n, r.details["worst_trial"]) == expected, name
        assert r.passed == (claim is registered[name]), name


def test_falsifier_memory_does_not_grow_with_trials():
    # smooth trials are drawn and measured in fixed blocks: only the two
    # (trials, max_n + 1) margin arrays grow, 40 bytes a trial each
    def peak(trials):
        tracemalloc.start()
        try:
            continuity_criterion_check("cosTheta", trials=trials, seed=3, lmax=16)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(4000) <= 1.5 * peak(500)


def unit_rows(modes, lmax):
    """One unit row per flat index in ``modes``, each of ``(lmax + 1)**2`` coefficients."""
    rows = np.zeros((len(modes), (lmax + 1) ** 2), dtype=np.complex128)
    rows[np.arange(len(modes)), modes] = 1.0
    return rows


@pytest.mark.parametrize("lmax", [0, 1, 2, 10, 24, 48])
def test_unit_row_margins_equal_identity_rows(monkeypatch, lmax):
    # a block of unit rows gets a stencil over its own modes only; each row's
    # margins must be those it has beside a row carrying every mode, whose
    # stencil is the whole identity block's
    K = (lmax + 1) ** 2
    units = unit_rows(np.arange(K - 1, -1, -11), lmax)
    for name, claim in [*_CLAIMS.items(), *FALSE_CLAIMS]:
        with monkeypatch.context() as patch:
            patch.setitem(_CLAIMS, name, claim)
            sparse = claim_margins(name, units, lmax)
            dense = claim_margins(name, np.vstack([units, np.ones((1, K))]), lmax)
        for side, expected in zip(sparse, dense):
            assert side.tobytes() == expected[:-1].tobytes(), (name, lmax)


@pytest.mark.parametrize("l", [0, 1, 16, 47])
def test_unit_row_margins_do_not_depend_on_the_table_degree(l):
    # the falsifier measures every probe as a unit row at its highest probe
    # degree; 71 is the highest it reaches at lmax 16
    modes = flat_index(l, np.arange(-l, l + 1))
    for name in _CLAIMS:
        top = claim_margins(name, unit_rows(modes, 71), 71)
        own = claim_margins(name, unit_rows(modes, l), l)
        for side, expected in zip(top, own):
            assert side.tobytes() == expected.tobytes(), name


def test_falsifiers_over_one_draw_match_per_trial(monkeypatch):
    true_claims = list(_CLAIMS.items())
    for false_claims in ([], FALSE_CLAIMS):
        with monkeypatch.context() as patch:
            for name, claim in false_claims:
                patch.setitem(_CLAIMS, name, claim)
            names, claims = zip(*_CLAIMS.items())
            reports = continuity_criterion_checks(names, 200, 5, 8)
        for r, name, claim in zip(reports, names, claims):
            expected = reference_falsifier(name, 200, 5, 8, claim)
            assert (r.lhs, r.rhs, r.n, r.details["worst_trial"]) == expected, name
            assert r.passed == ((name, claim) in true_claims), name
    registered = continuity_criterion_checks(list(_CLAIMS), 50, 42, 16)
    assert [repr(r) for r in registered] == [
        repr(continuity_criterion_check(name, trials=50, seed=42, lmax=16)) for name in _CLAIMS
    ]


def test_suite_bounds_draws_once_and_builds_one_probe_table_per_operator(monkeypatch):
    calls = {"rows": [], "margins": []}
    draw, margins = bounds._random_rows, bounds.claim_margins

    def counted_draw(seeds, *args, **kwargs):
        calls["rows"].append(list(seeds))
        return draw(seeds, *args, **kwargs)

    def counted_margins(name, rows, lmax):
        calls["margins"].append((name, rows.shape[0], lmax))
        return margins(name, rows, lmax)

    monkeypatch.setattr(bounds, "_random_rows", counted_draw)
    monkeypatch.setattr(bounds, "claim_margins", counted_margins)
    suite_bounds(16, 50, 42)
    # one block of smooth draws serves the five falsifiers and the point functionals
    assert calls["rows"] == [[(42, t) for t in range(50)]]
    # then the six probes, one block of unit rows at the top probe degree
    smooth, probes = calls["margins"][:len(_CLAIMS)], calls["margins"][len(_CLAIMS):]
    assert smooth == [(name, 44, 16) for name in _CLAIMS]
    top = probes[0][2]
    assert top > 16 and probes == [(name, 6, top) for name in _CLAIMS]


def test_suite_bounds_ranks_its_point_functionals_in_small_tables():
    # the 500 function-point values once came from one (500, 289) complex
    # table beside its real factors: a peak of 7.3 MB warm, 8.2 MB cold
    tracemalloc.start()
    try:
        suite_bounds(16, 50, 42)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20


def test_suite_bounds_builds_one_table_for_its_points(monkeypatch):
    # the 500 function-point values once took seven tables, one per 8 functions;
    # the image's last points take one more, the worst pair's point certificate
    # one, and the weak eigenrelation record at (pi/3, 0) two: f and its image
    built, build = [], legendre.orthonormal_legendre_table

    def counted(lmax, x):
        built.append((lmax, np.size(x)))
        return build(lmax, x)

    monkeypatch.setattr(legendre, "orthonormal_legendre_table", counted)
    suite_bounds(16, 50, 42)
    assert built == [(16, 500), (17, 50), (16, 1), (17, 1), (16, 1)]


@pytest.mark.parametrize("seed", [42, "points", (7, ("real", (3, "x")))], ids=["integer", "label", "nested-tuple"])
def test_generators_draw_the_default_rng_stream(seed):
    # substream and _random_rows build Generator(PCG64(entropy)) directly:
    # default_rng(entropy) returns that generator, so the draws are the same
    want = np.random.default_rng(bounds._seed_entropy((seed, "sub")))
    got = substream(seed, "sub")
    assert got.bit_generator.state == want.bit_generator.state
    assert got.standard_normal(32).tobytes() == want.standard_normal(32).tobytes()
    rng = np.random.default_rng(bounds._seed_entropy(seed))
    scale = degree_weights(6) ** -1.5
    want = scale * (rng.standard_normal(scale.size) + 1j * rng.standard_normal(scale.size))
    assert bounds._random_rows([seed], 6, 1.5)[0].tobytes() == want.tobytes()


def test_unit_row_margins_read_the_claim_table_and_wider_operators(monkeypatch):
    # each call reads the operator's claim from the table
    identity = np.eye(49, dtype=np.complex128)
    lhs, rhs = claim_margins("K+", identity, 6)
    claim = _CLAIMS["K+"]
    with monkeypatch.context() as patch:
        patch.setitem(_CLAIMS, "K+", BoundClaim(lambda n: 2.0 * claim.constant(n), claim.indices, claim.max_n))
        doubled = claim_margins("K+", identity, 6)
    assert doubled[0].tobytes() == lhs.tobytes() and doubled[1].tobytes() == (2.0 * rhs).tobytes()
    with pytest.raises(KeyError):
        claim_margins("J+", identity, 6)  # registered operator, no registered claim
    # expIPhi has four shifts; the unit row's image norms are those of its applied image
    monkeypatch.setitem(_CLAIMS, "expIPhi", BoundClaim(lambda n: 1.0, lambda n: (n,), 2))
    op = OPERATORS["expIPhi"]()
    assert len(op.shifts) == 4
    lhs, rhs = claim_margins("expIPhi", np.eye(1, dtype=np.complex128), 0)
    image = op.apply(HarmonicExpansion.unit(0, 0))
    assert lhs.tolist() == [[graded_norm(image, n) for n in range(3)]] and rhs.tolist() == [[1.0, 1.0, 1.0]]
    with pytest.raises(DomainError, match=re.escape("(1,-1)")):
        claim_margins("expIPhi", unit_rows([flat_index(1, -1)], 1), 1)


@pytest.mark.parametrize(
    "lmax,trials,seed",
    [(16, 50, 42), (8, 200, 5), (4, 7, 5), (1, 8, 3), (16, 120, 123456), (16, 7, 3), (16, 8, 3)],
)
def test_suite_bounds_matches_per_function_loop(lmax, trials, seed):
    got = suite_bounds(lmax, trials, seed)
    assert [repr(r) for r in got] == [repr(r) for r in suite_bounds_reference(lmax, trials, seed)]


def test_weak_eigen_screen_passes_every_failure_through(monkeypatch):
    # a perturbed cos(Theta) fails the eigenrelation for every function: the
    # screen must hand each pair to the one-point certificate
    original = structural.cos_theta_op
    monkeypatch.setattr(structural, "cos_theta_op", lambda: 1.000001 * original())
    monkeypatch.setattr(bounds, "cos_theta_op", lambda: 1.000001 * original())
    for lmax, trials, seed in [(16, 50, 42), (6, 9, 5)]:
        got = suite_bounds(lmax, trials, seed)
        weak = [r for r in got if r.check == "weak_eigen_cos"]
        assert len(weak) == max(4, min(trials, 100)) + 1 and not any(r.passed for r in weak)
        assert [repr(r) for r in got] == [repr(r) for r in suite_bounds_reference(lmax, trials, seed)]


def reference_point_functional(trials, seed, lmax):
    """Per-point loop: a one-point certificate for each of ten points per function."""
    worst = None
    rng = substream(seed, "points")
    for t in range(max(4, min(trials, 100))):
        f = random_expansion((seed, t), lmax)
        for _ in range(10):
            theta = float(np.arccos(rng.uniform(-1, 1)))
            r = bound_point_functional(f, (theta, float(rng.uniform(0, 2 * math.pi))), 3, seed=seed)
            if worst is None or r.margin < worst.margin:
                worst = r
    return worst


@pytest.mark.parametrize("seed", [42, 7, 123456])
@pytest.mark.parametrize("trials", [2, 50])
def test_suite_point_functional_matches_per_point_loop(monkeypatch, seed, trials):
    calls = []
    original = bounds.bound_point_functional

    def certify(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(bounds, "bound_point_functional", certify)
    (record,) = [r for r in suite_bounds(16, trials, seed) if r.check == "point_functional"]
    assert len(calls) == 1  # only the worst pair is certified on its own
    expected = reference_point_functional(trials, seed, 16)
    assert repr(record) == repr(expected)  # lhs, rhs, seed, lmax, n, ...
    assert repr(record.margin) == repr(expected.margin)


def test_random_expansion_reproducible():
    a = random_expansion((3, 4), 6)
    b = random_expansion((3, 4), 6)
    np.testing.assert_array_equal(a.coeffs, b.coeffs)
    c = random_expansion((3, 5), 6)
    assert np.max(np.abs(a.coeffs - c.coeffs)) > 0


def test_claim_margins_refuse_rows_of_the_wrong_width_before_applying(monkeypatch):
    # rows of one column once reached the operator and ended in an IndexError
    def no_apply(self, rows, lmax):
        raise AssertionError("the operator read rows of the wrong width")

    monkeypatch.setattr(algebra.Operator, "_apply_table", no_apply)
    with pytest.raises(ValueError, match=r"^table shape \(2, 1\): rows need \(lmax \+ 1\)\*\*2 = 9 values at lmax=2$"):
        claim_margins("L", np.ones((2, 1)), 2)

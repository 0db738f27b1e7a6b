import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from sphcalc import (
    DecayEstimate,
    HarmonicExpansion,
    HarmonicIndex,
    SpherePoint,
    estimate_decay,
    graded_norm,
    graded_norms,
    hilbert_norm,
    load_expansion,
    save_expansion,
    sh_eval,
)
from sphcalc.expansions import CoefficientFileError, INCONCLUSIVE, RAPID_DECAY, SLOW_DECAY

import reference_io
from reference import from_dict


def test_index_invariants():
    HarmonicIndex(3, -3)
    with pytest.raises(ValueError):
        HarmonicIndex(2, 3)
    with pytest.raises(ValueError):
        HarmonicIndex(-1, 0)


@pytest.mark.parametrize("l, m", [(1.5, 0.5), (1.9, 0.2), (2.0, 1), (1, 0.0)])
def test_non_integer_index_parts_are_refused(l, m):
    # int() once truncated both parts: (1.9, 0.2) read and evaluated (1, 0)
    name, value = ("order m", m) if type(l) is int else ("degree l", l)
    message = rf"^{name} must be an integer, got {value!r}$"
    with pytest.raises(TypeError, match=message):
        HarmonicIndex(l, m)
    with pytest.raises(TypeError, match=message):
        HarmonicExpansion.unit(1, 0, 2)[(l, m)]
    with pytest.raises(TypeError, match=message):
        sh_eval((l, m), (0.3, 0.4))


def test_numpy_integer_index_parts_still_work():
    f = HarmonicExpansion.unit(2, -1)
    l, m = np.int64(2), np.int64(-1)
    assert HarmonicIndex(l, m) == HarmonicIndex(2, -1)
    assert f[(l, m)] == f[(2, -1)] == 1.0
    assert sh_eval((l, m), (0.3, 0.4)) == sh_eval((2, -1), (0.3, 0.4))


def test_point_invariants():
    SpherePoint(0.0, 0.0)
    SpherePoint(math.pi, 6.28)
    with pytest.raises(ValueError):
        SpherePoint(4.0, 0.0)
    with pytest.raises(ValueError):
        SpherePoint(1.0, 2.0 * math.pi)


def test_expansion_storage_invariants():
    f = HarmonicExpansion.zeros(3)
    assert f.coeffs.size == 16
    with pytest.raises(ValueError):
        HarmonicExpansion(2, np.zeros(5))
    with pytest.raises(ValueError):
        HarmonicExpansion(1, np.array([1.0, np.nan, 0.0, 0.0]))
    with pytest.raises(AttributeError):
        f.lmax = 5
    assert not f.coeffs.flags.writeable


def test_graded_norm_single_entries():
    # one-term sums: weight (l+|m|+1)^n
    f = HarmonicExpansion.unit(2, 1)
    assert graded_norm(f, 2) == pytest.approx(16.0, abs=0)
    g = HarmonicExpansion.unit(0, 0)
    for n in (0, 1, 5):
        assert graded_norm(g, n) == 1.0


def test_graded_norm_two_terms():
    f = from_dict(1, {(1, 1): 1.0, (1, -1): 1.0})
    assert graded_norm(f, 1) == pytest.approx(math.sqrt(18.0), rel=1e-15)


def test_graded_norm_rejects_bad_order():
    f = HarmonicExpansion.unit(1, 0)
    with pytest.raises(ValueError):
        graded_norm(f, -1)
    with pytest.raises(OverflowError):
        graded_norm(f, 10**6)


def test_graded_norms_rows_equal_graded_norm_bitwise():
    lmax = 7
    K = (lmax + 1) ** 2
    rng = np.random.default_rng(5)
    scale = np.logspace(0, -9, K)
    table = scale * (rng.standard_normal((6, K)) + 1j * rng.standard_normal((6, K)))
    for n in range(6):
        rows = graded_norms(table, lmax, n)
        assert rows.shape == (6,)
        for t in range(6):
            one = graded_norm(HarmonicExpansion(lmax, table[t]), n)
            assert rows[t] == one
            assert graded_norms(table[t], lmax, n) == one


@pytest.mark.parametrize("shape, lmax, n", [((3, 1), 2, 1), ((1,), 3, 0), ((2, 5), 1, 0), ((4, 0), 0, 2)])
def test_graded_norms_refuse_a_table_of_the_wrong_width(shape, lmax, n):
    # one column was broadcast against the (lmax + 1)**2 weights: np.ones((3, 1))
    # at lmax 2 read 10.677 a row, np.ones(1) at lmax 3 read 4.0
    with pytest.raises(ValueError, match=rf"^table shape \({shape[0]},.*\): rows need "
                                         rf"\(lmax \+ 1\)\*\*2 = {(lmax + 1) ** 2} values at lmax={lmax}$"):
        graded_norms(np.ones(shape), lmax, n)


def test_norm_profile_examples():
    # the graded norms of orders 0..N
    f = HarmonicExpansion.unit(1, 0)
    assert [graded_norm(f, n) for n in range(4)] == pytest.approx([1.0, 2.0, 4.0, 8.0])
    z = HarmonicExpansion.zeros(2)
    assert [graded_norm(z, n) for n in range(3)] == [0.0, 0.0, 0.0]
    g = HarmonicExpansion.unit(2, 1)
    assert [graded_norm(g, n) for n in range(3)] == pytest.approx([1.0, 4.0, 16.0])


def test_hilbert_norm():
    assert hilbert_norm(HarmonicExpansion.unit(0, 0)) == 1.0
    f = from_dict(1, {(0, 0): 3.0, (1, 1): 4.0})
    assert hilbert_norm(f) == pytest.approx(5.0, rel=1e-15)
    assert hilbert_norm(f) == graded_norm(f, 0)


def test_hilbert_norm_matches_quadrature():
    from sphcalc import make_grid, quadrature_inner_product, synthesize
    from sphcalc.bounds import random_expansion

    f = random_expansion(11, 12, decay=1.5)
    field = synthesize(f, make_grid(12))
    quad = quadrature_inner_product(field, field).real
    assert abs(quad - hilbert_norm(f) ** 2) <= 1e-10 * quad


@pytest.mark.parametrize("trial", range(8))
def test_norm_family_properties(trial):
    from sphcalc.bounds import random_expansion

    f = random_expansion((900, trial), 9, decay=2.0)
    g = random_expansion((901, trial), 9, decay=2.0)
    profile = [graded_norm(f, n) for n in range(6)]
    assert all(a <= b * (1 + 1e-15) for a, b in zip(profile, profile[1:]))
    alpha = 0.37 - 1.2j
    for n in (0, 2, 4):
        # absolute homogeneity and the triangle inequality
        assert graded_norm(alpha * f, n) == pytest.approx(
            abs(alpha) * graded_norm(f, n), rel=1e-14
        )
        assert graded_norm(f + g, n) <= graded_norm(f, n) + graded_norm(g, n) + 1e-12


def test_estimate_decay_synthetic():
    lmax = 32
    fast = from_dict(
        lmax, {(l, 0): (l + 1.0) ** -6 for l in range(lmax + 1)}
    )
    est = estimate_decay(fast)
    assert est.verdict == RAPID_DECAY
    assert est.exponent == pytest.approx(6.0, abs=0.3)

    slow = from_dict(
        lmax, {(l, 0): (l + 1.0) ** -1 for l in range(lmax + 1)}
    )
    est = estimate_decay(slow)
    assert est.verdict == SLOW_DECAY
    assert est.exponent == pytest.approx(1.0, abs=0.1)


def test_estimate_decay_degenerate():
    assert estimate_decay(HarmonicExpansion.zeros(8)).verdict == INCONCLUSIVE
    only_l0 = from_dict(8, {(0, 0): 1.0})
    assert estimate_decay(only_l0).verdict == INCONCLUSIVE
    with pytest.raises(ValueError):
        estimate_decay(HarmonicExpansion.zeros(3))


def test_expansion_arithmetic_and_padding():
    f = HarmonicExpansion.unit(1, 0)
    g = HarmonicExpansion.unit(2, 2)
    s = f + g
    assert s.lmax == 2 and s[(1, 0)] == 1.0 and s[(2, 2)] == 1.0
    assert (2.0 * f)[(1, 0)] == 2.0
    with pytest.raises(ValueError):
        g.with_lmax(1)


def test_coefficient_file_round_trip(tmp_path):
    from sphcalc.bounds import random_expansion

    f = random_expansion(5, 6, decay=1.0)
    path = tmp_path / "coeffs.json"
    save_expansion(f, path)
    g = load_expansion(path)
    assert g.lmax == f.lmax
    np.testing.assert_array_equal(g.coeffs, f.coeffs)


# finite doubles with the edges named: signed zeros, subnormals, near the double maximum
FINITE = hs.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, 1.7e308, -1.7e308]) | hs.floats(
    allow_nan=False, allow_infinity=False
)
COMPLEX = hs.builds(complex, FINITE, FINITE)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    hs.integers(0, 3).flatmap(
        lambda lmax: hs.lists(COMPLEX, min_size=(lmax + 1) ** 2, max_size=(lmax + 1) ** 2)
    )
)
def test_coefficient_file_round_trip_is_bit_exact(tmp_path_factory, values):
    f = HarmonicExpansion(math.isqrt(len(values)) - 1, values)
    path = tmp_path_factory.mktemp("doc") / "coeffs.json"
    save_expansion(f, path)
    g = load_expansion(path)
    assert g.lmax == f.lmax
    assert g.coeffs.view(np.float64).tobytes() == f.coeffs.view(np.float64).tobytes()


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    hs.integers(0, 3).flatmap(
        lambda lmax: hs.lists(COMPLEX, min_size=(lmax + 1) ** 2, max_size=(lmax + 1) ** 2)
    )
)
def test_save_expansion_bytes_match_reference_writer(tmp_path_factory, values):
    f = HarmonicExpansion(math.isqrt(len(values)) - 1, values)
    folder = tmp_path_factory.mktemp("doc")
    save_expansion(f, folder / "new.json")
    reference_io.save_expansion(f, folder / "reference.json")
    assert (folder / "new.json").read_bytes() == (folder / "reference.json").read_bytes()


def test_coefficient_document_at_lmax_128_matches_reference(tmp_path):
    # the benchmark's document size: 16,641 records, more than one write block
    rng = np.random.default_rng(128)
    K = 129**2
    f = HarmonicExpansion(128, rng.standard_normal(K) + 1j * rng.standard_normal(K))
    save_expansion(f, tmp_path / "new.json")
    reference_io.save_expansion(f, tmp_path / "reference.json")
    assert (tmp_path / "new.json").read_bytes() == (tmp_path / "reference.json").read_bytes()
    expected = reference_io.outcome(reference_io.load_expansion, tmp_path / "reference.json")
    assert expected[0] == "ok"
    assert reference_io.outcome(load_expansion, tmp_path / "reference.json") == expected


def test_coefficient_file_errors(tmp_path):
    import json

    path = tmp_path / "bad.json"
    path.write_text("not json")
    with pytest.raises(CoefficientFileError):
        load_expansion(path)

    doc = {
        "lmax": 1,
        "basis": "sqrt(l+1/2)Y",
        "coefficients": [
            {"l": 0, "m": 0, "re": 1.0, "im": 0.0},
            {"l": 1, "m": -1, "re": 0.0, "im": 0.0},
            {"l": 1, "m": 0, "re": 0.0, "im": 0.0},
        ],
    }
    path.write_text(json.dumps(doc))
    with pytest.raises(CoefficientFileError, match="missing"):
        load_expansion(path)

    doc["coefficients"].append({"l": 1, "m": 0, "re": 0.0, "im": 0.0})
    path.write_text(json.dumps(doc))
    with pytest.raises(CoefficientFileError, match="duplicate"):
        load_expansion(path)

    doc["coefficients"][-1] = {"l": 1, "m": 1, "re": 0.0, "im": 0.0}
    doc["basis"] = "other"
    path.write_text(json.dumps(doc))
    with pytest.raises(CoefficientFileError, match="basis"):
        load_expansion(path)

import functools
import math
import os
import re
import sys
import threading
import tracemalloc
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from sphcalc import (
    GridTooCoarseError,
    HarmonicExpansion,
    SampledField,
    analyze,
    completeness_kernel,
    gauss_legendre,
    hilbert_norm,
    inner_product,
    load_expansion,
    load_field,
    make_grid,
    orthonormal_legendre_table,
    orthonormal_sh_values,
    orthonormality_check,
    point_eval,
    quadrature_inner_product,
    save_expansion,
    save_field,
    synthesize,
    table_row,
)
from sphcalc.bounds import random_expansion
from sphcalc.expansions import degree_order_arrays, flat_index
from sphcalc.legendre import GROUP, MAX_LMAX, _table_map
from sphcalc import bounds, transform
from sphcalc.cli import main
from sphcalc.transform import FieldFileError, _analyze_table, _synthesize_table
from sphcalc.verify import suite_transforms

import reference_io
from reference import dense_orthonormality_check, mirrored_orthonormality_check, packed_legendre_table, packed_row


def test_gauss_legendre_small_closed_forms():
    x, w = gauss_legendre(1)
    np.testing.assert_allclose(x, [0.0], atol=1e-15)
    np.testing.assert_allclose(w, [2.0], atol=1e-15)
    x, w = gauss_legendre(2)
    np.testing.assert_allclose(x, [-1 / math.sqrt(3), 1 / math.sqrt(3)], atol=1e-15)
    np.testing.assert_allclose(w, [1.0, 1.0], atol=1e-15)


@pytest.mark.parametrize("n", [3, 7, 16, 33, 65])
def test_gauss_legendre_against_numpy(n):
    x, w = gauss_legendre(n)
    xr, wr = np.polynomial.legendre.leggauss(n)
    np.testing.assert_allclose(x, xr, atol=1e-14)
    np.testing.assert_allclose(w, wr, atol=1e-14)
    assert abs(w.sum() - 2.0) < 1e-13


@pytest.mark.parametrize("n", [2, 64, 65, 129, 257, 513])
def test_gauss_legendre_is_exactly_antisymmetric(n):
    # the half-node table relies on node -x being exactly the mirror of x
    x, w = gauss_legendre(n)
    np.testing.assert_array_equal(x, -x[::-1])
    np.testing.assert_array_equal(w, w[::-1])
    if n % 2:
        assert x[n // 2] == 0.0


def _counting_table_builds(monkeypatch):
    """A list that gains each degree a grid builds a Legendre table at."""
    builds = []
    build = transform.orthonormal_legendre_table

    def counted(lmax, x):
        builds.append(lmax)
        return build(lmax, x)

    monkeypatch.setattr(transform, "orthonormal_legendre_table", counted)
    return builds


def test_grid_entry_holds_legendres_table_map(monkeypatch):
    # the transforms read legendre's one map (each flat index's table row,
    # slot and sign, and the block records) from the grid's one entry, built
    # with the table; a higher degree replaces the entry, and calls at its
    # degree and below reuse it
    builds = _counting_table_builds(monkeypatch)
    grid = make_grid(12)
    low = grid.basis_table(5)
    assert grid.basis_table(3) is low
    f = random_expansion(3, 12)
    field = synthesize(f, grid)
    entry = grid.basis_table(12)
    for _ in range(2):
        analyze(synthesize(f, grid), 12)
        analyze(field, 12)
        analyze(field, 5)
    assert grid.basis_table(12) is entry and grid.basis_table(0) is entry
    assert builds == [5, 12]
    rows, slot, sign, blocks, table = entry
    # orders 0..7 hold 7 even and 6 odd rows each, orders 8..12 hold 3 and 2
    assert table.shape == (8 * 13 + 5 * 5, 7)
    order0 = flat_index(np.arange(6), 0)  # order 0, degrees 0..5
    assert np.array_equal(table[rows[order0]], low[-1][low[0][order0]])
    assert not any(a.flags.writeable for a in (rows, slot, sign, blocks))
    assert all(got is ref for got, ref in zip(entry[:4], _table_map(12)[:4], strict=True))
    ls, ms = degree_order_arrays(12)
    assert table[rows].tobytes() == packed_legendre_table(12, grid.x[6:])[packed_row(12, ls, ms)].tobytes()


def _transforms_at(grid, L):
    f = random_expansion(L + 7, L, decay=1.0)
    field = synthesize(f, grid)
    return field.samples.tobytes(), analyze(field, L).coeffs.tobytes()


@pytest.mark.parametrize("G", [18, 129, 256])
def test_lower_degrees_read_the_grid_tables_prefix(G, monkeypatch):
    # a row has the same bits at every table degree, so a degree-L transform
    # on the degree-G table gives the bytes of a grid whose table is degree L
    grid = make_grid(G)
    synthesize(random_expansion(G, G, decay=1.0), grid)
    entry = grid.basis_table(G)
    builds = _counting_table_builds(monkeypatch)
    for L in (0, G // 2, G - 1):
        assert _transforms_at(grid, L) == _transforms_at(make_grid(G), L)
    assert grid.basis_table(G) is entry
    assert builds == [0, G // 2, G - 1]  # the fresh grids' tables only


def test_overlapping_first_calls_on_one_grid_build_one_table(monkeypatch):
    # two threads released together ask a fresh grid for its table while a
    # slowed build runs: the later call waits for the earlier one's table
    # instead of building its own, and both threads, transforming at two
    # degrees, give the single-thread bytes
    import time
    from concurrent.futures import ThreadPoolExecutor

    G = 24
    want = {L: _transforms_at(make_grid(G), L) for L in (G, G - 1)}
    grid = make_grid(G)
    builds = _counting_table_builds(monkeypatch)
    counted = transform.orthonormal_legendre_table

    def slow_build(lmax, x):
        time.sleep(0.2)  # the other thread's first call lands meanwhile
        return counted(lmax, x)

    monkeypatch.setattr(transform, "orthonormal_legendre_table", slow_build)
    start = threading.Barrier(2)

    def first_call(L):
        start.wait(10)
        return grid.basis_table(G), _transforms_at(grid, L)

    with ThreadPoolExecutor(max_workers=2) as pool:
        (high, got_high), (low, got_low) = pool.map(first_call, (G, G - 1))
    assert high is low is grid.basis_table(G)
    assert got_high == want[G] and got_low == want[G - 1]
    assert builds == [G]


def test_a_child_forked_during_a_table_build_builds_its_own():
    # a child forked while a thread holds the build lock finds it free: its
    # first table build must not wait on a thread it does not have
    import time

    with transform._TABLE_LOCK:
        pid = os.fork()
        if pid == 0:  # the child reports through its exit status only
            status = 1
            try:
                status = 0 if make_grid(6).basis_table(6)[0].size == 49 else 2
            finally:
                os._exit(status)
    deadline = time.monotonic() + 60
    while (done := os.waitpid(pid, os.WNOHANG))[0] == 0 and time.monotonic() < deadline:
        time.sleep(0.05)
    if done[0] == 0:
        os.kill(pid, 9)
        os.waitpid(pid, 0)
        pytest.fail("the forked child's table build did not finish in 60 s")
    assert os.waitstatus_to_exitcode(done[1]) == 0


def test_an_oversampled_grid_builds_the_transforms_degree(monkeypatch, tmp_path, capsys):
    # a grid finer than the transform it serves builds a table of the
    # transform's degree, not of its own, and loading a field builds none:
    # an lmax-8 document on a degree-256 grid takes a table of 73 padded rows
    # where one of the grid's own degree takes 35 MB
    builds = _counting_table_builds(monkeypatch)
    grid = make_grid(256)
    f = random_expansion(3, 8, decay=1.0)
    synthesize(f, grid)
    rows, _, _, _, table = grid.basis_table(8)
    assert builds == [8] and rows.size == 81 and table.shape == (73, 129)
    doc, field, back = tmp_path / "f.json", tmp_path / "f.csv", tmp_path / "b.json"
    save_expansion(f, doc)
    assert main(["transform", "synthesize", "--in", str(doc), "--out", str(field), "--lmax", "256"]) == 0
    assert main(["transform", "analyze", "--in", str(field), "--out", str(back), "--lmax", "8"]) == 0
    capsys.readouterr()
    assert builds == [8, 8, 8]  # one per command
    np.testing.assert_allclose(load_expansion(back).coeffs, f.coeffs, atol=1e-12)


def test_threads_sharing_grids_across_degrees_are_deterministic():
    # more threads than cores, switching often, each on fresh grids shared
    # by all: every transform gives the single-thread bytes
    from concurrent.futures import ThreadPoolExecutor

    G = 24
    orders = [(G, 3, G - 1, 11), (3, G, 11, G - 1), (G - 1, 11, G, 3), (11, G - 1, 3, G)]
    want = {L: _transforms_at(make_grid(G), L) for L in orders[0]}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            for _ in range(10):
                grid = make_grid(G)
                results = pool.map(lambda order: [(L, _transforms_at(grid, L)) for L in order], orders,
                                   timeout=60)
                for L, got in (pair for result in results for pair in result):
                    assert got == want[L]
    finally:
        sys.setswitchinterval(interval)


def _split_across(monkeypatch, workers):
    """Every transform split across ``workers`` threads (1: none), whatever its size and the host."""
    monkeypatch.setattr(transform, "SPLIT_SAMPLES", 1 if workers > 1 else 1 << 62)
    monkeypatch.setattr(transform, "_usable_cores", lambda: workers)


def _counting_threads(monkeypatch):
    """A list that gains each thread a transform starts, as it starts."""
    started = []

    class Counted(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(transform, "threading", types.SimpleNamespace(Thread=Counted))
    return started


@pytest.mark.parametrize("G, L", [(24, 24), (129, 129), (256, 256), (256, 129)],
                         ids=["24", "129", "256", "129-on-256"])
@pytest.mark.parametrize("B", [1, 3])
def test_worker_count_does_not_change_the_bytes(G, L, B, monkeypatch):
    # each stacked product and each block of FFT rows is one task, whichever
    # thread runs it, so one and two workers give the same bytes
    grid = make_grid(G)
    inputs = [random_expansion(L + b, L, decay=1.0) for b in range(B)]
    started = _counting_threads(monkeypatch)

    def transforms():
        if B == 1:
            field = synthesize(inputs[0], grid)
            return field.samples.tobytes(), analyze(field, L).coeffs.tobytes()
        samples = _synthesize_table(np.stack([f.coeffs for f in inputs]), grid)
        return samples.tobytes(), _analyze_table(samples, grid, L).tobytes()

    _split_across(monkeypatch, 1)
    one = transforms()
    assert started == []
    _split_across(monkeypatch, 2)
    before = threading.active_count()
    assert transforms() == one
    # one thread for the products and one for the FFT rows, in each direction,
    # each joined before its transform returned
    assert len(started) == 4 and not any(thread.is_alive() for thread in started)
    assert threading.active_count() == before


def test_verify_and_an_lmax_128_round_trip_start_no_worker_thread(monkeypatch, tmp_path, capsys):
    # their largest sample tables stay below two workers' SPLIT_SAMPLES each
    started = _counting_threads(monkeypatch)
    sizes, workers = [], transform._workers
    monkeypatch.setattr(transform, "_workers", lambda samples: sizes.append(samples) or workers(samples))
    assert main(["verify", "--suite", "all"]) == 0
    assert max(sizes) == 28_900
    sizes.clear()
    doc, field, back = (str(tmp_path / name) for name in ("doc.json", "field.csv", "back.json"))
    save_expansion(random_expansion(5, 128), doc)
    assert main(["transform", "synthesize", "--in", doc, "--out", field]) == 0
    assert main(["transform", "analyze", "--in", field, "--out", back]) == 0
    capsys.readouterr()
    assert sizes == [33_282, 33_282]
    assert started == []


def test_user_threads_split_transforms_without_deadlock(monkeypatch):
    # two user threads split transforms on one L=256 grid, each on worker
    # threads of its own call: both finish with the single-thread bytes
    G = 256
    grid = make_grid(G)
    inputs = [random_expansion(seed, G, decay=1.0) for seed in (1, 2)]

    def transforms(f):
        field = synthesize(f, grid)
        return field.samples.tobytes(), analyze(field, G).coeffs.tobytes()

    _split_across(monkeypatch, 1)
    want = [transforms(f) for f in inputs]
    _split_across(monkeypatch, 2)
    started = _counting_threads(monkeypatch)
    results = ([], [])

    def user(k):
        results[k].extend(transforms(inputs[k]) for _ in range(3))

    threads = [threading.Thread(target=user, args=(k,), daemon=True) for k in (0, 1)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert results == ([want[0]] * 3, [want[1]] * 3)
    assert len(started) == 2 * 3 * 4 and not any(thread.is_alive() for thread in started)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_forked_child_splits_transforms_with_the_parents_bytes(monkeypatch):
    # a child made by fork after a split transform splits its own transforms
    # on threads of its own, gives the parent's bytes and keeps no thread
    import time

    G = 256
    grid = make_grid(G)
    f = random_expansion(3, G, decay=1.0)
    _split_across(monkeypatch, 2)
    started = _counting_threads(monkeypatch)
    field = synthesize(f, grid)
    want = field.samples.tobytes(), analyze(field, G).coeffs.tobytes()
    assert len(started) == 4
    pid = os.fork()
    if pid == 0:  # the child reports through its exit status only
        status = 1
        try:
            before = threading.active_count()
            child = synthesize(f, grid)
            got = child.samples.tobytes(), analyze(child, G).coeffs.tobytes()
            threads_left = threading.active_count() - before
            status = 0 if got == want and len(started) == 8 and threads_left == 0 else 2
        finally:
            os._exit(status)
    deadline = time.monotonic() + 120
    while (done := os.waitpid(pid, os.WNOHANG))[0] == 0 and time.monotonic() < deadline:
        time.sleep(0.05)
    if done[0] == 0:
        os.kill(pid, 9)
        os.waitpid(pid, 0)
        pytest.fail("the forked child's split transform did not finish in 120 s")
    assert os.waitstatus_to_exitcode(done[1]) == 0


@pytest.mark.parametrize("raiser", [0, 1], ids=["caller-share", "worker-share"])
def test_an_error_in_a_split_reaches_the_caller_after_every_share_ends(raiser):
    # share 0 takes tasks 0 and 2 in the caller, share 1 tasks 1 and 3 on a
    # worker thread: the raising share stops, the other runs to its end, and
    # the error is raised in the caller with no thread left behind
    ran = []

    def task(k):
        if k == raiser:
            raise ArithmeticError(f"task {k}")
        ran.append(k)

    before = threading.active_count()
    with pytest.raises(ArithmeticError, match=rf"^task {raiser}$"):
        transform._deal([functools.partial(task, k) for k in range(4)], 2)
    assert threading.active_count() == before
    assert sorted(ran) == [k for k in range(4) if k % 2 != raiser]


def test_verify_all_builds_one_table_per_grid(monkeypatch, capsys):
    # the transforms suite's grid and the structural checks' one oracle grid of
    # degree lmax + 2; the product law's grid integrates factor by factor and
    # the exp(i phi) record projects on no grid, so neither builds one
    builds = _counting_table_builds(monkeypatch)
    assert main(["verify", "--suite", "all", "--seed", "42"]) == 0
    capsys.readouterr()
    assert builds == [16, 18]


def test_grid_past_the_validated_range_is_refused_before_the_node_solve():
    # a grid past the recurrence's range could only carry wrong harmonic values
    misses = gauss_legendre.cache_info().misses
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=rf"lmax={MAX_LMAX + 1} .*{MAX_LMAX}"):
            make_grid(MAX_LMAX + 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert gauss_legendre.cache_info().misses == misses


def test_gauss_nodes_are_solved_once_per_node_count():
    a, b = make_grid(16), make_grid(16)
    assert a.x is b.x and a.w is b.w
    assert not a.x.flags.writeable and not a.w.flags.writeable
    # a grid is shared between checks and threads: none of its arrays can be written
    for name in ("theta", "phi"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(a, name)[0] = 1.0
    x, w = gauss_legendre.__wrapped__(17)
    assert a.x.tobytes() == x.tobytes() and a.w.tobytes() == w.tobytes()


def test_make_grid_shape():
    grid = make_grid(0)
    assert grid.n_theta == 1 and grid.n_phi == 2
    grid = make_grid(16)
    assert grid.n_theta == 17 and grid.n_phi == 34
    assert abs(grid.w.sum() - 2.0) < 1e-13


def test_synthesize_constants():
    grid = make_grid(4)
    f = HarmonicExpansion.unit(0, 0, 4)
    field = synthesize(f, grid)
    np.testing.assert_allclose(field.samples, 1 / math.sqrt(4 * math.pi), atol=1e-15)

    zero = synthesize(HarmonicExpansion.zeros(4), grid)
    np.testing.assert_allclose(zero.samples, 0.0)

    g = HarmonicExpansion.unit(1, 0, 4)
    field = synthesize(g, grid)
    expected = math.sqrt(3 / (4 * math.pi)) * np.cos(grid.theta)[:, None]
    np.testing.assert_allclose(field.samples, np.broadcast_to(expected + 0j, field.samples.shape), atol=1e-14)


def test_analyze_constants():
    grid = make_grid(3)
    const = SampledField(grid, np.full((grid.n_theta, grid.n_phi), 1 / math.sqrt(4 * math.pi), dtype=complex))
    f = analyze(const, 3)
    assert f[(0, 0)] == pytest.approx(1.0, abs=1e-13)
    others = f.coeffs.copy()
    others[0] = 0.0
    assert np.max(np.abs(others)) < 1e-13

    cosf = SampledField(grid, (math.sqrt(3 / (4 * math.pi)) * np.cos(grid.theta))[:, None] * np.ones(grid.n_phi) + 0j)
    g = analyze(cosf, 3)
    assert g[(1, 0)] == pytest.approx(1.0, abs=1e-13)


@pytest.mark.parametrize("lmax", [4, 16, 64])
def test_round_trip(lmax):
    f = random_expansion((1, lmax), lmax, decay=2.0)
    grid = make_grid(lmax)
    back = analyze(synthesize(f, grid), lmax)
    assert np.max(np.abs(back.coeffs - f.coeffs)) <= 1e-12


def test_transforms_are_linear():
    grid = make_grid(8)
    f = random_expansion(21, 8, decay=1.0)
    g = random_expansion(22, 8, decay=1.0)
    a, b = 1.7, -0.4 + 2.1j
    combo = synthesize(a * f + b * g, grid)
    parts = a * synthesize(f, grid).samples + b * synthesize(g, grid).samples
    np.testing.assert_allclose(combo.samples, parts, atol=1e-12)


def test_point_eval_matches_synthesize():
    f = random_expansion(3, 10, decay=1.5)
    grid = make_grid(10)
    field = synthesize(f, grid)
    for i, j in [(0, 0), (4, 7), (10, 21)]:
        p = (grid.theta[i], grid.phi[j])
        assert point_eval(f, p) == pytest.approx(complex(field.samples[i, j]), abs=1e-13)


def test_point_eval_pinned():
    f = HarmonicExpansion.unit(0, 0)
    assert point_eval(f, (0.3, 1.1)) == pytest.approx(1 / math.sqrt(4 * math.pi))
    g = HarmonicExpansion.unit(1, 1)
    assert point_eval(g, (0.0, 0.0)) == 0.0


def test_inner_product_orthonormality():
    e11 = HarmonicExpansion.unit(1, 1)
    e21 = HarmonicExpansion.unit(2, 1)
    assert inner_product(e11, e11) == 1.0
    assert inner_product(e11, e21) == 0.0


def test_inner_product_against_quadrature():
    f = random_expansion(31, 10, decay=1.5)
    g = random_expansion(32, 10, decay=1.5)
    grid = make_grid(10)
    quad = quadrature_inner_product(synthesize(f, grid), synthesize(g, grid))
    assert inner_product(f, g) == pytest.approx(quad, rel=1e-11, abs=1e-11)
    # conjugate-linear first slot
    assert inner_product(2j * f, g) == pytest.approx(-2j * inner_product(f, g))
    assert inner_product(f, g) == pytest.approx(np.conj(inner_product(g, f)))


def test_parseval_random():
    for trial in range(10):
        f = random_expansion((4, trial), 16, decay=2.0)
        field = synthesize(f, make_grid(16))
        quad = quadrature_inner_product(field, field).real
        coeff = hilbert_norm(f) ** 2
        assert abs(quad - coeff) <= 1e-10 * coeff


def test_orthonormality_small():
    r = orthonormality_check(1)
    assert r.lhs <= 1e-12
    r = orthonormality_check(8)
    assert r.passed


@pytest.mark.parametrize("lmax", [1, 2, 16, 47, 48])
def test_orthonormality_check_equals_the_mirrored_half_table(lmax):
    # every node read directly gives the same record as the fold's mirror, bit for bit
    assert repr(orthonormality_check(lmax)) == repr(mirrored_orthonormality_check(lmax))


@pytest.mark.parametrize("lmax", [1, 2, 16, 47, 48])
def test_row_blocked_gram_equals_the_dense_gram(lmax):
    # blocks of rows, 1 taken from their diagonal entries only, and a running max
    # give the record of the whole K x K matrix minus the identity, bit for bit
    assert repr(orthonormality_check(lmax)) == repr(dense_orthonormality_check(lmax))


def test_gram_check_holds_no_dense_matrix():
    # the dense Gram matrix, its phase factors and its distance from the
    # identity, each K x K, once peaked at 278.7 MB at lmax 48
    tracemalloc.start()
    try:
        assert orthonormality_check(48).passed
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6


def test_completeness_kernel_values():
    p = (0.7, 1.2)
    q = (2.1, 4.0)
    assert completeness_kernel(0, p, q) == pytest.approx(1 / (4 * math.pi))
    # diagonal closed form (L+1)^2 / (4 pi), monotone in L
    prev = 0.0
    for L in (2, 4, 8, 16):
        value = completeness_kernel(L, p, p).real
        assert value == pytest.approx((L + 1) ** 2 / (4 * math.pi), rel=1e-12)
        assert value > prev
        prev = value


def test_completeness_kernel_reproduces_band_limited():
    L = 6
    grid = make_grid(L)
    p = (0.9, 2.2)
    kernel_at_p = np.array(
        [[completeness_kernel(L, p, (t, f)) for f in grid.phi] for t in grid.theta]
    )
    for (l, m) in [(0, 0), (3, -2), (6, 5)]:
        e_field = synthesize(HarmonicExpansion.unit(l, m, L), grid)
        integrand = SampledField(grid, kernel_at_p * e_field.samples)
        from sphcalc import quadrature_integral

        value = quadrature_integral(integrand)
        expected = orthonormal_sh_values(l, math.cos(p[0]), p[1])[0, flat_index(l, m)]
        assert value == pytest.approx(complex(expected), abs=1e-10)


def test_real_field_symmetry():
    lmax = 10
    grid = make_grid(lmax)
    rng = np.random.default_rng(77)
    field = SampledField(grid, rng.standard_normal((grid.n_theta, grid.n_phi)) + 0j)
    c = analyze(field, lmax)
    ls, ms = degree_order_arrays(lmax)
    mirrored = np.empty_like(c.coeffs)
    mirrored[flat_index(ls, ms)] = ((-1.0) ** ms) * np.conj(c.coeffs[flat_index(ls, -ms)])
    assert np.max(np.abs(c.coeffs - mirrored)) <= 1e-12


def test_grid_refuses_a_non_integer_degree():
    # int(lmax) once ran after the degree check, so SphereGrid(3.5) made a degree-3 grid
    for bad in (3.5, np.float64(3.0)):
        with pytest.raises(TypeError, match="^lmax must be an integer, got "):
            transform.SphereGrid(bad)
    grid = transform.SphereGrid(np.int64(3))
    assert grid.lmax == 3 and type(grid.lmax) is int


def test_grid_too_coarse_errors(monkeypatch):
    # the grid's basis_table is the one refusal: it names both degrees and
    # builds and stores nothing, whether a transform or a caller asks it
    f = random_expansion(5, 8, decay=1.0)
    with pytest.raises(GridTooCoarseError, match="^grid lmax=4 < transform lmax=8$"):
        synthesize(f, make_grid(4))
    field = synthesize(f, make_grid(8))
    with pytest.raises(GridTooCoarseError, match="^grid lmax=8 < transform lmax=9$"):
        analyze(field, 9)
    builds = _counting_table_builds(monkeypatch)
    grid = make_grid(4)
    with pytest.raises(GridTooCoarseError, match="^grid lmax=4 < transform lmax=9$"):
        grid.basis_table(9)
    assert grid._entry is None and builds == []
    # a negative degree is refused too, even once an entry is stored
    entry = grid.basis_table(2)
    with pytest.raises(ValueError, match="^lmax must be >= 0, got -1$"):
        grid.basis_table(-1)
    assert grid._entry is entry and builds == [2]


def _order_block(N, L, m):
    return N[packed_row(L, m, m) : packed_row(L, m + 1, m + 1)]


def _half_table(grid, L):
    # the packed reference table at the nodes x >= 0
    return packed_legendre_table(L, grid.x[grid.n_theta // 2:])


def _synthesize_per_order(f, grid):
    # one expansion, order by order: the even- and odd-(l+m) rows of the
    # half-node block against the +m and -m coefficients stacked as float64
    # re/im; even plus odd part at the nodes x >= 0, even minus odd part at
    # their mirror images, into FFT bins m and -m, then the inverse FFT over phi
    L = f.lmax
    N = _half_table(grid, L)
    s = grid.n_theta // 2
    C = f.to_matrix()
    F = np.zeros((grid.n_theta, grid.n_phi), dtype=np.complex128)
    for m in range(L + 1):
        rhs = np.zeros((L + 1 - m, 2), dtype=np.complex128)
        rhs[:, 0] = C[m:, L + m]
        if m > 0:
            rhs[:, 1] = (-1) ** m * C[m:, L - m]
        block = _order_block(N, L, m)
        even, odd = ((block[p::2].T @ rhs[p::2].view(np.float64)).view(np.complex128) for p in (0, 1))
        out = np.concatenate([(even - odd)[::-1][:s], even + odd])
        F[:, m] = out[:, 0]
        if m > 0:
            F[:, -m] = out[:, 1]
    return np.fft.ifft(F, axis=-1, norm="forward")


def _analyze_per_order(field, L, padded=False):
    grid = field.grid
    scale = 2.0 * math.pi / grid.n_phi
    # FFT bin m holds the trapezoid sum against exp(-i*m*phi), bin -m the +m one
    H = scale * np.fft.fft(field.samples, axis=-1)
    N = _half_table(grid, L)
    wH = grid.w[:, None] * H
    # each node x >= 0 folded with its mirror image; the centre node of odd
    # n_theta is its own mirror
    s = grid.n_theta // 2
    north, south = wH[s:], wH[:s][::-1]
    S, D = north.copy(), north.copy()
    S[N.shape[1] - s:] += south
    D[N.shape[1] - s:] -= south
    # padded: the rows of each parity are padded with zero rows to the count
    # of the first order of the order's group of GROUP, the shape of its
    # product in the stacked table
    C = np.zeros((L + 1, 2 * L + 1), dtype=np.complex128)
    for m in range(L + 1):
        block = _order_block(N, L, m)
        out = np.empty((L + 1 - m, 2), dtype=np.complex128)
        for p, folded in ((0, S), (1, D)):
            rhs = np.stack([folded[:, m], folded[:, -m]], axis=1)
            rows = block[p::2]
            if padded:
                rows = np.zeros(((L - m // GROUP * GROUP - p) // 2 + 1, N.shape[1]))
                rows[:len(block[p::2])] = block[p::2]
            out[p::2] = (rows @ rhs.view(np.float64)).view(np.complex128)[:len(block[p::2])]
        C[m:, L + m] = out[:, 0]
        if m > 0:
            C[m:, L - m] = (-1) ** m * out[:, 1]
    ls, ms = degree_order_arrays(L)
    return C[ls, L + ms]


@pytest.mark.parametrize("lmax", [0, 1, 16, 64])
def test_one_row_transforms_equal_per_order_loops(lmax):
    # the batch rides on the last matmul axis, so one row takes the same BLAS calls
    grid = make_grid(lmax)
    f = random_expansion(lmax + 3, lmax, decay=1.0)
    field = synthesize(f, grid)
    np.testing.assert_array_equal(field.samples, _synthesize_per_order(f, grid))
    got, want = analyze(field, lmax).coeffs, _analyze_per_order(field, lmax)
    # an order m >= lmax - 2 has a single row of one parity: a product of its
    # own goes to gemv, its group's stacked product to gemm, and the two sum
    # in different orders
    single = np.abs(degree_order_arrays(lmax)[1]) >= lmax - 2
    np.testing.assert_array_equal(got[~single], want[~single])
    assert np.all(np.abs(got - want)[single] <= 4 * np.spacing(np.abs(want[single])))


@pytest.mark.parametrize("lmax", [0, 1, 16, 64])
def test_one_row_analysis_equals_the_group_padded_per_order_loop(lmax):
    # each order's rows padded to its group's first-order row count: the
    # shapes of the stacked products, so the same BLAS calls and the same bytes
    grid = make_grid(lmax)
    field = synthesize(random_expansion(lmax + 3, lmax, decay=1.0), grid)
    np.testing.assert_array_equal(analyze(field, lmax).coeffs, _analyze_per_order(field, lmax, padded=True))


def _dense_table(grid, L):
    # the packed reference table at every node, spread over [theta node, l, m], zeros for m > l
    ms, ls = np.triu_indices(L + 1)
    D = np.zeros((grid.n_theta, L + 1, L + 1))
    D[:, ls, ms] = packed_legendre_table(L, grid.x).T
    return D


def _synthesize_complex_upcast(f, grid):
    # the earlier complex matvec per order on strided dense-table columns
    L = f.lmax
    N = _dense_table(grid, L)
    C = f.to_matrix()
    G = np.zeros((grid.n_theta, 2 * L + 1), dtype=np.complex128)
    for m in range(L + 1):
        block = N[:, m:, m]
        G[:, L + m] = block @ C[m:, L + m]
        if m > 0:
            G[:, L - m] = (-1) ** m * (block @ C[m:, L - m])
    return G @ np.exp(1j * np.outer(np.arange(-L, L + 1), grid.phi))


def _analyze_complex_upcast(field, L):
    grid = field.grid
    scale = 2.0 * math.pi / grid.n_phi
    H = scale * (field.samples @ np.exp(1j * np.outer(np.arange(-L, L + 1), grid.phi)).conj().T)
    N = _dense_table(grid, L)
    wH = grid.w[:, None] * H
    C = np.zeros((L + 1, 2 * L + 1), dtype=np.complex128)
    for m in range(L + 1):
        block = N[:, m:, m]
        C[m:, L + m] = block.T @ wH[:, L + m]
        if m > 0:
            C[m:, L - m] = (-1) ** m * (block.T @ wH[:, L - m])
    ls, ms = degree_order_arrays(L)
    return C[ls, L + ms]


@pytest.mark.parametrize(
    "lmax, grid_degree",
    [(1, 2), (16, 17), (64, 65), (16, 35)],
    ids=["1", "16", "64", "16-on-35"],
)
def test_transforms_match_complex_upcast_loops(lmax, grid_degree):
    # real blocks on stacked re/im and an FFT phi stage sum in another order
    # than these loops and their explicit phases: equal to roundoff; the grid
    # of degree 35 leaves empty FFT bins between +lmax and n_phi - lmax
    grid = make_grid(grid_degree)
    f = random_expansion(lmax + 5, lmax, decay=1.0)
    field = synthesize(f, grid)
    ref = _synthesize_complex_upcast(f, grid)
    assert np.max(np.abs(field.samples - ref)) <= 1e-13 * np.max(np.abs(ref))
    back, ref = analyze(field, lmax).coeffs, _analyze_complex_upcast(field, lmax)
    assert np.max(np.abs(back - ref)) <= 1e-13 * np.max(np.abs(ref))


@pytest.mark.parametrize("L", [16, 17, 64])
def test_half_table_mirrors_to_the_full_table(L):
    # the nodes x < 0 carry (-1)^(l+m) times the values at their mirror images
    grid = make_grid(L)
    s = grid.n_theta // 2
    half = orthonormal_legendre_table(L, grid.x[s:])
    ms, ls = np.triu_indices(L + 1)
    parity = np.ones((half.shape[0], 1))
    parity[table_row(L, ls, ms)[(ls + ms) % 2 == 1]] = -1.0
    assert half.shape[1] == grid.n_theta - s
    mirrored = np.concatenate([parity * half[:, ::-1][:, :s], half], axis=1)
    np.testing.assert_array_equal(mirrored, orthonormal_legendre_table(L, grid.x))


def _round_trip_and_parseval(lmax):
    grid = make_grid(lmax)
    # the (L+1)(L+2)/2 rows of (l, m) and each block's zero padding, of the
    # ceil(n_theta/2) nodes with x >= 0
    nbytes = grid.basis_table(lmax)[-1].nbytes
    f = random_expansion(lmax, lmax, decay=1.0)
    field = synthesize(f, grid)
    assert np.max(np.abs(analyze(field, lmax).coeffs - f.coeffs)) <= 1e-12
    quad = quadrature_inner_product(field, field).real
    assert abs(quad - hilbert_norm(f) ** 2) <= 1e-10 * hilbert_norm(f) ** 2
    return nbytes


def test_round_trip_and_parseval_at_l256():
    assert _round_trip_and_parseval(256) == 35_138_568


def test_round_trip_and_parseval_at_l512():
    assert _round_trip_and_parseval(512) == 274_749_448


def test_grid_table_build_peaks_near_the_table():
    # a cold build at L=256 holds about 3 MB beside the 35 MB table: the degree's
    # record (map and constants), made before the table, and the recurrence's two
    # work arrays; a map made beside the table, gathering a block record per flat
    # index, goes past it
    _table_map.cache_clear()
    degree_order_arrays.cache_clear()
    tracemalloc.start()
    try:
        table = make_grid(256).basis_table(256)[-1]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= table.nbytes + 4e6


def test_transform_tables_match_one_row_calls():
    # a batch sums in gemm order, one row in gemv order: equal to roundoff
    lmax = 12
    grid = make_grid(lmax + 2)
    block = np.array([random_expansion(s, lmax, decay=1.0).coeffs for s in range(5)])
    samples = _synthesize_table(block, grid)
    assert samples.shape == (5, grid.n_theta, grid.n_phi)
    coeffs = _analyze_table(samples, grid, lmax + 1)
    assert coeffs.shape == (5, (lmax + 2) ** 2)
    for row, s, c in zip(block, samples, coeffs):
        one = synthesize(HarmonicExpansion(lmax, row), grid)
        assert np.max(np.abs(s - one.samples)) <= 1e-13 * np.max(np.abs(s))
        back = analyze(one, lmax + 1).coeffs
        assert np.max(np.abs(c - back)) <= 1e-13 * np.max(np.abs(c))


def reference_round_trip(lmax, trials, seed):
    """The per-trial loop behind ``round_trip`` and ``parseval``: both worst lhs."""
    grid = make_grid(lmax)
    worst_rt = worst_pv = 0.0
    for t in range(trials):
        f = random_expansion((seed, t), lmax, decay=2.0)
        field = synthesize(f, grid)
        worst_rt = max(worst_rt, float(np.max(np.abs(analyze(field, lmax).coeffs - f.coeffs))))
        quad = quadrature_inner_product(field, field).real
        coeff = hilbert_norm(f) ** 2
        worst_pv = max(worst_pv, abs(quad - coeff) / coeff)
    return worst_rt, worst_pv


@pytest.mark.parametrize("seed", [42, 7, 123456])
def test_suite_round_trip_matches_per_trial_loop(seed):
    reports = {r.check: r for r in suite_transforms(16, 50, seed)}
    rt, pv = reference_round_trip(16, 50, seed)
    assert abs(reports["round_trip"].lhs - rt) <= 1e-15
    assert abs(reports["parseval"].lhs - pv) <= 1e-15
    assert reports["round_trip"].passed and reports["parseval"].passed


def test_suite_transforms_refuses_zero_trials_before_any_draw(monkeypatch):
    # zero trials once reported round_trip and parseval as passed, having tested nothing
    draws = []
    monkeypatch.setattr(bounds, "_random_rows", lambda *args, **kwargs: draws.append(args))
    monkeypatch.setattr(bounds, "substream", lambda *args: draws.append(args))
    with pytest.raises(ValueError, match="^trials must be >= 1, got 0$"):
        suite_transforms(4, 0, 42)
    with pytest.raises(ValueError, match="^trials must be >= 1, got -2$"):
        suite_transforms(4, -2, 42)
    assert draws == []


def test_numpy_integer_degree_is_stored_as_int(tmp_path):
    # an np.int64 degree was kept, and save_expansion then emptied the file
    # before json refused to write it
    field = synthesize(random_expansion(5, 3), make_grid(3))
    f = analyze(field, np.int64(3))
    assert type(f.lmax) is int
    assert f.coeffs.tobytes() == analyze(field, 3).coeffs.tobytes()
    save_expansion(f, tmp_path / "f.json")
    back = load_expansion(tmp_path / "f.json")
    assert type(back.lmax) is int and back.lmax == 3
    assert back.coeffs.tobytes() == f.coeffs.tobytes()


def _suite_transforms_peak(trials):
    tracemalloc.start()
    try:
        reports = suite_transforms(32, trials, 42)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(r.passed for r in reports)
    return peak


def test_suite_transforms_memory_does_not_grow_with_trials():
    # trials run in fixed blocks; one block held all 500 at 86.7 MB against 57.8 MB.
    # Both counts fill at least two whole blocks, so a part block, smaller than a
    # whole one of verify._TRIAL_BLOCK = 64, sets neither peak
    assert _suite_transforms_peak(640) <= 1.1 * _suite_transforms_peak(128)


def test_concurrent_reads_are_deterministic():
    # expansions/grids are immutable; one shared grid driven from many
    # threads must reproduce the single-thread result bit-for-bit
    from concurrent.futures import ThreadPoolExecutor

    lmax = 16
    grid = make_grid(lmax)
    f = random_expansion(99, lmax, decay=1.5)
    reference = synthesize(f, grid).samples

    def round_trip(_):
        field = synthesize(f, grid)
        return field.samples, analyze(field, lmax).coeffs

    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(round_trip, range(16)))
    for samples, coeffs in results:
        np.testing.assert_array_equal(samples, reference)
        np.testing.assert_array_equal(coeffs, results[0][1])


def test_field_file_round_trip(tmp_path):
    f = random_expansion(6, 5, decay=1.0)
    field = synthesize(f, make_grid(5))
    path = tmp_path / "field.csv"
    save_field(field, path)
    loaded = load_field(path)
    np.testing.assert_allclose(loaded.samples, field.samples, atol=1e-15)
    assert loaded.grid.lmax == 5


# finite doubles with the edges named: signed zeros, subnormals, near the double maximum
FINITE = hs.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, 1.7e308, -1.7e308]) | hs.floats(
    allow_nan=False, allow_infinity=False
)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(hs.integers(0, 2).flatmap(lambda lmax: hs.lists(
    hs.builds(complex, FINITE, FINITE), min_size=2 * (lmax + 1) ** 2, max_size=2 * (lmax + 1) ** 2
)))
def test_field_file_round_trip_is_bit_exact(tmp_path_factory, values):
    lmax = math.isqrt(len(values) // 2) - 1
    grid = make_grid(lmax)
    field = SampledField(grid, np.reshape(values, (grid.n_theta, grid.n_phi)))
    path = tmp_path_factory.mktemp("doc") / "field.csv"
    save_field(field, path)
    loaded = load_field(path)
    assert loaded.samples.view(np.float64).tobytes() == field.samples.view(np.float64).tobytes()


@settings(derandomize=True, max_examples=60, deadline=None)
@given(hs.integers(0, 2).flatmap(lambda lmax: hs.lists(
    hs.builds(complex, FINITE, FINITE), min_size=2 * (lmax + 1) ** 2, max_size=2 * (lmax + 1) ** 2
)))
def test_save_field_bytes_match_reference_writer(tmp_path_factory, values):
    lmax = math.isqrt(len(values) // 2) - 1
    grid = make_grid(lmax)
    field = SampledField(grid, np.reshape(values, (grid.n_theta, grid.n_phi)))
    folder = tmp_path_factory.mktemp("doc")
    save_field(field, folder / "new.csv")
    reference_io.save_field(field, folder / "reference.csv")
    assert (folder / "new.csv").read_bytes() == (folder / "reference.csv").read_bytes()


def test_field_document_at_lmax_128_matches_reference(tmp_path):
    # the benchmark's document size: 129 x 258 rows
    field = synthesize(random_expansion(128, 128, decay=1.0), make_grid(128))
    save_field(field, tmp_path / "new.csv")
    reference_io.save_field(field, tmp_path / "reference.csv")
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()
    expected = reference_io.outcome(reference_io.load_field, tmp_path / "reference.csv")
    assert expected[0] == "ok"
    assert reference_io.outcome(load_field, tmp_path / "reference.csv") == expected


@pytest.fixture(scope="module")
def field_text(tmp_path_factory):
    """A saved lmax-1 field document: two header lines, then 8 rows, one of them -0.0."""
    field = synthesize(random_expansion(12, 1, decay=1.0), make_grid(1))
    field.samples[0, 1] = -0.0
    path = tmp_path_factory.mktemp("field") / "base.csv"
    reference_io.save_field(field, path)
    return path.read_text(encoding="utf-8")


def _set(text, row, column, value):
    """``text`` with field ``column`` of body row ``row`` set to ``value``."""
    lines = text.splitlines(keepends=True)
    parts = lines[2 + row].rstrip("\n").split(",")
    parts[column] = value
    lines[2 + row] = ",".join(parts) + "\n"
    return "".join(lines)


def _shift(text, row, column, delta):
    """``text`` with field ``column`` of body row ``row`` moved by ``delta``."""
    value = float(text.splitlines()[2 + row].split(",")[column])
    return _set(text, row, column, repr(value + delta))


def _lines(edit):
    """A variant built from the document's lines ``h`` (header) and ``b`` (body)."""
    def variant(text):
        lines = text.splitlines(keepends=True)
        return "".join(edit(lines[:2], lines[2:]))
    return variant


# valid documents with odd formatting, and malformed ones; every variant must
# read the same from the bulk reader and the per-line reference
FIELD_VARIANTS = {
    "as-written": lambda t: t,
    "blank-lines": _lines(lambda h, b: [h[0], "\n", h[1], *b[:3], "\n", "   \n", *b[3:], "\n"]),
    "crlf": lambda t: t.replace("\n", "\r\n"),
    "lone-cr": lambda t: t.replace("\n", "\r"),
    "no-final-newline": lambda t: t.rstrip("\n"),
    "mid-body-comment": _lines(lambda h, b: [*h, *b[:3], "# a note\n", *b[3:]]),
    "mid-body-same-lmax": _lines(lambda h, b: [*h, *b[:3], "# lmax=1\n", *b[3:]]),
    "mid-body-other-lmax": _lines(lambda h, b: [*h, *b[:3], "# grid lmax=2\n", *b[3:]]),
    "second-lmax-header": _lines(lambda h, b: ["# grid lmax=0\n", *h, *b]),
    "header-after-body": _lines(lambda h, b: [*b, *h]),
    "no-header": _lines(lambda h, b: b),
    "header-lmax-text": _lines(lambda h, b: ["# grid lmax=one\n", h[1], *b]),
    "header-lmax-negative": _lines(lambda h, b: ["# grid lmax=-1\n", h[1], *b]),
    "header-lmax-underscore": _lines(lambda h, b: ["# grid lmax=0_1\n", h[1], *b]),
    "trailing-comment": _lines(lambda h, b: [*h, b[0].rstrip("\n") + " # note\n", *b[1:]]),
    "spaces-around-fields": _lines(
        lambda h, b: [*h, " " + b[0].rstrip("\n").replace(",", " , ") + " \n", *b[1:]]),
    "tabs-around-fields": _lines(lambda h, b: [*h, "\t" + b[0].replace(",", "\t,"), *b[1:]]),
    "nbsp-around-field": lambda t: _set(t, 1, 2, "\xa00.5\xa0"),
    "bom": lambda t: "﻿" + t,
    "bom-on-row": _lines(lambda h, b: [*h, "﻿" + b[0], *b[1:]]),
    "three-fields": _lines(lambda h, b: [*h, *b[:2], ",".join(b[2].split(",")[:3]) + "\n", *b[3:]]),
    "five-fields": _lines(lambda h, b: [*h, *b[:2], b[2].rstrip("\n") + ",0.0\n", *b[3:]]),
    "every-row-three-fields": _lines(
        lambda h, b: [*h, *(",".join(line.split(",")[:3]) + "\n" for line in b)]),
    "trailing-comma": _lines(lambda h, b: [*h, b[0].rstrip("\n") + ",\n", *b[1:]]),
    "one-row-short": _lines(lambda h, b: [*h, *b[:-1]]),
    "one-row-over": _lines(lambda h, b: [*h, *b, b[-1]]),
    "phi-off-grid": lambda t: _set(t, 6, 1, "0.5"),
    "theta-off-grid": lambda t: _shift(t, 5, 0, 2e-9),
    "theta-within-tolerance": lambda t: _shift(t, 5, 0, 5e-10),
    # np.loadtxt refuses 1_0, so these grid errors come from the line loop
    "value-1_0-then-phi-off-grid": lambda t: _set(_set(t, 2, 3, "1_0"), 6, 1, "0.5"),
    "value-1_0-no-header": lambda t: _lines(lambda h, b: b)(_set(t, 2, 3, "1_0")),
    **{f"value-{token!r}": functools.partial(_set, row=2, column=3, value=token)
       for token in ["+1e0", "1.", ".5", "1_0", "1e-400", "-0.0", "5e-324", "1e999", "0x1p3", "",
                     " ", "1e", "١", "1.0\x00", "Infinity", "1 0"]},
    **{f"column-{column}-{token}": functools.partial(_set, row=3, column=column, value=token)
       for column in range(4) for token in ["nan", "inf", "-inf", "NaN"]},
    # str.isspace() but not stripped by float() alone: stripped beside a comma and at a line end
    **{f"separator-{ord(c):#04x}-{where}": functools.partial(_set, row=1, column=column,
                                                             value=f"0.5{c}")
       for c in "\x1c\x1d\x1e\x1f" for where, column in [("beside-comma", 2), ("at-line-end", 3)]},
}


@pytest.mark.parametrize("variant", sorted(FIELD_VARIANTS))
def test_field_reader_matches_reference_reader(tmp_path, field_text, variant):
    path = tmp_path / "field.csv"
    path.write_bytes(FIELD_VARIANTS[variant](field_text).encode("utf-8"))
    expected = reference_io.outcome(reference_io.load_field, path)
    assert reference_io.outcome(load_field, path) == expected


# text pieces, encoded, then the raw byte pieces
FIELD_PIECES = hs.sampled_from([p.encode("utf-8") for p in [
    ",", " ", "#", "\n", "\t", "e", "+", "-", ".", "_", "0", "1", "9", "nan", "inf", "lmax=", "=", "x",
    "\x00", "\x1c", "\x1f", "\xa0", "﻿", "١"]] + reference_io.RAW_PIECES)


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
@settings(derandomize=True, max_examples=150, deadline=None)
@given(hs.data())
def test_field_reader_matches_reference_on_damaged_text(tmp_path_factory, field_text, data):
    # a regular file may take the bulk path first, a pipe goes to the line
    # loop at once: both must give the reference's outcome
    doc = field_text.encode("utf-8")
    for _ in range(data.draw(hs.integers(1, 3))):
        at = data.draw(hs.integers(0, len(doc)))
        if data.draw(hs.booleans()):
            doc = doc[:at] + b"".join(data.draw(hs.lists(FIELD_PIECES, min_size=1, max_size=3))) + doc[at:]
        else:
            doc = doc[:at] + doc[at + data.draw(hs.integers(1, 8)):]
    path = tmp_path_factory.mktemp("doc") / "field.csv"
    path.write_bytes(doc)
    expected = reference_io.outcome(reference_io.load_field, path)
    assert reference_io.outcome(load_field, path) == expected
    assert reference_io.pipe_outcome(load_field, doc, path) == expected


# every str.isspace() character but the two that end a line
SPACES = [c for c in map(chr, range(sys.maxunicode + 1)) if c.isspace() and c not in "\n\r"]


@pytest.mark.parametrize("column", [2, 3], ids=["beside-comma", "at-line-end"])
@pytest.mark.parametrize("space", SPACES, ids=[f"{ord(c):#06x}" for c in SPACES])
def test_spaces_around_numbers_skip_the_line_loop(tmp_path, monkeypatch, field_text, space, column):
    # np.loadtxt strips every str.isspace() character around a number, and so
    # does the line loop before float(), so no such document needs the loop
    def no_loop(path):
        raise AssertionError("line loop ran for a document the bulk reader accepts")

    value = field_text.splitlines()[3].split(",")[column]
    path = tmp_path / "field.csv"
    path.write_bytes(_set(field_text, 1, column, value + space).encode("utf-8"))
    expected = reference_io.outcome(reference_io.load_field, path)
    clean = tmp_path / "clean.csv"
    clean.write_text(field_text, encoding="utf-8")
    assert expected[0] == "ok" and expected == reference_io.outcome(reference_io.load_field, clean)
    monkeypatch.setattr("sphcalc.transform._load_field_lines", no_loop)
    assert reference_io.outcome(load_field, path) == expected


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
def test_field_document_from_a_pipe_is_read_once(tmp_path, field_text):
    # 1_0 fails np.loadtxt, so a regular file would be read twice; a pipe
    # must go to the line loop at once, or its second read finds nothing
    text = _set(field_text, 2, 3, "1_0")
    regular = tmp_path / "field.csv"
    regular.write_text(text, encoding="utf-8")
    read_end, write_end = os.pipe()
    try:
        os.write(write_end, text.encode("utf-8"))
        os.close(write_end)
        got = reference_io.outcome(load_field, f"/dev/fd/{read_end}")
    finally:
        os.close(read_end)
    expected = reference_io.outcome(reference_io.load_field, regular)
    assert expected[0] == "ok" and got == expected


def test_the_first_bad_line_in_file_order_is_reported(tmp_path, field_text):
    # text-mode reading decoded ahead of the loop, so the undecodable byte on
    # line 9 was reported before the bad number on line 3
    lines = _set(field_text, 0, 3, "x").encode("utf-8").splitlines(keepends=True)
    lines[8] = lines[8].replace(b",", b",\xff", 1)
    path = tmp_path / "field.csv"
    path.write_bytes(b"".join(lines))
    with pytest.raises(FieldFileError, match=re.escape(f"{path}:3: bad number: ")):
        load_field(path)


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
def test_non_utf8_field_document_from_a_pipe_names_the_line(field_text):
    # a pipe is read once, so its undecodable byte was reported with the path alone
    lines = field_text.encode("utf-8").splitlines(keepends=True)
    lines[5] = lines[5].replace(b",", b",\xff", 1)
    read_end, write_end = os.pipe()
    try:
        os.write(write_end, b"".join(lines))
        os.close(write_end)
        path = f"/dev/fd/{read_end}"
        with pytest.raises(FieldFileError) as raised:
            load_field(path)
    finally:
        os.close(read_end)
    assert str(raised.value) == f"{path}:6: not UTF-8 text: byte 0xff: invalid start byte"


def _decode_fault(data):
    """What decoding all of ``data`` as UTF-8 reports: the byte and the reason."""
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        return f"byte {data[exc.start]:#04x}: {exc.reason}"


@pytest.mark.parametrize("ending", [b"\n", b"\r\n", b"\r"], ids=["lf", "crlf", "cr"])
@pytest.mark.parametrize("at_end", [False, True], ids=["mid-file", "end-of-file"])
def test_a_cut_utf8_sequence_reports_what_decoding_the_whole_file_does(tmp_path, field_text, ending, at_end):
    # each line is decoded with its ending, so the cut sequence b"\xe2" meets the
    # ending as the whole file's decode does, not the end of a stripped line
    lines = field_text.encode("utf-8").splitlines()
    at = len(lines) - 1 if at_end else 4
    lines[at] += b"\xe2"
    data = ending.join(lines) + (b"" if at_end else ending)
    path = tmp_path / "field.csv"
    path.write_bytes(data)
    fault = _decode_fault(data)
    assert fault == ("byte 0xe2: unexpected end of data" if at_end else "byte 0xe2: invalid continuation byte")
    with pytest.raises(FieldFileError) as raised:
        load_field(path)
    assert str(raised.value) == f"{path}:{at + 1}: not UTF-8 text: {fault}"


def test_clean_field_document_skips_the_line_loop(tmp_path, monkeypatch, field_text):
    def no_loop(path):
        raise AssertionError("line loop ran for a clean document")

    monkeypatch.setattr("sphcalc.transform._load_field_lines", no_loop)
    path = tmp_path / "field.csv"
    path.write_text(field_text, encoding="utf-8")
    expected = reference_io.outcome(reference_io.load_field, path)
    assert reference_io.outcome(load_field, path) == expected


@pytest.mark.parametrize(
    "variant", ["phi-off-grid", "theta-off-grid", "one-row-short", "no-header",
                "header-lmax-negative"])
def test_grid_errors_skip_the_line_loop(tmp_path, monkeypatch, field_text, variant):
    # a body that parses meets the grid once, in the bulk reader
    def no_loop(path):
        raise AssertionError("line loop ran for a document whose body parses")

    monkeypatch.setattr("sphcalc.transform._load_field_lines", no_loop)
    path = tmp_path / "field.csv"
    path.write_bytes(FIELD_VARIANTS[variant](field_text).encode("utf-8"))
    expected = reference_io.outcome(reference_io.load_field, path)
    assert expected[0] == "error"
    assert reference_io.outcome(load_field, path) == expected


def test_field_file_errors(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("# grid lmax=1 n_theta=2 n_phi=4\n1.0,2.0,3.0\n")
    with pytest.raises(FieldFileError, match=":2"):
        load_field(path)
    path.write_text("0.1,0.2,0.3,0.4\n")
    with pytest.raises(FieldFileError, match="metadata"):
        load_field(path)


def test_field_file_bad_header_lmax_names_the_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("# columns theta,phi,re,im\n# grid lmax=abc n_theta=1 n_phi=2\n")
    with pytest.raises(FieldFileError, match=re.escape(f"{path}:2: non-integer 'lmax=abc'")):
        load_field(path)


@pytest.mark.parametrize(
    "header, n_rows",
    [("lmax=200000", 1), ("lmax=-3", 8)],
    ids=["huge", "negative"],
)
def test_field_file_header_checked_before_grid(tmp_path, monkeypatch, header, n_rows):
    # the grid for a header's lmax is only built once the rows agree with it
    def no_grid(lmax):
        raise AssertionError(f"make_grid({lmax}) called for a malformed file")

    monkeypatch.setattr("sphcalc.transform.make_grid", no_grid)
    path = tmp_path / "bad.csv"
    path.write_text(f"# grid {header}\n" + "0.5,0.5,0.0,0.0\n" * n_rows)
    with pytest.raises(FieldFileError, match=re.escape(str(path))):
        load_field(path)


@pytest.mark.parametrize("column, value", [(2, "nan"), (3, "-inf"), (0, "nan"), (1, "inf")])
def test_field_file_rejects_non_finite_values(tmp_path, column, value):
    # a NaN node would also slip through the node-distance check
    field = synthesize(random_expansion(6, 1, decay=1.0), make_grid(1))
    path = tmp_path / "field.csv"
    save_field(field, path)
    lines = path.read_text().splitlines()
    row = lines[4].split(",")
    row[column] = value
    lines[4] = ",".join(row)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(FieldFileError, match=re.escape(f"{path}:5: non-finite")):
        load_field(path)

"""Quadrature grids and analysis/synthesis transforms on the sphere.

The grid is Gauss-Legendre in ``x = cos(theta)`` crossed with equispaced
``phi``; a grid built for degree ``lmax`` integrates products of two
band-limited functions of degree ``lmax`` exactly (up to roundoff), which
makes analyse/synthesise an exact round trip on band-limited data.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
import threading

import numpy as np

from .expansions import HarmonicExpansion, as_degree, as_point, at_least, degree_order_arrays
from .legendre import _table_map, check_lmax, orthonormal_legendre_table, orthonormal_sh_values
from .report import BoundReport


class GridTooCoarseError(ValueError):
    """Grid exactness below what the requested operation needs."""


class FieldFileError(ValueError):
    """Malformed sampled-field document."""


def _legendre_and_slope(n: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``P_n(x)`` and ``P_n'(x)`` by the three-term recurrence (``n >= 1``)."""
    p_prev = np.ones_like(x)
    p = x.copy()
    for deg in range(2, n + 1):
        p, p_prev = ((2 * deg - 1) * x * p - (deg - 1) * p_prev) / deg, p
    return p, n * (x * p - p_prev) / (x * x - 1.0)


@functools.lru_cache(maxsize=None, typed=True)  # typed: a hit on 2 must not pass 2.0
def gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes (ascending) and weights on [-1, 1], read-only.

    Newton iteration on the degree-``n`` Legendre polynomial for the
    ``ceil(n/2)`` nodes with ``x <= 0``, converged to 1e-15 in the node
    update; the other nodes are their mirror images, so ``x == -x[::-1]`` and
    ``w == w[::-1]`` hold exactly, and the centre node of odd ``n`` is ``0.0``.
    Solved and checked once per node count; every grid of that count shares
    the arrays.
    """
    n = at_least(n, "n", 1)
    k = np.arange(n // 2 + 1, n + 1, dtype=np.float64)
    x = np.cos(math.pi * (k - 0.25) / (n + 0.5))  # descending from the centre
    for _ in range(100):
        p, dp = _legendre_and_slope(n, x)
        dx = p / dp
        x -= dx
        if np.max(np.abs(dx)) < 1e-15:
            break
    if n % 2:
        x[0] = 0.0
    _, dp = _legendre_and_slope(n, x)
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    x, w = np.concatenate([x[::-1], -x[n % 2:]]), np.concatenate([w[::-1], w[n % 2:]])
    if abs(w.sum() - 2.0) > 1e-13:
        raise ValueError("quadrature weights must sum to 2")
    if np.any(np.diff(x) <= 0.0):
        raise ValueError("nodes must be strictly increasing")
    x.flags.writeable = w.flags.writeable = False
    return x, w


# table builds run one at a time, so calls that overlap on a grid build its
# table once; a forked child finds the lock free (a hook of this module's own
# would keep a re-imported module alive)
_TABLE_LOCK = threading.Lock()
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_TABLE_LOCK._at_fork_reinit)


class SphereGrid:
    """Gauss-Legendre x equispaced-phi product grid of degree ``lmax``.

    The degree fixes everything: ``lmax + 1`` Gauss-Legendre nodes in ``x =
    cos(theta)``, mirror images of each other about the equator, and
    ``2*lmax + 2`` phi nodes ``2*pi*j/n_phi`` from 0, the nodes on which the
    transforms' phi stage is an FFT, each of weight ``dphi = 2*pi/n_phi``.
    """

    __slots__ = ("lmax", "x", "w", "theta", "phi", "dphi", "_entry")

    def __init__(self, lmax: int):
        self.lmax = check_lmax(lmax)
        n_theta, n_phi = _grid_shape(self.lmax)
        self.x, self.w = gauss_legendre(n_theta)
        self.phi = 2.0 * math.pi * np.arange(n_phi) / n_phi
        self.dphi = 2.0 * math.pi / n_phi
        self.theta = np.arccos(np.clip(self.x, -1.0, 1.0))
        self.phi.flags.writeable = self.theta.flags.writeable = False
        self._entry = None

    @property
    def n_theta(self) -> int:
        return self.x.size

    @property
    def n_phi(self) -> int:
        return self.phi.size

    def phi_sums(self, dmax: int) -> np.ndarray:
        """Trapezoid sums ``dphi * sum_j exp(i*d*phi_j)`` for ``d = -dmax..dmax``,
        entry ``d + dmax``: the phi factor of every product of harmonics whose
        orders differ by ``d``, ``2*pi`` at ``d = 0`` and roundoff elsewhere
        while ``|d| < n_phi``."""
        dmax = at_least(dmax, "dmax", 0)
        d = np.arange(-dmax, dmax + 1)
        return self.dphi * np.exp(1j * np.outer(d, self.phi)).sum(axis=1)

    def basis_table(self, lmax: int):
        """The grid's one entry ``(rows, slot, sign, blocks, table)``, of degree G >= ``lmax``:
        the layout fields of ``legendre._table_map(G)`` and ``orthonormal_legendre_table(G)`` at
        the nodes with ``x >= 0`` (column ``j`` is node ``n_theta // 2 + j``;
        node ``-x`` holds ``(-1)^(l+m)`` times its values), G the highest
        degree asked so far.  A row has the same bits at every degree, so a
        lower degree reads the table's prefix (``_block_views``).  A higher
        one is built under ``_TABLE_LOCK`` and replaces the entry; no stored
        array is written.  A degree that is not an integer, below 0 or above
        the grid's own is refused before anything is built.
        """
        lmax = as_degree(lmax)  # a stored entry would answer a negative degree or 2.5
        if lmax > self.lmax:
            raise GridTooCoarseError(f"grid lmax={self.lmax} < transform lmax={lmax}")
        size = (lmax + 1) ** 2
        if self._entry is None or self._entry[0].size < size:
            with _TABLE_LOCK:  # a call that waited here finds the entry built
                if self._entry is None or self._entry[0].size < size:
                    self._entry = (*_table_map(lmax)[:4], orthonormal_legendre_table(lmax, self.x[self.n_theta // 2:]))
        return self._entry

    def __repr__(self):
        return f"SphereGrid(lmax={self.lmax}, n_theta={self.n_theta}, n_phi={self.n_phi})"


def _grid_shape(lmax: int) -> tuple[int, int]:
    return lmax + 1, 2 * lmax + 2


def make_grid(lmax: int) -> SphereGrid:
    """Minimal exact grid for degree ``lmax``: ``lmax+1`` x ``2*lmax+2`` nodes."""
    return SphereGrid(lmax)


class SampledField:
    """Complex samples on a sphere grid, indexed ``[theta_node, phi_node]``."""

    __slots__ = ("grid", "samples")

    def __init__(self, grid: SphereGrid, samples):
        arr = np.asarray(samples, dtype=np.complex128)
        shape = (grid.n_theta, grid.n_phi)
        if arr.shape != shape:
            raise ValueError(f"sample table shape {arr.shape} does not match grid {shape}")
        self.grid = grid
        self.samples = arr


# samples per worker: a transform of at least twice this many deals its block
# products and its phi-stage FFT rows to one thread per this many, at most one
# per usable core.  BENCH_36.json: on a 2-core x86 host, L=256 transform_warm
# (132,098 samples, two workers) against the same tree with nothing split read
# a latency_p50_ms of 21.5 vs 28.4 ms host-scaled (12/12 order-alternated
# pairs) and 18.4 vs 19.8 ms wall-clock (9/12)
SPLIT_SAMPLES = 36_000
_GRAM_ROWS = 64  # rows of the Gram matrix that orthonormality_check forms at once


def _usable_cores() -> int:
    """Cores this process may run on: its CPU affinity where the platform has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _workers(samples: int) -> int:
    """Threads for a transform of ``samples`` samples (``B * n_theta * n_phi``)."""
    n = samples // SPLIT_SAMPLES
    return 1 if n < 2 else min(n, _usable_cores())


def _deal(tasks: list, workers: int) -> None:
    """Run every task, share ``k`` of ``workers`` taking tasks ``k, k + workers, ...``.

    Share 0 runs in the calling thread and each other share on a thread
    started here and joined before the return, so no thread outlives the
    call; the error of the lowest share that raised is raised after the join.  A
    task writes only its own output, so the result does not depend on the split.
    """
    errors = {}  # share -> its error

    def share(k):
        try:
            for task in tasks[k::workers]:
                task()
        except BaseException as exc:
            errors[k] = exc

    threads = [threading.Thread(target=share, args=(k,)) for k in range(1, workers)]
    for thread in threads:
        thread.start()
    share(0)
    for thread in threads:
        thread.join()  # the shares write to the caller's arrays
    if errors:
        raise errors.pop(min(errors))  # popped: its traceback holds share's frame, and so this dict


def _fft_rows(fft, a: np.ndarray, workers: int) -> np.ndarray:
    """``fft(a, axis=-1)`` of the 2-D ``a``, one block of rows per worker.

    The result is allocated here, in the calling thread: an array allocated
    in a worker thread would grow that thread's own heap, and with it the
    process's peak memory.
    """
    out = np.empty(a.shape, dtype=np.complex128)
    n = a.shape[0]
    blocks = [slice(k * n // workers, (k + 1) * n // workers) for k in range(workers)]
    _deal([functools.partial(fft, a[r], axis=-1, out=out[r]) for r in blocks], workers)
    return out


def _block_views(table: np.ndarray, blocks: np.ndarray, L: int, columns: np.ndarray):
    """Per block of a group with orders up to ``L``: its first order, its parity,
    and the degree-``L`` prefix of the block in ``table`` and in ``columns``,
    an array laid out by the same table rows, shape ``(orders, R, width)``."""
    for m0, k, p, start, R in blocks.tolist():
        if m0 > L:
            break
        prefix = slice(L + 1 - m0), slice((L - m0 - p) // 2 + 1)
        yield m0, p, *(a[start:start + k * R].reshape(k, R, a.shape[1])[prefix] for a in (table, columns))


def _synthesize_table(coeffs: np.ndarray, grid: SphereGrid) -> np.ndarray:
    """Samples ``(B, n_theta, n_phi)`` of ``B`` coefficient rows ``(B, K)``.

    Separable evaluation, folded at the equator: per group of orders and
    parity of ``l+m``, one stacked real product of the table block against
    the ``+m`` and ``-m`` coefficients of every row (stacked as the float64
    view of complex data, zero where the block is padded) at the nodes with
    ``x >= 0``.  Even plus odd part gives those nodes, even minus odd part
    their mirror images, in one step over all orders.  Then order ``m`` goes
    to FFT bin ``m mod n_phi`` and one unnormalised inverse FFT sums
    ``exp(i*m*phi_j)`` over the equispaced phi nodes.  A large transform
    deals the products and blocks of FFT rows to ``_workers`` threads.
    Cubic cost in the degree, which is the intended envelope at desk scale.
    """
    B, K = coeffs.shape
    L = math.isqrt(K) - 1
    rows, slot, sign, blocks, N = grid.basis_table(L)
    P, h = grid.n_theta, N.shape[1]
    s = P // 2  # nodes with x < 0; node i mirrors node P - 1 - i
    workers = _workers(B * P * grid.n_phi)
    C = np.zeros((N.shape[0], 2, B), dtype=np.complex128)
    C[rows[:K], slot[:K]] = sign[:K, None] * coeffs.T
    Cr = C.reshape(-1, 2 * B).view(np.float64)
    EO = np.empty((2, L + 1, h, 2, B), dtype=np.complex128)  # [even/odd l+m, m, node x >= 0, +m/-m, row]
    EOr = EO.reshape(2, L + 1, h, 2 * B).view(np.float64)
    _deal([functools.partial(np.matmul, Nb.transpose(0, 2, 1), Cb, out=EOr[p, m0:m0 + len(Nb)])
           for m0, p, Nb, Cb in _block_views(N, blocks, L, Cr)], workers)
    E, O = EO.transpose(0, 4, 2, 1, 3)  # [row, node x >= 0, m, +m/-m]
    F = np.zeros((B, P, grid.n_phi), dtype=np.complex128)  # [row, theta node, FFT bin]
    # +m goes to bin m, -m (m >= 1) to bin n_phi - m
    for bins, e, o in ((F[..., :L + 1], E[..., 0], O[..., 0]),
                       (F[..., :-L - 1:-1], E[..., 1:, 1], O[..., 1:, 1])):
        np.add(e, o, out=bins[:, s:])
        np.subtract(e[:, h - s:], o[:, h - s:], out=bins[:, :s][:, ::-1])
    ifft = functools.partial(np.fft.ifft, norm="forward")
    return _fft_rows(ifft, F.reshape(B * P, -1), workers).reshape(B, P, -1)


def _analyze_table(samples: np.ndarray, grid: SphereGrid, lmax: int) -> np.ndarray:
    """Coefficient rows ``(B, K)`` of ``B`` sample tables ``(B, n_theta, n_phi)``.

    The phi stage is one FFT over every batch row and theta node, whose bins
    ``m`` and ``-m mod n_phi`` are the trapezoid sums against
    ``exp(-+i*m*phi_j)``.  The weighted sums at each node with ``x >= 0``
    and at its mirror image are folded into their sum and difference, which
    the table blocks of even and of odd ``l+m`` read, one stacked real
    product each per group of orders, as in ``_synthesize_table``, which
    also splits a large transform the same way.
    """
    L = lmax
    B, K = samples.shape[0], (L + 1) ** 2
    rows, slot, sign, blocks, N = grid.basis_table(L)
    P, h = grid.n_theta, N.shape[1]
    s = P // 2  # nodes with x < 0
    workers = _workers(B * P * grid.n_phi)
    m = np.arange(L + 1)
    H = grid.dphi * _fft_rows(np.fft.fft, samples.reshape(B * P, -1), workers)[:, np.stack([m, -m], axis=1)]
    W = (grid.w[:, None, None] * H.reshape(B, P, L + 1, 2)).transpose(2, 1, 3, 0)  # [m, theta node, +m/-m, row]
    north, south = W[:, s:], W[:, :s][:, ::-1]  # south[:, j] mirrors north[:, j + h - s]
    SD = np.empty((2, L + 1, h, 2, B), dtype=np.complex128)  # [sum/difference, m, node x >= 0, +m/-m, row]
    SD[:, :, :h - s] = north[:, :h - s]  # the centre node of odd n_theta is its own mirror
    np.add(north[:, h - s:], south, out=SD[0, :, h - s:])
    np.subtract(north[:, h - s:], south, out=SD[1, :, h - s:])
    SDr = SD.reshape(2, L + 1, h, 2 * B).view(np.float64)
    C = np.empty((N.shape[0], 2, B), dtype=np.complex128)
    Cr = C.reshape(-1, 2 * B).view(np.float64)
    _deal([functools.partial(np.matmul, Nb, SDr[p, m0:m0 + len(Nb)], out=Cb)
           for m0, p, Nb, Cb in _block_views(N, blocks, L, Cr)], workers)
    return (sign[:K, None] * C[rows[:K], slot[:K]]).T


def synthesize(f: HarmonicExpansion, grid: SphereGrid) -> SampledField:
    """Evaluate the expansion on the grid (one row of ``_synthesize_table``)."""
    return SampledField(grid, _synthesize_table(f.coeffs[None, :], grid)[0])


def analyze(field: SampledField, lmax: int) -> HarmonicExpansion:
    """Coefficients by quadrature against the orthonormal basis functions.

    Exact (to roundoff) whenever the field is band-limited at a degree the
    grid resolves.  One row of ``_analyze_table``.
    """
    return HarmonicExpansion(lmax, _analyze_table(field.samples[None], field.grid, lmax)[0])


def point_eval(f: HarmonicExpansion, p) -> complex:
    """Evaluate the expansion at a single point (finite coefficient sum)."""
    p = as_point(p)
    return complex(orthonormal_sh_values(f.lmax, math.cos(p.theta), p.phi)[0] @ f.coeffs)


def inner_product(f: HarmonicExpansion, g: HarmonicExpansion) -> complex:
    """Coefficient-side pairing, conjugate-linear in the first argument."""
    lmax = max(f.lmax, g.lmax)
    return complex(np.vdot(f.with_lmax(lmax).coeffs, g.with_lmax(lmax).coeffs))


def quadrature_integral(field: SampledField) -> complex:
    """Integral of the samples against the product measure."""
    return complex(field.grid.dphi * (field.grid.w @ field.samples.sum(axis=1)))


def quadrature_inner_product(fa: SampledField, fb: SampledField) -> complex:
    if fa.grid.lmax != fb.grid.lmax:
        raise ValueError("fields live on different grids")
    inner = np.einsum("ij,ij->i", fa.samples.conj(), fb.samples)
    return complex(fa.grid.dphi * (fa.grid.w @ inner))


def orthonormality_check(lmax: int) -> BoundReport:
    """Gram matrix of the orthonormal basis by quadrature, against identity.

    The theta factor of every Gram entry is the basis evaluated at every
    Gauss node, so the check reads the quadrature and the recurrence, not
    the transforms' equatorial fold; the phi factor is the trapezoid sum
    ``sum_j exp(i*(m'-m)*phi_j)`` of ``SphereGrid.phi_sums``, so
    the reported deviation is the true quadrature deviation at every node.
    It forms ``_GRAM_ROWS`` rows at a time and keeps each block's largest deviation: no K x K array.
    """
    grid = make_grid(lmax)
    # T[i, k] = basis function k at theta node i and phi = 0: its real theta factor
    T = orthonormal_sh_values(lmax, grid.x, 0.0).real
    wT = grid.w[:, None] * T
    phi_sum = grid.phi_sums(2 * lmax)  # [m' - m + 2*lmax]
    _, ms = degree_order_arrays(lmax)
    dev = 0.0
    for start in range(0, ms.size, _GRAM_ROWS):
        gram = phi_sum[ms - ms[start:start + _GRAM_ROWS, None] + 2 * lmax]
        gram *= T[:, start:start + _GRAM_ROWS].T @ wT  # complex times real: the bits of real times complex
        gram.ravel()[start::ms.size + 1] -= 1.0  # entry (i, start + i) of each row i
        dev = np.maximum(dev, np.abs(gram).max())
    return BoundReport(
        check="orthonormality",
        anchor="integral of conj(Y_l^m) (l+1/2) Y_l'^m' over the sphere = delta_ll' delta_mm'",
        lhs=float(dev),
        rhs=1e-10,
        lmax=grid.lmax,
    )


def completeness_kernel(lmax: int, p, q) -> complex:
    """Truncated reproducing kernel ``sum e_{l,m}(p) conj(e_{l,m}(q))``.

    Concentrates toward a delta in ``(cos(theta), phi)`` as ``lmax`` grows;
    the diagonal value is exactly ``(lmax+1)^2 / (4*pi)``.
    """
    p, q = as_point(p), as_point(q)
    values = orthonormal_sh_values(lmax, np.cos([p.theta, q.theta]), np.array([p.phi, q.phi]))
    return complex(np.vdot(values[1], values[0]))


# ---------------------------------------------------------------------------
# sampled-field document I/O: '#' metadata header, then theta,phi,re,im rows

def save_field(field: SampledField, path) -> None:
    """Write the samples as a ``#`` header and one ``theta,phi,re,im`` row per node.

    Every double is written with ``repr``; the bytes are pinned by tests to
    the per-row reference writer in ``tests/reference_io.py``.  The text is
    built from whole columns and written one theta row at a time.
    """
    grid = field.grid
    phis = [repr(phi) for phi in grid.phi.tolist()]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# grid lmax={grid.lmax} n_theta={grid.n_theta} n_phi={grid.n_phi}\n")
        fh.write("# columns theta,phi,re,im\n")
        for theta, row in zip(grid.theta.tolist(), field.samples):
            line = f"{theta!r},%s,%r,%r\n"
            fh.write("".join(map(line.__mod__, zip(phis, row.real.tolist(), row.imag.tolist()))))


def _header_lmax(path, lineno: int, line: str, lmax):
    """The last ``lmax=`` token of a stripped ``#`` line, else ``lmax`` unchanged."""
    for token in line[1:].split():
        if token.startswith("lmax="):
            try:
                lmax = int(token[5:])
            except ValueError:
                raise FieldFileError(f"{path}:{lineno}: non-integer {token!r}") from None
    return lmax


def load_field(path) -> SampledField:
    """Read a sampled-field document onto the grid its header declares.

    Accepts and rejects the same documents, with the same messages, as the
    per-line reference reader in ``tests/reference_io.py``, and loads the
    same bits.  After the leading ``#`` lines the body is parsed as one
    array by ``np.loadtxt``, which reads a subset of what the line loop
    reads and rounds the same way; a document that parse refuses is read
    again line by line, which accepts it as before or names the first bad
    line in file order, a line that is not UTF-8 text included.  Either way
    the rows meet the declared grid in ``_field_on_grid``.
    """
    # a document the bulk reader refuses is read a second time, so a pipe or
    # other stream goes straight to the line loop, which reads it once
    field = _load_field_bulk(path) if os.path.isfile(path) else None
    return field if field is not None else _load_field_lines(path)


def _load_field_bulk(path) -> SampledField | None:
    """The field read as one array, or ``None`` where the text does not
    decode, a header or the body does not parse, or a row is not four finite
    values, so that the line loop names the line."""
    lmax = None
    body = np.empty((0, 4))
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                text = line.strip()
                if text.startswith("#"):
                    lmax = _header_lmax(path, lineno, text, lmax)
                elif text:
                    # comments=None: a later '#' line fails the parse, so only
                    # the line loop reads a header past the first row
                    body = np.loadtxt(itertools.chain([line], fh), dtype=np.float64,
                                      delimiter=",", comments=None, ndmin=2)
                    break
    except ValueError:  # UnicodeDecodeError and FieldFileError among them
        return None
    if body.shape[1] != 4 or not np.all(np.isfinite(body)):
        return None
    return _field_on_grid(path, lmax, body)


def _load_field_lines(path) -> SampledField:
    """Per-line loop over the raw bytes: the field, or the error of the first
    bad line in file order.  Lines end where text-mode reading ends them
    (``\\n``, ``\\r\\n`` or a lone ``\\r``), and each is decoded with its
    ending, so a cut UTF-8 sequence reports what decoding the whole file does."""
    lmax = None
    rows = []
    with open(path, "rb") as fh:
        lines = (piece for chunk in fh for piece in chunk.splitlines(keepends=True))
        for lineno, raw in enumerate(lines, start=1):
            try:
                line = raw.decode("utf-8").strip()
            except UnicodeDecodeError as exc:
                raise FieldFileError(
                    f"{path}:{lineno}: not UTF-8 text: byte {raw[exc.start]:#04x}: {exc.reason}"
                ) from exc
            if not line:
                continue
            if line.startswith("#"):
                lmax = _header_lmax(path, lineno, line, lmax)
                continue
            parts = line.split(",")
            if len(parts) != 4:
                raise FieldFileError(f"{path}:{lineno}: expected 4 fields, got {len(parts)}")
            try:
                # float() alone keeps U+001C..U+001F, which np.loadtxt strips
                row = tuple(float(t.strip()) for t in parts)
            except ValueError as exc:
                raise FieldFileError(f"{path}:{lineno}: bad number: {line!r}") from exc
            if not all(math.isfinite(v) for v in row):
                raise FieldFileError(f"{path}:{lineno}: non-finite value: {line!r}")
            rows.append(row)
    return _field_on_grid(path, lmax, np.array(rows).reshape(-1, 4))


def _field_on_grid(path, lmax, body: np.ndarray) -> SampledField:
    """The ``(rows, 4)`` float body as samples on the declared grid, or the
    first of: no header, a negative ``lmax``, a row count, an off-grid row."""
    if lmax is None:
        raise FieldFileError(f"{path}: missing grid metadata header")
    if lmax < 0:
        raise FieldFileError(f"{path}: grid lmax must be >= 0, got {lmax}")
    # make_grid costs O(lmax^2), so the header must first agree with the rows
    n_theta, n_phi = _grid_shape(lmax)
    if body.shape[0] != n_theta * n_phi:
        raise FieldFileError(f"{path}: expected {n_theta * n_phi} rows, got {body.shape[0]}")
    grid = make_grid(lmax)
    body = body.reshape(n_theta, n_phi, 4)
    off = np.maximum(abs(body[..., 0] - grid.theta[:, None]), abs(body[..., 1] - grid.phi)) > 1e-9
    if off.any():
        raise FieldFileError(f"{path}: row {off.argmax()} nodes do not match the declared grid")
    return SampledField(grid, np.ascontiguousarray(body[..., 2:]).view(np.complex128)[..., 0])


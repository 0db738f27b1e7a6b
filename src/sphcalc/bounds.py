"""Continuity-bound verification and point-functional certificates.

Each bound check builds a :class:`BoundReport` whose left side is the
measured operator norm value and whose right side is the claimed bound; for
inequalities the tolerance is zero, so any negative margin is a genuine
falsification.  Test functions come from a seeded rapid-decay ensemble
(coefficients ``(l+|m|+1)^-6`` times complex Gaussians), with per-trial
substreams derived from ``(seed, trial)`` so results are order-independent.
"""

from __future__ import annotations

import math
import zlib
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .expansions import (
    HarmonicExpansion,
    as_degree,
    as_integer,
    as_point,
    at_least,
    degree_weights,
    flat_index,
    graded_norm,
    graded_norms,
)
from .report import BoundReport
from .structural import OPERATORS, cos_theta_op
from .transform import point_eval

DEFAULT_DECAY = 6.0
_TRIAL_BLOCK = 256  # smooth falsifier trials drawn and measured together
WEAK_EIGEN_TOL = 1e-10  # relative tolerance of weak_eigen_cos and of suite_bounds' screen for it


def _seed_entropy(seed):
    # numpy seed sequences take integers; fold string labels deterministically
    if isinstance(seed, str):
        return zlib.crc32(seed.encode())
    if isinstance(seed, (tuple, list)):
        return tuple(_seed_entropy(part) for part in seed)
    return seed


def substream(*seed) -> np.random.Generator:
    """Deterministic generator for a seed path of integers and labels (``default_rng``'s stream)."""
    return np.random.Generator(np.random.PCG64(_seed_entropy(seed)))


def _random_rows(seeds, lmax: int, decay: float = DEFAULT_DECAY) -> np.ndarray:
    # row i of the (len(seeds), K) block is drawn from seed path seeds[i]
    scale = degree_weights(lmax) ** (-decay)
    K = scale.size
    rows = np.empty((len(seeds), K), dtype=np.complex128)
    for i, seed in enumerate(seeds):
        rng = substream(seed)
        rows[i] = scale * (rng.standard_normal(K) + 1j * rng.standard_normal(K))
    return rows


def random_expansion(seed, lmax: int, decay: float = DEFAULT_DECAY) -> HarmonicExpansion:
    """Rapid-decay random expansion; ``seed`` is any mix of ints and labels."""
    return HarmonicExpansion(lmax, _random_rows([seed], lmax, decay)[0])


# ---------------------------------------------------------------------------
# point functionals

def functional_constant(p: int) -> float:
    """Upper bound on the evaluation-functional constant of order ``p``.

    ``C_p^2 <= sum_l (2l+1)^2 / (4*pi*(l+1)^(2p))``, summed to degree 4000
    plus an integral bound on the tail beyond it.  Diverges for ``p < 2``;
    rejected.
    """
    p = at_least(p, "order", 2)
    lmax_tail = 4000
    degs = np.arange(lmax_tail + 1, dtype=np.float64)
    # from p = 43 the high-degree powers pass the double range: those terms are 0
    with np.errstate(over="ignore"):
        partial = float(np.sum((2 * degs + 1) ** 2 / (4 * math.pi * (degs + 1) ** (2 * p))))
    # (2l+1)^2 <= 4 (l+1)^2 for the tail, then integral comparison
    tail = (lmax_tail + 1.0) ** (3 - 2 * p) / (math.pi * (2 * p - 3))
    return math.sqrt(partial + tail)


def bound_point_functional(f: HarmonicExpansion, p, order: int, seed=None) -> BoundReport:
    """Certificate of the evaluation functional at ``p``, order ``order >= 2``."""
    return BoundReport(
        check="point_functional",
        anchor="|f(theta,phi)| <= C_p |f|_p",
        lhs=abs(point_eval(f, p)),
        rhs=functional_constant(order) * graded_norm(f, order),
        seed=seed,
        lmax=f.lmax,
        n=as_integer(order, "order"),
    )


def weak_eigen_cos(f: HarmonicExpansion, p, seed=None) -> BoundReport:
    """Weak eigenrelation of ``cos(theta)`` against one test function.

    Compares ``(cos(Theta) f)(p)`` with ``cos(theta_p) * f(p)``; equality up
    to roundoff (relative ``WEAK_EIGEN_TOL``) is the assertable form of the generalized
    eigenvalue statement for the evaluation functionals.
    """
    p = as_point(p)
    lhs_val = point_eval(cos_theta_op().apply(f), p)
    rhs_val = math.cos(p.theta) * point_eval(f, p)
    scale = max(abs(lhs_val), abs(rhs_val), 1e-300)
    return BoundReport(
        check="weak_eigen_cos",
        anchor="(cos(Theta) f)(theta,phi) = cos(theta) f(theta,phi)",
        lhs=abs(lhs_val - rhs_val),
        rhs=WEAK_EIGEN_TOL * scale,
        seed=seed,
        lmax=f.lmax,
    )


# ---------------------------------------------------------------------------
# randomized falsifier for claimed bound shapes

@dataclass(frozen=True)
class BoundClaim:
    """Shape of a claimed continuity bound: constant and norm indices per n."""

    constant: callable  # n -> K_n
    indices: callable  # n -> tuple of norm orders on the right side
    max_n: int


# |A f|_n <= K_n * sum_q |f|_q per operator name in OPERATORS; the bounds suite
# tries each, in this order.  cosTheta's raised branch shifts the degree weight
# like K+ does, so its constant needs the 2^n factor: an n-independent constant
# already fails on the constant mode at n = 2.
_CLAIMS = {
    "K+": BoundClaim(lambda n: 2.0**n, lambda n: (n + 1,), 4),
    "L": BoundClaim(lambda n: 1.0, lambda n: (n + 1,), 4),
    "M": BoundClaim(lambda n: 1.0, lambda n: (n + 1,), 4),
    "cosTheta": BoundClaim(lambda n: 2.0 ** (n + 1), lambda n: (n + 1,), 4),
    "dThetaLit": BoundClaim(lambda n: 0.5, lambda n: (2 * n, 2 * n + 2), 2),
}


def claim_margins(op_name: str, rows: np.ndarray, lmax: int):
    """Both sides of ``op_name``'s claim for every row of a ``(trials, K)`` block.

    Returns ``(lhs, rhs)``, each of shape ``(trials, max_n + 1)``:
    ``lhs[t, n] = |A f_t|_n`` and ``rhs[t, n] = K_n * sum_q |f_t|_q``.
    A unit row's margins do not depend on ``lmax``: its stencil entries and
    norm weights are functions of its own ``(l, m)`` and of its image's
    modes, and every other term of its norms is an exact zero.
    """
    claim = _CLAIMS[op_name]
    ns = tuple(range(claim.max_n + 1))
    qs = tuple(sorted({q for n in ns for q in claim.indices(n)}))
    # first: graded_norms refuses a bad degree or row width before the operator reads the rows
    source = dict(zip(qs, graded_norms(rows, lmax, qs).T))
    out, out_lmax = OPERATORS[op_name]()._apply_table(rows, lmax)
    lhs = graded_norms(out, out_lmax, ns)
    rhs = np.column_stack(
        [claim.constant(n) * sum(source[q] for q in claim.indices(n)) for n in ns]
    )
    return lhs, rhs


def continuity_criterion_check(op_name: str, trials: int, seed: int, lmax: int) -> BoundReport:
    """The one-name case of ``continuity_criterion_checks``."""
    return continuity_criterion_checks([op_name], trials, seed, lmax)[0]


def continuity_criterion_checks(op_names: Sequence[str], trials: int, seed: int, lmax: int) -> list[BoundReport]:
    """Randomized falsification attempts against each name's claim in ``_CLAIMS``.

    Trial ``t`` draws from substream ``(seed, t)``.  Every eighth trial
    (``t % 8 == 7``) is a single high-degree mode instead of the smooth
    ensemble; those are the inputs that break over-optimistic claims.  Each
    report's ``lhs``/``rhs`` are the first worst margin in ``(trial, n)``
    order.  Smooth trials are drawn and measured ``_TRIAL_BLOCK`` at a time.
    Each probe is a unit row at the highest probe degree, whose margins are
    those at its own degree (``claim_margins``), measured in blocks of at
    most ``_TRIAL_BLOCK * (lmax + 1)**2`` coefficients, a smooth block's
    size.  So memory beyond the two ``(trials, max_n + 1)`` margin arrays per
    name does not grow with ``trials``.  Each block is drawn once and
    measured against every name, so each report equals the one-name call's.
    """
    return _criterion_checks(op_names, trials, seed, lmax, 0)[0]


def _criterion_checks(op_names, trials, seed, lmax, n_kept):
    # continuity_criterion_checks, returned with the smooth draws from (seed, t)
    # for every t < n_kept, drawn once: a row's margins do not depend on its block
    trials, seed, lmax = at_least(trials, "trials", 1), at_least(seed, "seed", 0), as_degree(lmax)
    kept = _random_rows([(seed, t) for t in range(n_kept)], lmax)
    lhs = [np.empty((trials, _CLAIMS[name].max_n + 1)) for name in op_names]
    rhs = [np.empty_like(a) for a in lhs]
    for at, rows, degree in _trial_blocks(trials, seed, lmax, kept):
        for name, lhs_n, rhs_n in zip(op_names, lhs, rhs):
            lhs_n[at], rhs_n[at] = claim_margins(name, rows, degree)
    reports = []
    for name, lhs_n, rhs_n in zip(op_names, lhs, rhs):
        t, n = np.unravel_index(np.argmin(rhs_n - lhs_n), lhs_n.shape)
        reports.append(
            BoundReport(
                check=f"{name}_claimed_bound",
                anchor=f"|{name} f|_n <= K_n * sum of claimed right-side norms",
                lhs=float(lhs_n[t, n]),
                rhs=float(rhs_n[t, n]),
                seed=seed,
                lmax=lmax,
                n=int(n),
                details={"trials": trials, "worst_trial": int(t)},
            )
        )
    return reports, kept


def _trial_blocks(trials, seed, lmax, kept):
    # (trial indices, rows, degree) per block: the kept smooth trials, then the
    # other smooth ones _TRIAL_BLOCK at a time, then the probes as unit rows
    smooth = np.flatnonzero(np.arange(trials) % 8 != 7)
    first = int(np.count_nonzero(smooth < len(kept))) or _TRIAL_BLOCK
    for at in np.split(smooth, range(first, smooth.size, _TRIAL_BLOCK)):
        yield at, kept[at] if at[0] < len(kept) else _random_rows([(seed, t) for t in at.tolist()], lmax), lmax
    # each rng draws its probe's degree, then its order
    probes = np.arange(7, trials, 8)
    rngs = [substream(seed, t) for t in probes.tolist()]
    degrees = [int(rng.integers(lmax, 4 * lmax + 8)) for rng in rngs]
    modes = [flat_index(l, int(rng.integers(-l, l + 1))) for rng, l in zip(rngs, degrees)]
    top = max(degrees, default=lmax)
    # at least 4 rows a block, as top < 4 * lmax + 8
    size = _TRIAL_BLOCK * (lmax + 1) ** 2 // (top + 1) ** 2
    for start in range(0, probes.size, size):
        block = modes[start:start + size]
        unit = np.zeros((len(block), (top + 1) ** 2), dtype=np.complex128)
        unit[np.arange(len(block)), block] = 1.0
        yield probes[start:start + size], unit, top

"""The benchmark's workloads: seeded inputs, one op, and the op's output gate.

A workload is built at set-up from the imported ``sphcalc`` package, the
workload seed and a scratch directory.  ``op(i)`` runs op number ``i`` and
returns what ``check(i, result)`` needs to decide whether the output is right;
only ``op`` is timed.  ``cycle`` is the number of ops after which the op
sequence repeats its kinds, so a run always ends on a whole cycle.
"""

from __future__ import annotations

import contextlib
import io
import json
import os

import numpy as np

ROUND_TRIP_TOL = 1e-12


def seeded_coefficients(rng, lmax: int, decay: float) -> np.ndarray:
    """Complex Gaussians scaled by ``(l+|m|+1)^-decay``, flat ``l*l+l+m`` layout."""
    ls = np.repeat(np.arange(lmax + 1), 2 * np.arange(lmax + 1) + 1)
    ms = np.arange(ls.size) - ls * ls - ls
    scale = (ls + np.abs(ms) + 1.0) ** (-decay)
    return scale * (rng.standard_normal(ls.size) + 1j * rng.standard_normal(ls.size))


def write_document(path: str, lmax: int, coeffs: np.ndarray) -> None:
    """Coefficient document in the format the sphcalc README specifies."""
    records = []
    for l in range(lmax + 1):
        for m in range(-l, l + 1):
            c = coeffs[l * l + l + m]
            records.append({"l": l, "m": m, "re": float(c.real), "im": float(c.imag)})
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"lmax": lmax, "basis": "sqrt(l+1/2)Y", "coefficients": records}, fh)


def read_document(path: str) -> tuple[int, np.ndarray]:
    """Parsed here, not by sphcalc, so a gate never trusts the reader it checks."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    lmax = int(doc["lmax"])
    coeffs = np.full((lmax + 1) ** 2, np.nan, dtype=np.complex128)
    for rec in doc["coefficients"]:
        coeffs[rec["l"] * rec["l"] + rec["l"] + rec["m"]] = rec["re"] + 1j * rec["im"]
    return lmax, coeffs


def run_cli(cli, argv: list[str]) -> int:
    """In-process ``sphcalc`` command; its report lines go to a buffer."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


class VerifyAll:
    """``sphcalc verify --suite all`` at the default lmax 16 and 50 trials.

    Op ``i`` uses the verify seed ``seeds[i // 2]``, so every second op
    repeats its predecessor's seed and must reproduce its report bytes.
    """

    name = "verify_all"
    cycle = 1

    def __init__(self, sph, seed: int, workdir: str):
        self.cli = sph.cli
        self.seeds = [int(s) for s in np.random.default_rng([seed, 1]).integers(0, 2**31, 512)]
        self.report = os.path.join(workdir, "report.json")
        self.previous = (None, None)
        warm = run_cli(self.cli, ["verify", "--suite", "all", "--lmax", "4", "--trials", "2",
                                  "--seed", str(self.seeds[0]), "--out", self.report])
        if warm != 0:
            raise RuntimeError(f"warm-up verify exited with {warm}")

    def op(self, i: int):
        seed = self.seeds[(i // 2) % len(self.seeds)]
        return seed, run_cli(self.cli, ["verify", "--suite", "all", "--seed", str(seed),
                                        "--out", self.report])

    def check(self, i: int, result) -> bool:
        seed, code = result
        with open(self.report, "rb") as fh:
            data = fh.read()
        os.remove(self.report)
        records = json.loads(data)["reports"]
        same_seed, previous = self.previous
        self.previous = (seed, data)
        if code != 0 or not records or not all(r["pass"] for r in records):
            return False
        return same_seed != seed or previous == data


class TransformWarm:
    """``analyze(synthesize(f, grid), L)`` at L = 256 on one warm grid."""

    name = "transform_warm"
    cycle = 1
    L = 256
    POOL = 16

    def __init__(self, sph, seed: int, workdir: str):
        self.transform = sph.transform
        rng = np.random.default_rng([seed, 2])
        self.inputs = [sph.HarmonicExpansion(self.L, seeded_coefficients(rng, self.L, 1.0))
                       for _ in range(self.POOL)]
        self.grid = self.transform.make_grid(self.L)
        self.grid.basis_table(self.L)
        if not self.check(0, self.op(0)):
            raise RuntimeError("warm-up round trip out of tolerance")

    def op(self, i: int):
        f = self.inputs[i % self.POOL]
        return f, self.transform.analyze(self.transform.synthesize(f, self.grid), self.L)

    def check(self, i: int, result) -> bool:
        f, back = result
        return back.lmax == f.lmax and float(np.max(np.abs(back.coeffs - f.coeffs))) <= ROUND_TRIP_TOL


# Generators, structural maps, sums, compositions and commutators that accept
# every document the workload generates (the invSinLit and expIPhi domains
# exclude m = 0 and m = -1 support, which these documents have).
EXPRESSIONS = (
    "L", "M", "J+", "J-", "K+", "K-", "R+", "R-", "S+", "S-",
    "cosTheta", "sinExp+", "sinExp-", "dThetaLit", "dPhi",
    "2.5*L+M", "J-*J+", "K-*K+", "cosTheta*sinExp-", "dPhi*dThetaLit",
    "[J+,J-]", "[K+,K-]", "[L,R+]", "[cosTheta,dThetaLit]", "0.5*(J+ + J-)",
)


class CliDocuments:
    """CLI commands on lmax = 128 documents, cold: every command builds its grid.

    Cycle ``c`` takes document ``c % DOCS`` through ``transform synthesize``,
    ``transform analyze`` of that field, and ``apply --op expr_c``.
    """

    name = "cli_documents"
    cycle = 3
    LMAX = 128
    DOCS = 4

    def __init__(self, sph, seed: int, workdir: str):
        self.cli = sph.cli
        rng = np.random.default_rng([seed, 3])
        self.docs = [self._document(sph, rng, os.path.join(workdir, f"doc{k}.json"), self.LMAX)
                     for k in range(self.DOCS)]
        self.exprs = [EXPRESSIONS[k] for k in rng.integers(0, len(EXPRESSIONS), 512)]
        self.field = os.path.join(workdir, "field.csv")
        self.analyzed = os.path.join(workdir, "analyzed.json")
        self.applied = os.path.join(workdir, "applied.json")
        path, f = self._document(sph, rng, os.path.join(workdir, "warm.json"), 8)
        for kind in range(self.cycle):
            if not self._gate(kind, self._command(kind, path, "L"), f, "L"):
                raise RuntimeError(f"warm-up command {kind} failed")

    @staticmethod
    def _document(sph, rng, path: str, lmax: int):
        coeffs = seeded_coefficients(rng, lmax, 1.0)
        write_document(path, lmax, coeffs)
        return path, sph.HarmonicExpansion(lmax, coeffs)

    def _command(self, kind: int, doc: str, expr: str) -> int:
        if kind == 0:
            return run_cli(self.cli, ["transform", "synthesize", "--in", doc, "--out", self.field])
        if kind == 1:
            return run_cli(self.cli, ["transform", "analyze", "--in", self.field,
                                      "--out", self.analyzed])
        return run_cli(self.cli, ["apply", "--op", expr, "--in", doc, "--out", self.applied])

    def _gate(self, kind: int, code: int, f, expr: str) -> bool:
        if code != 0:
            return False
        if kind == 0:
            return os.path.getsize(self.field) > 0
        if kind == 1:
            lmax, back = read_document(self.analyzed)
            return lmax == f.lmax and float(np.max(np.abs(back - f.coeffs))) <= ROUND_TRIP_TOL
        expected = self.cli.parse_operator(expr).apply(f)
        lmax, got = read_document(self.applied)
        return lmax == expected.lmax and np.array_equal(got, expected.coeffs)

    def _inputs(self, i: int):
        cycle, kind = divmod(i, self.cycle)
        path, f = self.docs[cycle % self.DOCS]
        return kind, path, f, self.exprs[cycle % len(self.exprs)]

    def op(self, i: int):
        kind, path, _, expr = self._inputs(i)
        return self._command(kind, path, expr)

    def check(self, i: int, result) -> bool:
        kind, _, f, expr = self._inputs(i)
        return self._gate(kind, result, f, expr)


WORKLOADS = {w.name: w for w in (VerifyAll, TransformWarm, CliDocuments)}

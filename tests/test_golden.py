"""The ``verify --suite all`` reports at seeds 42, 7 and 123456 against committed goldens.

Where this host's provenance (numpy version, BLAS build, and the BLAS core
that runs) equals the goldens', each report must equal its golden byte for
byte.  Elsewhere another BLAS kernel may sum in another order, so every pass
flag and every non-numeric field must still be equal, and each number must lie
within ``REL`` of the golden's, relative, or within ``ABS`` where both values
are at roundoff level; the test then says so in a warning and never skips.
Either way a mismatch names every moved field with its old and new value.

Forcing the OpenBLAS kernel sets of Haswell, Sandybridge and Prescott on the
SkylakeX host that made the goldens moved only roundoff-level fields, by at
most 4.4e-15 absolute (``ladder_algebra_closure.lhs``); ``REL`` also covers a
last-digit flip in the six-digit norm ratios.

A change that moves report bytes on purpose rewrites the goldens, and its
CHANGES.md entry names each moved field:

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import ctypes
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from sphcalc.cli import main

GOLDEN = Path(__file__).parent / "golden"
SEEDS = (42, 7, 123456)
REL, ABS = 1e-5, 1e-13
_ABSENT = "<absent>"


def _blas_core():
    """The kernel set OpenBLAS chose at run time (``SkylakeX``, ...), or None."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for path in paths:
        lib = ctypes.CDLL(path)
        for prefix in ("", "scipy_"):
            for suffix in ("", "64_"):
                corename = getattr(lib, f"{prefix}openblas_get_corename{suffix}", None)
                if corename is not None:
                    corename.argtypes, corename.restype = [], ctypes.c_char_p
                    return corename().decode()
    return None


def provenance() -> dict:
    """numpy version, BLAS build from ``numpy.show_config()``, and the BLAS core that runs.

    ``show_config`` names the core of the host that built the numpy wheel;
    the kernels that run are the ones OpenBLAS picks on this host.
    """
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_build": blas.get("openblas configuration"),
        "blas_core": _blas_core() or os.environ.get("OPENBLAS_CORETYPE"),
    }


def moved_fields(old, new, path: str = "", tolerant: bool = False) -> list[str]:
    """``path: old -> new`` for each field of ``new`` that departs from ``old``.

    Exactly equal unless ``tolerant``; then numbers (not flags) may differ by
    ``REL`` relative or ``ABS`` absolute, whichever is larger.
    """
    if isinstance(old, dict) and isinstance(new, dict):
        keys = list(old) + [k for k in new if k not in old]
        return [line for k in keys
                for line in moved_fields(old.get(k, _ABSENT), new.get(k, _ABSENT), f"{path}.{k}", tolerant)]
    if isinstance(old, list) and isinstance(new, list):
        lines = []
        for i in range(max(len(old), len(new))):
            a = old[i] if i < len(old) else _ABSENT
            b = new[i] if i < len(new) else _ABSENT
            check = (a if isinstance(a, dict) else b if isinstance(b, dict) else {}).get("check")
            lines += moved_fields(a, b, f"{path}[{i}]" + (f"({check})" if check else ""), tolerant)
        return lines
    numbers = all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (old, new))
    if numbers and tolerant and abs(old - new) <= max(ABS, REL * max(abs(old), abs(new))):
        return []
    if type(old) is type(new) and old == new:
        return []
    return [f"{path.lstrip('.')}: {old!r} -> {new!r}"]


def _report(seed: int, path: Path) -> bytes:
    assert main(["verify", "--suite", "all", "--seed", str(seed), "--out", str(path)]) == 0
    return path.read_bytes()


def _golden(seed: int) -> Path:
    return GOLDEN / f"report_seed{seed}.json"


@pytest.mark.parametrize("seed", SEEDS)
def test_report_matches_its_golden(seed, tmp_path, capsys):
    got = _report(seed, tmp_path / "report.json")
    capsys.readouterr()
    want = _golden(seed).read_bytes()
    recorded = json.loads((GOLDEN / "provenance.json").read_text(encoding="utf-8"))
    here = provenance()
    exact = here == recorded
    if exact and got == want:
        return
    moved = moved_fields(json.loads(want), json.loads(got), tolerant=not exact)
    if exact:
        pytest.fail(f"seed {seed}: report bytes moved:\n" + "\n".join(moved or ["(layout only)"]))
    differs = {k: (recorded.get(k), v) for k, v in here.items() if recorded.get(k) != v}
    warnings.warn(f"seed {seed}: golden compared within REL={REL}, ABS={ABS}, "
                  f"not byte for byte: provenance differs {differs}")
    assert not moved, f"seed {seed}: fields moved past REL={REL}, ABS={ABS}:\n" + "\n".join(moved)


def test_moved_fields_names_each_field_with_old_and_new_value():
    old = {"reports": [{"check": "a", "lhs": 1e-15, "pass": True, "details": {"x": [0.5, 2.0]}}]}
    new = {"reports": [{"check": "a", "lhs": 2e-15, "pass": False, "details": {"x": [0.5000001, 2.0]}},
                       {"check": "b"}]}
    assert moved_fields(old, new) == [
        "reports[0](a).lhs: 1e-15 -> 2e-15",
        "reports[0](a).pass: True -> False",
        "reports[0](a).details.x[0]: 0.5 -> 0.5000001",
        "reports[1](b): '<absent>' -> {'check': 'b'}",
    ]
    # tolerant: roundoff-level and relative moves pass, flags and records do not
    assert moved_fields(old, new, tolerant=True) == [
        "reports[0](a).pass: True -> False",
        "reports[1](b): '<absent>' -> {'check': 'b'}",
    ]
    assert moved_fields({"lhs": 0.2}, {"lhs": 0.2001}, tolerant=True) == ["lhs: 0.2 -> 0.2001"]
    assert moved_fields({"n": None}, {"n": 0}, tolerant=True) == ["n: None -> 0"]


def test_reports_hold_on_another_blas_core():
    # OpenBLAS reads OPENBLAS_CORETYPE when it loads, so a fresh interpreter
    # runs the Sandybridge kernels: the goldens must hold within the bounds
    env = dict(os.environ, OPENBLAS_CORETYPE="Sandybridge")
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "pytest", "-q", "-p", "no:cacheprovider",
         f"{__file__}::test_report_matches_its_golden"],
        cwd=Path(__file__).parent.parent, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "3 passed" in proc.stdout and "not byte for byte" in proc.stdout


def write_goldens() -> None:
    """Write the three reports and the provenance they were made under."""
    GOLDEN.mkdir(exist_ok=True)
    for seed in SEEDS:
        _report(seed, _golden(seed))
    with open(GOLDEN / "provenance.json", "w", encoding="utf-8") as fh:
        json.dump(provenance(), fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    write_goldens()

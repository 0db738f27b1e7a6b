"""The benchmark's tracer still finds and records what it names.

``perfbench/spans.py`` patches sphcalc functions by name and by identity, so a
renamed function or a call that bypasses the patched binding makes a span read
0 while the benchmark's output gate still passes.  ``Tracer.install`` patches
modules for good, so each check runs in its own interpreter.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).parent.parent

TRACED_SUITES = r"""
import sphcalc
import sphcalc.cli
import sphcalc.verify
from spans import COUNTED, SPANNED, Tracer

for module, attr, _ in SPANNED + COUNTED:
    target = getattr(sphcalc, module)
    for part in attr.split("."):
        target = getattr(target, part)
    assert callable(target), (module, attr)

tracer = Tracer()
tracer.install(sphcalc)
tracer.active = True
for name in ("algebra", "transforms"):
    tracer.run_op(0, sphcalc.verify.SUITES[name], 16, 4, 42)
print("\n".join(sorted(set(tracer.names))))
"""


def test_tracer_spans_resolve_and_record_the_suites_calls():
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-c", TRACED_SUITES],
        env=dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "perfbench"), str(ROOT / "src")])),
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    missing = {
        "algebra.closure_check", "transform.analyze", "transform.basis_table",
        "cli.suite.algebra", "cli.suite.transforms",
    } - set(proc.stdout.split())
    assert not missing, f"no span recorded for {sorted(missing)}"

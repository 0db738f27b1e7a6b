"""In-memory span tracing of sphcalc's layers, installed from outside the library.

Each traced name is a public function or method of one sphcalc module (the
module is the layer).  Functions are patched in every sphcalc module that binds
them, because the library imports with ``from .x import y``: patching only the
home module would miss ``sphcalc.structural.sh_eval`` or
``sphcalc.cli.closure_check``.  A span is ``(name, start, end, parent, op)``;
a call nested directly inside a span of the same name (``super().apply`` or a
composed operator applying its parts) belongs to the outer span.  Spans stay in
memory and are written once, when the run ends.

The ``computed.*`` flop and byte figures come from array shapes, not from
measurement; they repeat exactly for a given op sequence.
"""

from __future__ import annotations

import functools
import os
import time
import tracemalloc
from collections import Counter

import numpy as np

LAYERS = ("legendre", "transform", "algebra", "structural", "bounds", "expansions", "cli")

# (module, attribute, span name); attribute "Class.method" patches a method.
SPANNED = (
    ("legendre", "orthonormal_legendre_table", "legendre.table"),
    ("legendre", "sh_eval", "legendre.sh_eval"),
    ("transform", "gauss_legendre", "transform.gauss_legendre"),
    ("transform", "SphereGrid.basis_table", "transform.basis_table"),
    ("transform", "synthesize", "transform.synthesize"),
    ("transform", "analyze", "transform.analyze"),
    ("transform", "point_eval", "transform.point_eval"),
    ("transform", "save_field", "transform.save_field"),
    ("transform", "load_field", "transform.load_field"),
    ("expansions", "save_expansion", "expansions.save_expansion"),
    ("expansions", "load_expansion", "expansions.load_expansion"),
    ("expansions", "graded_norm", "expansions.graded_norm"),
    ("algebra", "Operator.apply", "algebra.apply"),
    ("algebra", "Operator.matrix", "algebra.matrix"),
    ("algebra", "closure_check", "algebra.closure_check"),
    ("structural", "sh_product", "structural.sh_product"),
    ("structural", "pde_residual", "structural.pde_residual"),
    ("structural", "pointwise_multiply_oracle", "structural.pointwise_multiply_oracle"),
    ("bounds", "continuity_criterion_check", "bounds.continuity_criterion_check"),
    ("bounds", "bound_point_functional", "bounds.bound_point_functional"),
    ("bounds", "weak_eigen_cos", "bounds.weak_eigen_cos"),
    ("cli", "parse_operator", "cli.parse_operator"),
    ("cli", "suite_transforms", "cli.suite.transforms"),
    ("cli", "suite_algebra", "cli.suite.algebra"),
    ("cli", "suite_structural", "cli.suite.structural"),
    ("cli", "suite_bounds", "cli.suite.bounds"),
    ("cli", "suite_pde", "cli.suite.pde"),
    ("cli", "cmd_apply", "cli.cmd.apply"),
    ("cli", "cmd_verify", "cli.cmd.verify"),
)

# Called tens of thousands of times per verify op: counted, not spanned.
COUNTED = (("structural", "clebsch_gordan", "structural.clebsch_gordan"),)

# tracemalloc peak of these calls, measured in separate memory-mode ops.
PEAK_TRACKED = ("legendre.table", "transform.synthesize", "algebra.closure_check")

CALL_SITES = {
    "legendre.table": ("calls", "ms"),
    "legendre.sh_eval": ("calls", "ms"),
    "transform.gauss_legendre": ("calls", "ms"),
    "transform.synthesize": ("calls", "ms"),
    "transform.analyze": ("calls", "ms"),
    "transform.point_eval": ("calls", "ms"),
    "transform.save_field": ("ms",),
    "transform.load_field": ("ms",),
    "expansions.save_expansion": ("ms",),
    "expansions.load_expansion": ("ms",),
    "expansions.graded_norm": ("calls", "ms"),
    "algebra.matrix": ("calls", "ms"),
    "algebra.apply": ("calls", "ms"),
    "algebra.closure_check": ("ms",),
    "structural.sh_product": ("calls", "ms"),
    "structural.pde_residual": ("calls", "ms"),
    "structural.pointwise_multiply_oracle": ("calls", "ms"),
    "bounds.continuity_criterion_check": ("calls", "ms"),
    "bounds.bound_point_functional": ("calls", "ms"),
    "bounds.weak_eigen_cos": ("calls", "ms"),
    "cli.parse_operator": ("ms",),
}
SUITES = ("transforms", "algebra", "structural", "bounds", "pde")
COMMANDS = ("transform_synthesize", "transform_analyze", "apply")

# Totals accumulated by the hooks below, reported per op.
TOTALS = (
    ("legendre.table.bytes", "B"),
    ("transform.save_field.bytes", "B"),
    ("transform.load_field.bytes", "B"),
    ("expansions.save_expansion.bytes", "B"),
    ("expansions.load_expansion.bytes", "B"),
    ("structural.clebsch_gordan.calls", "count"),
    ("computed.table.flop", "flop"),
    ("computed.synthesize.flop", "flop"),
    ("computed.synthesize.bytes", "B"),
    ("computed.analyze.flop", "flop"),
    ("computed.analyze.bytes", "B"),
    ("computed.closure_matmul.flop", "flop"),
    ("computed.closure_matmul.bytes", "B"),
)


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _transform_counts(L, n, p):
    """Computed flops and bytes of one transform at degree L on an n x p grid.

    Legendre stage: n*(L+1)^2 real-table by complex-coefficient products, 4
    flops and one 8-byte table read each.  Phi stage: an n x (2L+1) by
    (2L+1) x p complex matmul, 8 flops per multiply-add, plus the complex
    phase matrix, the per-order sums and the samples each touched once.
    """
    k = 2 * L + 1
    flop = 4 * n * (L + 1) ** 2 + 8 * n * k * p
    nbytes = 8 * n * (L + 1) ** 2 + 16 * (k * p + n * k + n * p)
    return flop, nbytes


def _count_table(totals, args, kwargs):
    lmax = int(_arg(args, kwargs, 0, "lmax"))
    n = int(np.size(_arg(args, kwargs, 1, "x")))
    totals["legendre.table.bytes"] += 8 * n * (lmax + 1) ** 2
    # four flops per recurrence entry, one entry per (l, m) with m <= l
    totals["computed.table.flop"] += 4 * n * (lmax + 1) * (lmax + 2) // 2


def _count_synthesize(totals, args, kwargs):
    f = _arg(args, kwargs, 0, "f")
    grid = _arg(args, kwargs, 1, "grid")
    flop, nbytes = _transform_counts(f.lmax, grid.n_theta, grid.n_phi)
    totals["computed.synthesize.flop"] += flop
    totals["computed.synthesize.bytes"] += nbytes


def _count_analyze(totals, args, kwargs):
    grid = _arg(args, kwargs, 0, "field").grid
    flop, nbytes = _transform_counts(int(_arg(args, kwargs, 1, "lmax")), grid.n_theta, grid.n_phi)
    totals["computed.analyze.flop"] += flop
    totals["computed.analyze.bytes"] += nbytes


def _count_closure(totals, args, kwargs):
    # 45 generator pairs, two dense complex K x K matmuls each, K = (lmax + 3)^2
    k = (int(_arg(args, kwargs, 0, "lmax")) + 3) ** 2
    totals["computed.closure_matmul.flop"] += 90 * 8 * k**3
    totals["computed.closure_matmul.bytes"] += 90 * 3 * 16 * k**2


def _file_bytes(metric, position, name):
    def hook(totals, args, kwargs):
        totals[metric] += os.path.getsize(_arg(args, kwargs, position, name))
    return hook


PRE_HOOKS = {
    "legendre.table": _count_table,
    "transform.synthesize": _count_synthesize,
    "transform.analyze": _count_analyze,
    "algebra.closure_check": _count_closure,
    "transform.load_field": _file_bytes("transform.load_field.bytes", 0, "path"),
    "expansions.load_expansion": _file_bytes("expansions.load_expansion.bytes", 0, "path"),
}
POST_HOOKS = {
    "transform.save_field": _file_bytes("transform.save_field.bytes", 1, "path"),
    "expansions.save_expansion": _file_bytes("expansions.save_expansion.bytes", 1, "path"),
}


class Tracer:
    """Span recorder for one traced run; inactive until ``active`` is set.

    With ``memory`` set, ops record no spans or totals; instead tracemalloc
    runs around each ``PEAK_TRACKED`` call, whose allocation tracing would
    otherwise inflate the self times.
    """

    def __init__(self):
        self.active = False
        self.memory = False
        self.op_id = -1
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self.ops: list[int] = []
        self.stack: list[int] = []
        self.totals: Counter = Counter()
        self.peaks: Counter = Counter()
        self._peak_frames: list[list[int]] = []

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.ops.append(self.op_id)
        self.ends.append(0)
        self.stack.append(idx)
        self.starts.append(time.perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter_ns()
        self.stack.pop()

    def _peak_enter(self) -> None:
        if self._peak_frames:
            current, peak = tracemalloc.get_traced_memory()
            outer = self._peak_frames[-1]
            outer[1] = max(outer[1], peak)
        else:
            tracemalloc.start()
            current = 0
        tracemalloc.reset_peak()
        self._peak_frames.append([current, current])

    def _peak_exit(self, name: str) -> None:
        base, seen = self._peak_frames.pop()
        peak = max(seen, tracemalloc.get_traced_memory()[1])
        self.peaks[name] = max(self.peaks[name], peak - base)
        if self._peak_frames:
            outer = self._peak_frames[-1]
            outer[1] = max(outer[1], peak)
        else:
            tracemalloc.stop()

    def wrap(self, fn, name: str):
        """``fn`` recorded as span ``name`` while the tracer is active."""
        pre, post = PRE_HOOKS.get(name), POST_HOOKS.get(name)
        peak = name in PEAK_TRACKED
        tracer = self

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            if not tracer.active or (tracer.stack and tracer.names[tracer.stack[-1]] == name):
                return fn(*args, **kwargs)
            if tracer.memory:
                if not peak:
                    return fn(*args, **kwargs)
                tracer._peak_enter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer._peak_exit(name)
            if pre is not None:
                pre(tracer.totals, args, kwargs)
            idx = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if post is not None:
                post(tracer.totals, args, kwargs)
            return result

        return spanned

    def count(self, fn, name: str):
        tracer = self
        key = name + ".calls"

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if tracer.active and not tracer.memory:
                tracer.totals[key] += 1
            return fn(*args, **kwargs)

        return counted

    def run_op(self, op_id: int, fn, *args):
        """Run one benchmark op as the root span ``op``."""
        if self.memory:
            return fn(*args)
        self.op_id = op_id
        idx = self._open("op")
        try:
            return fn(*args)
        finally:
            self._close(idx)

    # -- installation --------------------------------------------------------

    def install(self, package) -> None:
        """Patch every traced name wherever a sphcalc module binds it."""
        modules = [getattr(package, name) for name in LAYERS]
        replacements = {}
        for mod_name, attr, span in SPANNED:
            mod = getattr(package, mod_name)
            if "." in attr:
                cls_name, method = attr.split(".")
                base = getattr(mod, cls_name)
                # every class overriding the method gets its own wrapper
                for cls in [base, *_subclasses(base)]:
                    if method in vars(cls):
                        setattr(cls, method, self.wrap(vars(cls)[method], span))
                continue
            original = getattr(mod, attr)
            replacements[id(original)] = self.wrap(original, span)
        for mod_name, attr, name in COUNTED:
            original = getattr(getattr(package, mod_name), attr)
            replacements[id(original)] = self.count(original, name)
        for module in [package, *modules]:
            for attr, value in list(vars(module).items()):
                if id(value) in replacements:
                    setattr(module, attr, replacements[id(value)])
                elif isinstance(value, dict):
                    for key, entry in list(value.items()):
                        if id(entry) in replacements:
                            value[key] = replacements[id(entry)]
        cli = package.cli
        synthesize = self.wrap(cli.cmd_transform, "cli.cmd.transform_synthesize")
        analyze = self.wrap(cli.cmd_transform, "cli.cmd.transform_analyze")

        def cmd_transform(args):
            return (synthesize if args.direction == "synthesize" else analyze)(args)

        cli.cmd_transform = cmd_transform

    # -- results -------------------------------------------------------------

    def write(self, path: str) -> None:
        """Write the spans as arrays: name id, start/end ns, parent index, op id."""
        table = sorted(set(self.names))
        ids = {name: i for i, name in enumerate(table)}
        np.savez_compressed(
            path,
            span_names=np.array(table),
            name=np.array([ids[n] for n in self.names], dtype=np.int16),
            start_ns=np.array(self.starts, dtype=np.int64),
            end_ns=np.array(self.ends, dtype=np.int64),
            parent=np.array(self.parents, dtype=np.int64),
            op=np.array(self.ops, dtype=np.int64),
        )

    def layer_metrics(self, n_ops: int) -> dict:
        """Per-op calls and self times, totals, peaks and per-layer self time."""
        names = np.array(self.names)
        dur = np.array(self.ends, dtype=np.int64) - np.array(self.starts, dtype=np.int64)
        parents = np.array(self.parents, dtype=np.int64)
        nested = parents >= 0
        child = np.bincount(parents[nested], weights=dur[nested], minlength=dur.size)
        self_ms = (dur - child) / 1e6
        total_ms = dur / 1e6

        def of(name):
            return names == name

        out = {}
        for name, fields in CALL_SITES.items():
            sel = of(name)
            if "calls" in fields:
                out[name + ".calls"] = (int(sel.sum()) / n_ops, "count")
            out[name + ".ms"] = (float(self_ms[sel].sum()) / n_ops, "ms")
        for site in [f"cli.suite.{s}" for s in SUITES] + [f"cli.cmd.{c}" for c in COMMANDS]:
            sel = of(site)
            out[site + ".ms"] = (float(self_ms[sel].sum()) / n_ops, "ms")
            out[site + ".total_ms"] = (float(total_ms[sel].sum()) / n_ops, "ms")
        for metric, unit in TOTALS:
            out[metric] = (self.totals[metric] / n_ops, unit)
        for name in PEAK_TRACKED:
            out[name + ".peak_bytes"] = (int(self.peaks[name]), "B")
        transforms = int(of("transform.synthesize").sum() + of("transform.analyze").sum())
        builds = int(np.sum(of("legendre.table")[nested] & (names[parents[nested]] == "transform.basis_table")))
        out["transform.table_hit_ratio"] = (1.0 - builds / transforms if transforms else 1.0, "ratio")
        for layer in LAYERS:
            sel = np.char.startswith(names, layer + ".") if names.size else np.zeros(0, bool)
            out[f"layer.{layer}.self_ms"] = (float(self_ms[sel].sum()) / n_ops, "ms")
        out["unattributed.ms"] = (float(self_ms[of("op")].sum()) / n_ops, "ms")
        return out


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)

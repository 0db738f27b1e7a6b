"""Command-line front end: transforms, operator application, verification suites.

Exit codes: 0 success / all checks pass, 1 verification failure, 2 usage or
parse error (bad flags, malformed documents, out-of-range arguments,
operator-expression errors, memory exhaustion), 3 I/O error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys

from . import __version__
from . import bounds as bnd
from . import structural as st
from .algebra import Operator, commutator
from .expansions import SpherePoint, load_expansion, save_expansion
from .transform import analyze, load_field, make_grid, point_eval, save_field, synthesize
# bound here, not copied: span tracing patches cli.suite_* and the entries of this same dict
from .verify import SUITES, suite_algebra, suite_bounds, suite_pde, suite_structural, suite_transforms

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_IO = 3


class ExpressionError(ValueError):
    """Unparseable operator expression."""


_TOO_DEEP = "operator expression nested too deeply"


def _tokenize(text: str) -> list[str]:
    tokens = []
    i = 0
    while i < len(text):
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c.isalpha():
            j = i + 1
            while j < len(text) and (text[j].isalnum()):
                j += 1
            word = text[i:j]
            # trailing +/- belongs to the name when the signed form is known
            if j < len(text) and text[j] in "+-" and (word + text[j]) in st.OPERATORS:
                word += text[j]
                j += 1
            tokens.append(word)
            i = j
            continue
        if c.isdigit() or c == ".":
            j = i
            while j < len(text) and (text[j].isdigit() or text[j] in ".eE"):
                if text[j] in "eE" and j + 1 < len(text) and text[j + 1] in "+-":
                    j += 1
                j += 1
            tokens.append(text[i:j])
            i = j
            continue
        if c in "*+-[],()":
            tokens.append(c)
            i += 1
            continue
        raise ExpressionError(f"unexpected character {c!r} in operator expression")
    return tokens


class _Parser:
    def __init__(self, tokens: list[str]):
        self.tokens = tokens
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self, expected=None):
        tok = self.peek()
        if tok is None:
            raise ExpressionError("unexpected end of operator expression")
        if expected is not None and tok != expected:
            raise ExpressionError(f"expected {expected!r}, found {tok!r}")
        self.pos += 1
        return tok

    # a value is a float or an Operator
    def expr(self):
        value = self.term()
        while self.peek() in ("+", "-"):
            sign = self.take()
            other = _require_op(self.term())
            value = _require_op(value) + (other if sign == "+" else -other)
        return value

    def term(self):
        start = self.pos
        value = self.factor()
        while self.peek() == "*":
            self.take("*")
            value = value * self.factor()
            # a product of finite scalars can overflow, as a literal like 1e999 does
            if isinstance(value, float) and not math.isfinite(value):
                raise ExpressionError(f"non-finite scalar {''.join(self.tokens[start:self.pos])!r}")
        return value

    def factor(self):
        tok = self.peek()
        if tok == "-":
            self.take()
            return -self.factor()
        if tok == "(":
            self.take("(")
            value = self.expr()
            self.take(")")
            return value
        if tok == "[":
            self.take("[")
            a = _require_op(self.expr())
            self.take(",")
            b = _require_op(self.expr())
            self.take("]")
            return commutator(a, b)
        tok = self.take()
        if tok in st.OPERATORS:
            return st.OPERATORS[tok]()
        try:
            value = float(tok)
        except ValueError:
            raise ExpressionError(f"unknown operator {tok!r}") from None
        # float() also reads nan, inf, Infinity and 1e999
        if not math.isfinite(value):
            raise ExpressionError(f"non-finite scalar {tok!r}")
        return value


def _require_op(value) -> Operator:
    if not isinstance(value, Operator):
        raise ExpressionError("scalar where an operator was expected")
    return value


def parse_operator(text: str) -> Operator:
    parser = _Parser(_tokenize(text))
    try:
        value = parser.expr()
    except RecursionError:  # each bracket, sign and parenthesis nests parser calls
        raise ExpressionError(_TOO_DEEP) from None
    if parser.peek() is not None:
        raise ExpressionError(f"trailing input: {parser.tokens[parser.pos:]}")
    return _require_op(value)


# ---------------------------------------------------------------------------
# commands

def cmd_transform(args) -> int:
    if args.direction == "analyze":
        field = load_field(args.input)
        lmax = args.lmax if args.lmax is not None else field.grid.lmax
        result = analyze(field, lmax)
        save_expansion(result, args.out)
    else:
        f = load_expansion(args.input)
        lmax = args.lmax if args.lmax is not None else f.lmax
        field = synthesize(f, make_grid(lmax))
        save_field(field, args.out)
    return EXIT_OK


def cmd_apply(args) -> int:
    op = parse_operator(args.op)
    f = load_expansion(args.input)
    try:
        result = op.apply(f)
    except RecursionError:  # each factor of a product nests one more column call
        raise ExpressionError(_TOO_DEEP) from None
    save_expansion(result, args.out)
    return EXIT_OK


def cmd_eval(args) -> int:
    f = load_expansion(args.input)
    point = SpherePoint(args.theta, args.phi)
    value = point_eval(f, point)
    r = None if args.bound is None else bnd.bound_point_functional(f, point, args.bound)
    print(f"value = {value.real:+.12e} {value.imag:+.12e}j")
    if r is not None:
        print(f"bound(p={args.bound}) = {r.rhs:.12e}  margin = {r.margin:.6e}")
        if not r.passed:
            return EXIT_VERIFY_FAILED
    return EXIT_OK


def cmd_verify(args) -> int:
    if args.lmax < 1 or args.trials < 1:
        raise ValueError("verify needs lmax >= 1 and trials >= 1")
    if args.seed < 0:
        raise ValueError(f"verify needs --seed >= 0, got {args.seed}")
    overrides = {}
    for item in args.tol or []:
        key, _, val = item.partition("=")
        try:
            overrides[key] = float(val)
        except ValueError:
            raise ValueError(f"bad --tol override {item!r}, expected check=value") from None
        if not math.isfinite(overrides[key]):
            raise ValueError(f"bad --tol override {item!r}: the value must be finite")
    names = list(SUITES) if args.suite == "all" else [args.suite]
    reports = [r for name in names for r in SUITES[name](args.lmax, args.trials, args.seed)]
    checks = {r.check for r in reports}
    for item in args.tol or []:
        if item.partition("=")[0] not in checks:
            raise ValueError(f"bad --tol override {item!r}: suite {args.suite!r} has no such check")
    reports = [dataclasses.replace(r, rhs=overrides[r.check]) if r.check in overrides else r
               for r in reports]
    for r in reports:
        print(r)
    doc = {
        "config": {
            "suite": args.suite,
            "lmax": args.lmax,
            "trials": args.trials,
            "seed": args.seed,
            "tol_overrides": overrides,
        },
        "reports": [r.to_record() for r in reports],
    }
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")
    failed = [r for r in reports if not r.passed]
    print(f"{len(reports) - len(failed)}/{len(reports)} checks passed")
    return EXIT_OK if not failed else EXIT_VERIFY_FAILED


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="sphcalc", description=__doc__)
    ap.add_argument("--version", action="version", version=f"sphcalc {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("transform", help="analyze a field document or synthesize a coefficient document")
    p.add_argument("direction", choices=["analyze", "synthesize"])
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--lmax", type=int, default=None)
    p.set_defaults(func=cmd_transform)

    p = sub.add_parser("apply", help="apply an operator expression to a coefficient document")
    p.add_argument("--op", required=True)
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_apply)

    p = sub.add_parser("eval", help="evaluate a coefficient document at a point")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--theta", type=float, required=True)
    p.add_argument("--phi", type=float, required=True)
    p.add_argument("--bound", type=int, default=None)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", choices=[*SUITES, "all"], default="all")
    p.add_argument("--lmax", type=int, default=16)
    p.add_argument("--trials", type=int, default=50)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--tol", action="append", metavar="CHECK=VALUE")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_verify)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except (ValueError, OverflowError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError:
        print("error: out of memory; lower lmax or the document size", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()

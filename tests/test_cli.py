import contextlib
import io
import json
import math
import os
import re
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from sphcalc import OPERATORS, HarmonicExpansion, load_expansion, save_expansion
from sphcalc import cli, verify
from sphcalc.bounds import _CLAIMS
from sphcalc.cli import (
    EXIT_IO,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VERIFY_FAILED,
    ExpressionError,
    main,
    parse_operator,
)

import reference
import reference_io


def write_unit(tmp_path, l, m, lmax=None, name="in.json"):
    path = tmp_path / name
    save_expansion(HarmonicExpansion.unit(l, m, lmax), path)
    return path


# ---------------------------------------------------------------------------
# operator expression grammar

def test_parse_single_names():
    f = HarmonicExpansion.unit(0, 0)
    g = parse_operator("K+").apply(f)
    assert g[(1, 0)] == pytest.approx(math.sqrt(1 / 3))


def test_parse_commutator_and_composition():
    f = HarmonicExpansion.unit(1, 1)
    g = parse_operator("[J+,J-]").apply(f)
    assert g[(1, 1)] == pytest.approx(2.0)
    h = parse_operator("J-*J+").apply(HarmonicExpansion.unit(1, 0))
    assert h[(1, 0)] == pytest.approx(2.0)


def test_parse_scalars_sums_signs():
    f = HarmonicExpansion.unit(1, 1)
    assert parse_operator("2.5*M").apply(f)[(1, 1)] == 2.5
    assert parse_operator("L+M").apply(f)[(1, 1)] == 2.0
    assert parse_operator("L-M").apply(f)[(1, 1)] == 0.0
    assert parse_operator("-M").apply(f)[(1, 1)] == -1.0
    assert parse_operator("(L+M)*K+").apply(HarmonicExpansion.unit(0, 0))[(1, 0)] == pytest.approx(
        math.sqrt(1 / 3)
    )


def test_one_operator_registry():
    assert set(_CLAIMS) <= set(OPERATORS)
    for name in OPERATORS:
        assert repr(parse_operator(name)) == repr(OPERATORS[name]()), name
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    listed = re.search(r"combine the names `([^`]*)`", readme).group(1).split()
    assert listed == list(OPERATORS)


def test_parse_errors():
    for bad in ("Q?", "K+*", "[J+,J-", "2.5*", "L M", "L+*M", ""):
        with pytest.raises(ExpressionError):
            parse_operator(bad)


# whole operator names, the grammar's characters, and non-ASCII characters whose
# str predicates part ways: a letter, a superscript and an Arabic-Indic digit
# (isdigit), a vulgar fraction (isalnum only), and two spaces (isspace)
_SCANNED = hs.one_of(
    hs.sampled_from(list(OPERATORS)),
    hs.sampled_from(list("+-*[](),.eE0123456789 \u00e9\u00b2\u0661\u00bd\u2000\u001c")),
)


@settings(derandomize=True, max_examples=500, deadline=None)
@given(hs.lists(_SCANNED, max_size=12).map("".join))
def test_scanner_matches_reference(text):
    def scan(tokenize):
        try:
            return tokenize(text)
        except ExpressionError as exc:
            return f"ExpressionError: {exc}"

    assert scan(cli._tokenize) == scan(reference.tokenize_reference)


# ---------------------------------------------------------------------------
# commands

def test_apply_command(tmp_path):
    src = write_unit(tmp_path, 0, 0)
    out = tmp_path / "out.json"
    assert main(["apply", "--op", "K+", "--in", str(src), "--out", str(out)]) == EXIT_OK
    result = load_expansion(out)
    assert result[(1, 0)] == pytest.approx(math.sqrt(1 / 3))

    src = write_unit(tmp_path, 1, 1, name="e11.json")
    assert main(["apply", "--op", "[J+,J-]", "--in", str(src), "--out", str(out)]) == EXIT_OK
    assert load_expansion(out)[(1, 1)] == pytest.approx(2.0)


def test_apply_command_parse_error(tmp_path):
    src = write_unit(tmp_path, 0, 0)
    out = tmp_path / "out.json"
    assert main(["apply", "--op", "Q?", "--in", str(src), "--out", str(out)]) == EXIT_USAGE


@pytest.mark.parametrize("token", ["nan", "inf", "Infinity", "1e999", "1e300*1e300"])
@pytest.mark.parametrize("nonzero", [False, True], ids=["zero-document", "unit-document"])
def test_apply_non_finite_scalar_is_usage_error(tmp_path, capsys, token, nonzero):
    # float() read the first four tokens, and the product overflows: each once
    # gave exit 0 on a zero document, a blamed (0,0) mode otherwise
    path = tmp_path / "in.json"
    save_expansion(HarmonicExpansion.unit(0, 0, 1) if nonzero else HarmonicExpansion.zeros(1), path)
    code = main(["apply", "--op", f"{token}*L", "--in", str(path), "--out", str(tmp_path / "o.json")])
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert err == f"error: non-finite scalar {token!r}\n"
    assert not (tmp_path / "o.json").exists()


@pytest.mark.parametrize("op", [
    "(" * 400 + "L" + ")" * 400,
    "-" * 3000 + "L",
    "[" * 600 + "L" + ",M]" * 600,
    "*".join(["L"] * 1200),  # parses; each factor nests one column call in apply
], ids=["parentheses", "signs", "commutators", "product"])
def test_apply_deep_expression_is_usage_error(tmp_path, capsys, op):
    # each once escaped as a RecursionError traceback with exit 1
    src = write_unit(tmp_path, 1, 0)
    code = main(["apply", f"--op={op}", "--in", str(src), "--out", str(tmp_path / "o.json")])
    assert code == EXIT_USAGE
    assert capsys.readouterr().err == "error: operator expression nested too deeply\n"
    assert not (tmp_path / "o.json").exists()


def test_apply_long_product_returns_its_input(tmp_path):
    # L is 1 on the (1,0) mode; a product costs one stack frame per factor,
    # so 900 factors stay clear of the recursion limit
    src = write_unit(tmp_path, 1, 0, 2)
    out = tmp_path / "o.json"
    assert main(["apply", "--op", "*".join(["L"] * 900), "--in", str(src), "--out", str(out)]) == EXIT_OK
    np.testing.assert_array_equal(load_expansion(out).coeffs, load_expansion(src).coeffs)


@pytest.mark.parametrize("op", ["L*1e300*1e300", "1e300*(1e300*L)", "(1e200*L)*(1e200*L)"])
@pytest.mark.parametrize("nonzero", [False, True], ids=["zero-document", "unit-document"])
def test_apply_overflowing_amplitude_is_usage_error(tmp_path, capsys, op, nonzero):
    # a scalar applied as a separate factor, or a product of finite amplitudes,
    # once overflowed into a numpy warning and exit 0 with zeros, or a blamed (1,0) mode
    path = tmp_path / "in.json"
    save_expansion(HarmonicExpansion.unit(1, 0, 1) if nonzero else HarmonicExpansion.zeros(1), path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["apply", "--op", op, "--in", str(path), "--out", str(tmp_path / "o.json")])
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert err == f"error: an amplitude of {parse_operator(op).name} overflows\n"
    assert not (tmp_path / "o.json").exists()


@pytest.mark.parametrize("op, value, message", [
    ("1.5e308*K-", 1.0, "an amplitude of {} overflows"),
    ("1e308*L", 2.0, "{} overflows on this input"),
], ids=["basis-ratio", "coefficient"])
def test_apply_overflowing_image_is_usage_error(tmp_path, capsys, op, value, message):
    # finite amplitudes times the basis ratio sqrt(3), or times a coefficient
    # of 2, once overflowed into numpy warnings and "coefficients must be finite"
    path = tmp_path / "in.json"
    save_expansion(value * HarmonicExpansion.unit(1, 0, 1), path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["apply", "--op", op, "--in", str(path), "--out", str(tmp_path / "o.json")])
    assert code == EXIT_USAGE
    assert capsys.readouterr().err == "error: " + message.format(parse_operator(op).name) + "\n"
    assert not (tmp_path / "o.json").exists()


def test_apply_reads_no_amplitude_of_a_mode_the_input_lacks(tmp_path):
    # 1.7e308*K- takes (1,0) to (0,0) with an amplitude whose product with the
    # basis ratio sqrt(3) overflows; a document holding only (0,0) carries no
    # (1,0) term, so its image is zero, where the overflow once exited 2
    src = write_unit(tmp_path, 0, 0, 1)
    out = tmp_path / "o.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["apply", "--op=1.7e308*K-", "--in", str(src), "--out", str(out)]) == EXIT_OK
    image = load_expansion(out)
    assert image.lmax == 1 and not image.coeffs.any()


def test_transform_round_trip(tmp_path):
    from sphcalc.bounds import random_expansion

    f = random_expansion(17, 6, decay=1.5)
    coeffs = tmp_path / "c.json"
    save_expansion(f, coeffs)
    field = tmp_path / "f.csv"
    back = tmp_path / "c2.json"
    assert main(["transform", "synthesize", "--in", str(coeffs), "--out", str(field)]) == EXIT_OK
    assert main(["transform", "analyze", "--in", str(field), "--out", str(back), "--lmax", "6"]) == EXIT_OK
    g = load_expansion(back)
    assert np.max(np.abs(g.coeffs - f.coeffs)) <= 1e-12


def test_transform_constant_field(tmp_path):
    # analysing a constant field leaves only the l = 0 coefficient
    coeffs = tmp_path / "c.json"
    save_expansion(HarmonicExpansion.unit(0, 0, 2), coeffs)
    field = tmp_path / "f.csv"
    main(["transform", "synthesize", "--in", str(coeffs), "--out", str(field)])
    out = tmp_path / "c2.json"
    main(["transform", "analyze", "--in", str(field), "--out", str(out)])
    g = load_expansion(out)
    assert g[(0, 0)] == pytest.approx(1.0, abs=1e-13)


def test_transform_analyze_negative_lmax_is_usage_error(tmp_path, capsys):
    coeffs = write_unit(tmp_path, 0, 0, 2)
    field = tmp_path / "f.csv"
    assert main(["transform", "synthesize", "--in", str(coeffs), "--out", str(field)]) == EXIT_OK
    out = tmp_path / "o.json"
    code = main(["transform", "analyze", "--in", str(field), "--lmax", "-1", "--out", str(out)])
    assert code == EXIT_USAGE
    assert capsys.readouterr().err == "error: lmax must be >= 0, got -1\n"
    assert not out.exists()


def test_transform_synthesize_below_the_document_degree_is_usage_error(tmp_path, capsys):
    # --lmax 3 asks for a degree-3 grid under a degree-5 document: one error
    # line names both degrees, and no field is written
    coeffs = write_unit(tmp_path, 5, 2, 5)
    field = tmp_path / "f.csv"
    code = main(["transform", "synthesize", "--in", str(coeffs), "--out", str(field), "--lmax", "3"])
    assert code == EXIT_USAGE
    assert capsys.readouterr().err == "error: grid lmax=3 < transform lmax=5\n"
    assert not field.exists()


def test_transform_malformed_row(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("# grid lmax=1 n_theta=2 n_phi=4\n0.9,0.0,oops,0.0\n")
    out = tmp_path / "o.json"
    code = main(["transform", "analyze", "--in", str(bad), "--out", str(out)])
    assert code == EXIT_USAGE
    assert ":2" in capsys.readouterr().err


def test_transform_oversized_header_is_usage_error(tmp_path, capsys):
    # header lmax=200000 with one row: rejected from the row count, no grid built
    bad = tmp_path / "huge.csv"
    bad.write_text("# grid lmax=200000\n0.5,0.5,0.0,0.0\n")
    out = tmp_path / "o.json"
    code = main(["transform", "analyze", "--in", str(bad), "--out", str(out)])
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert str(bad) in err and "expected 80000800002 rows, got 1" in err


def test_oversized_coefficient_document_is_usage_error(tmp_path, capsys):
    # one record declaring lmax=10^7: rejected from the record count, nothing allocated
    bad = tmp_path / "huge.json"
    bad.write_text(json.dumps({
        "lmax": 10_000_000,
        "basis": "sqrt(l+1/2)Y",
        "coefficients": [{"l": 0, "m": 0, "re": 1.0, "im": 0.0}],
    }))
    out = tmp_path / "o.json"
    code = main(["apply", "--op", "L", "--in", str(bad), "--out", str(out)])
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert str(bad) in err and "missing" in err


def _document(lmax, records):
    return {"lmax": lmax, "basis": "sqrt(l+1/2)Y", "coefficients": records}


_LMAX1_RECORDS = [
    {"l": l, "m": m, "re": 1.0, "im": 0.0} for l, m in [(0, 0), (1, -1), (1, 0), (1, 1)]
]


@pytest.mark.parametrize(
    "doc, named",
    [
        (5, "top level"),
        (_document([1], _LMAX1_RECORDS), "lmax"),
        (_document(0, 5), "coefficients"),
        (_document(1.7, _LMAX1_RECORDS), "lmax"),
        (_document(True, _LMAX1_RECORDS), "lmax"),
        (_document(0, [{"l": 0.7, "m": 0, "re": 1.0, "im": 0.0}]), "record #0"),
    ],
    ids=["top-level-number", "lmax-list", "coefficients-number", "lmax-fraction",
         "lmax-boolean", "degree-fraction"],
)
def test_type_malformed_coefficient_document_is_usage_error(tmp_path, capsys, doc, named):
    # each once escaped as a TypeError traceback or was truncated to an integer
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code = main(["apply", "--op", "L", "--in", str(bad), "--out", str(tmp_path / "o.json")])
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(bad) in err and named in err


@pytest.mark.parametrize(
    "re_value, im_value",
    [("1.5", 0.0), (1.0, True), (float("nan"), 0.0), (0.0, float("inf")), (10**400, 0.0)],
    ids=["string", "boolean", "nan", "infinity", "integer-past-double-range"],
)
def test_non_numeric_or_non_finite_coefficient_is_usage_error(tmp_path, capsys, re_value, im_value):
    # float() once read the string and the boolean silently; NaN failed later
    # naming neither the document nor the record
    records = [dict(rec) for rec in _LMAX1_RECORDS]
    records[2].update(re=re_value, im=im_value)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(_document(1, records)))
    code = main(["apply", "--op", "L", "--in", str(bad), "--out", str(tmp_path / "o.json")])
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(bad) in err and "record #2" in err


# values of every JSON type, plus an integer past the double range
JUNK = hs.sampled_from(["1.5", "", "sqrt(l+1/2)Y", True, False, None, [], [1.0, 0.0], {},
                        {"l": 0}, 0.5, -1, 3, 10**400])


def _mutate(data, doc):
    """One random damage to a coefficient document, in place."""
    records = doc.get("coefficients")
    target = doc
    if isinstance(records, list) and records and data.draw(hs.booleans()):
        k = data.draw(hs.integers(0, len(records) - 1))
        if not isinstance(records[k], dict) or data.draw(hs.booleans()):
            records[k] = data.draw(JUNK)
            return
        target = records[k]
    action = data.draw(hs.sampled_from(["drop", "retype", "count"]))
    if action == "count" and isinstance(records, list):
        if records and data.draw(hs.booleans()):
            records.pop(data.draw(hs.integers(0, len(records) - 1)))
        else:
            records.append(dict(records[0]) if records and isinstance(records[0], dict) else {})
    elif target:
        key = data.draw(hs.sampled_from(sorted(target)))
        if action == "drop":
            del target[key]
        else:
            target[key] = data.draw(JUNK)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(hs.data())
def test_malformed_documents_exit_cleanly(tmp_path_factory, data):
    lmax = data.draw(hs.integers(0, 2))
    finite = hs.floats(allow_nan=False, allow_infinity=False)
    doc = _document(lmax, [
        {"l": l, "m": m, "re": data.draw(finite), "im": data.draw(finite)}
        for l in range(lmax + 1) for m in range(-l, l + 1)
    ])
    for _ in range(data.draw(hs.integers(1, 3))):
        _mutate(data, doc)
    folder = tmp_path_factory.mktemp("doc")
    path = folder / "in.json"
    path.write_text(json.dumps(doc))
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["apply", "--op", "L", "--in", str(path), "--out", str(folder / "out.json")])
    text = err.getvalue()
    assert "Traceback" not in text
    if code == EXIT_OK:
        assert text == ""
    else:
        assert code == EXIT_USAGE
        assert text.startswith("error:") and text.count("\n") == 1 and str(path) in text


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
@settings(derandomize=True, max_examples=60, deadline=None)
@given(hs.data())
def test_coefficient_reader_matches_reference_on_damaged_documents(tmp_path_factory, data):
    # damaged records, then raw bytes anywhere in the encoded document: a
    # regular file and a pipe must both give the reference's outcome
    lmax = data.draw(hs.integers(0, 2))
    finite = hs.floats(allow_nan=False, allow_infinity=False)
    doc = _document(lmax, [
        {"l": l, "m": m, "re": data.draw(finite), "im": data.draw(finite)}
        for l in range(lmax + 1) for m in range(-l, l + 1)
    ])
    for _ in range(data.draw(hs.integers(0, 3))):
        _mutate(data, doc)
    raw = json.dumps(doc).encode("utf-8")
    for _ in range(data.draw(hs.integers(0, 2))):
        at = data.draw(hs.integers(0, len(raw)))
        raw = raw[:at] + data.draw(hs.sampled_from(reference_io.RAW_PIECES)) + raw[at:]
    path = tmp_path_factory.mktemp("doc") / "in.json"
    path.write_bytes(raw)
    expected = reference_io.outcome(reference_io.load_expansion, path)
    assert reference_io.outcome(load_expansion, path) == expected
    assert reference_io.pipe_outcome(load_expansion, raw, path) == expected


def _records_with(k, **fields):
    records = [dict(rec) for rec in _LMAX1_RECORDS]
    records[k].update(fields)
    return records


_FLOAT_MAX_INT = int(sys.float_info.max)

# valid documents the column checks pass or leave to the record loop, and one
# document per record fault; every one must read the same as the reference
COEFFICIENT_VARIANTS = {name: json.dumps(doc) for name, doc in {
    "as-written": _document(1, _LMAX1_RECORDS),
    "shuffled": _document(1, _LMAX1_RECORDS[::-1]),
    "extra-key": _document(1, _records_with(1, note="x")),
    "signed-zero-and-subnormal": _document(1, _records_with(2, re=-0.0, im=5e-324)),
    "integer-amplitudes": _document(1, _records_with(3, re=2, im=-7)),
    "integer-at-double-max": _document(1, _records_with(3, re=_FLOAT_MAX_INT)),
    "integer-past-double-max": _document(1, _records_with(3, re=_FLOAT_MAX_INT + 1)),
    "integer-past-double-range": _document(1, _records_with(3, im=10**400)),
    "missing-record": _document(1, _LMAX1_RECORDS[:3]),
    "surplus-record": _document(1, [*_LMAX1_RECORDS, _LMAX1_RECORDS[0]]),
    "duplicate-record": _document(1, [*_LMAX1_RECORDS[:3], _LMAX1_RECORDS[1]]),
    "missing-key": _document(1, [*_LMAX1_RECORDS[:3], {"l": 1, "m": 1, "re": 0.0}]),
    "record-list": _document(1, [*_LMAX1_RECORDS[:3], [1, 1, 0.0, 0.0]]),
    "record-null": _document(1, [*_LMAX1_RECORDS[:3], None]),
    "degree-float": _document(1, _records_with(1, l=1.0)),
    "degree-boolean": _document(1, _records_with(1, l=True)),
    "degree-string": _document(1, _records_with(1, l="1")),
    "order-float": _document(1, _records_with(2, m=0.0)),
    "order-out-of-range": _document(1, _records_with(3, m=2)),
    "degree-out-of-range": _document(1, _records_with(3, l=2)),
    "degree-negative": _document(1, _records_with(0, l=-1, m=0)),
    "order-most-negative-int64": _document(1, _records_with(3, m=-(2**63))),
    "degree-past-int64": _document(1, _records_with(3, l=2**70)),
    "amplitude-nan": _document(1, _records_with(1, re=float("nan"))),
    "amplitude-infinity": _document(1, _records_with(2, im=float("-inf"))),
    "amplitude-string": _document(1, _records_with(2, im="0.5")),
    "amplitude-boolean": _document(1, _records_with(0, re=False)),
    "amplitude-null": _document(1, _records_with(0, im=None)),
}.items()}
# parsed as an infinite float, which the column checks hand back
COEFFICIENT_VARIANTS["amplitude-1e999"] = COEFFICIENT_VARIANTS["as-written"].replace(
    "1.0", "1e999", 1)


@pytest.mark.parametrize("variant", sorted(COEFFICIENT_VARIANTS))
def test_coefficient_reader_matches_reference_reader(tmp_path, variant):
    path = tmp_path / "in.json"
    path.write_text(COEFFICIENT_VARIANTS[variant])
    assert reference_io.outcome(load_expansion, path) == reference_io.outcome(
        reference_io.load_expansion, path)


def test_clean_coefficient_document_skips_the_record_loop(tmp_path, monkeypatch):
    def no_loop(path, records, lmax):
        raise AssertionError("record loop ran for a clean document")

    monkeypatch.setattr("sphcalc.expansions._records_to_coefficients", no_loop)
    path = tmp_path / "in.json"
    f = HarmonicExpansion(2, np.arange(9) * (1.0 - 0.5j))
    save_expansion(f, path)
    assert load_expansion(path).coeffs.tobytes() == f.coeffs.tobytes()


def _cli_error(argv):
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


@pytest.mark.parametrize("command", ["apply", "eval"])
def test_deeply_nested_coefficient_document_is_usage_error(tmp_path, command):
    # 100,000 nested arrays once escaped as a RecursionError traceback with exit 1
    bad = tmp_path / "deep.json"
    bad.write_text("[" * 100_000 + "]" * 100_000)
    argv = (["apply", "--op", "L", "--in", str(bad), "--out", str(tmp_path / "o.json")]
            if command == "apply" else ["eval", "--in", str(bad), "--theta", "0.1", "--phi", "0.2"])
    code, err = _cli_error(argv)
    assert code == EXIT_USAGE
    assert err == f"error: {bad}: arrays or objects nested too deeply\n"


def test_non_utf8_coefficient_document_names_the_path(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b'{"lmax": 0, "basis": "\xff"}')
    code, err = _cli_error(["apply", "--op", "L", "--in", str(bad),
                            "--out", str(tmp_path / "o.json")])
    assert code == EXIT_USAGE
    assert err.startswith(f"error: {bad}: not UTF-8 text:") and err.count("\n") == 1


@pytest.mark.parametrize("rows_before", [1, 2000], ids=["first-read", "past-first-read"])
def test_non_utf8_field_document_names_the_line(tmp_path, rows_before):
    # 2,000 rows put the bad byte past the first block that text-mode reading decodes
    bad = tmp_path / "bad.csv"
    bad.write_bytes(b"# grid lmax=0\r\n# columns theta,phi,re,im\r"
                    + b"0.5,0.0,1.0,0.0\n" * rows_before + b"0.5,\xff,1.0,0.0\n")
    code, err = _cli_error(["transform", "analyze", "--in", str(bad),
                            "--out", str(tmp_path / "o.json")])
    assert code == EXIT_USAGE
    assert err == f"error: {bad}:{rows_before + 3}: not UTF-8 text: byte 0xff: invalid start byte\n"


def test_overlong_integer_in_coefficient_document_names_the_path(tmp_path):
    # 5,000 digits is past int()'s default limit of 4,300
    bad = tmp_path / "long.json"
    bad.write_text('{"lmax": ' + "1" * 5000 + ', "basis": "sqrt(l+1/2)Y", "coefficients": []}')
    code, err = _cli_error(["apply", "--op", "L", "--in", str(bad),
                            "--out", str(tmp_path / "o.json")])
    assert code == EXIT_USAGE
    assert err.startswith(f"error: {bad}: integer too long:") and err.count("\n") == 1


def test_memory_exhaustion_is_usage_error(monkeypatch, capsys):
    def exhausted(lmax, trials, seed):
        raise MemoryError

    monkeypatch.setitem(cli.SUITES, "algebra", exhausted)
    assert main(["verify", "--suite", "algebra"]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["transform", "synthesize", "--lmax", "5000"],
    ["verify", "--suite", "transforms", "--lmax", "5000"],
], ids=["transform-synthesize", "verify-transforms"])
def test_degree_past_the_validated_range_is_usage_error(tmp_path, argv):
    # refused before any large allocation; both once ended on the out-of-memory line
    if argv[0] == "transform":
        argv = argv + ["--in", str(write_unit(tmp_path, 0, 0)), "--out", str(tmp_path / "f.csv")]
    code, err = _cli_error(argv)
    assert code == EXIT_USAGE
    assert err.startswith("error: lmax=5000 ") and "1850" in err and err.count("\n") == 1
    assert not (tmp_path / "f.csv").exists()


def test_missing_file_is_io_error(tmp_path):
    out = tmp_path / "o.json"
    code = main(["apply", "--op", "L", "--in", str(tmp_path / "absent.json"), "--out", str(out)])
    assert code == EXIT_IO


def test_eval_command(tmp_path, capsys):
    src = write_unit(tmp_path, 0, 0)
    assert main(["eval", "--in", str(src), "--theta", "0.5", "--phi", "1.0"]) == EXIT_OK
    line = capsys.readouterr().out
    assert "2.820947917739e-01" in line

    assert main(["eval", "--in", str(src), "--theta", "0.5", "--phi", "1.0", "--bound", "3"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "bound(p=3)" in out and "margin" in out


def test_eval_bound_at_high_order_writes_nothing_to_stderr(tmp_path, capsys):
    # functional_constant(43) once printed two overflow warnings here
    src = write_unit(tmp_path, 0, 0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["eval", "--in", str(src), "--theta", "0.3", "--phi", "0.4", "--bound", "43"])
    assert code == EXIT_OK
    captured = capsys.readouterr()
    assert captured.err == "" and "bound(p=43)" in captured.out


def test_eval_range_error(tmp_path):
    src = write_unit(tmp_path, 0, 0)
    assert main(["eval", "--in", str(src), "--theta", "4.0", "--phi", "0.0"]) == EXIT_USAGE


@pytest.mark.parametrize("bound", ["1", "400"])
def test_eval_rejected_bound_prints_no_value(tmp_path, capsys, bound):
    # the value line once reached stdout before the certificate failed
    src = write_unit(tmp_path, 2, 1)
    code = main(["eval", "--in", str(src), "--theta", "0.5", "--phi", "1.0", "--bound", bound])
    assert code == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1


def test_version(capsys):
    import sphcalc

    assert main(["--version"]) == EXIT_OK
    assert capsys.readouterr().out == f"sphcalc {sphcalc.__version__}\n"


def test_package_metadata_requires_numpy_2():
    # every transform passes out= to np.fft.fft/ifft, an argument numpy added in 2.0
    tomllib = pytest.importorskip("tomllib")
    with open(Path(__file__).parent.parent / "pyproject.toml", "rb") as fh:
        config = tomllib.load(fh)
    (floor,) = [re.fullmatch(r"numpy>=([\d.]+)", dep).group(1)
                for dep in config["project"]["dependencies"] if dep.startswith("numpy")]
    assert tuple(int(part) for part in floor.split(".")) >= (2, 0)


def test_package_metadata_reads_the_version_from_the_package():
    # the version is typed once, in sphcalc/__init__.py
    tomllib = pytest.importorskip("tomllib")
    with open(Path(__file__).parent.parent / "pyproject.toml", "rb") as fh:
        config = tomllib.load(fh)
    assert "version" not in config["project"] and "version" in config["project"]["dynamic"]
    assert config["tool"]["setuptools"]["dynamic"]["version"] == {"attr": "sphcalc.__version__"}


def test_usage_error_exit_code():
    assert main(["transform", "sideways", "--in", "x", "--out", "y"]) == EXIT_USAGE
    assert main([]) == EXIT_USAGE


def test_verify_algebra_suite(tmp_path):
    report = tmp_path / "report.json"
    code = main([
        "verify", "--suite", "algebra", "--lmax", "8", "--seed", "42",
        "--out", str(report),
    ])
    assert code == EXIT_OK
    doc = json.loads(report.read_text())
    assert all(rec["pass"] for rec in doc["reports"])
    checks = {rec["check"] for rec in doc["reports"]}
    assert "ladder_algebra_closure" in checks


def test_verify_deterministic_bytes(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["verify", "--suite", "pde", "--lmax", "4", "--trials", "5", "--seed", "7"]
    assert main(argv + ["--out", str(a)]) == EXIT_OK
    assert main(argv + ["--out", str(b)]) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()


def test_verify_tol_override_can_fail(tmp_path):
    # tightening a residual bound to an impossible level must flip the exit code
    code = main([
        "verify", "--suite", "algebra", "--lmax", "6",
        "--tol", "ladder_algebra_closure=1e-30",
    ])
    assert code == EXIT_VERIFY_FAILED


def test_verify_all_suites(tmp_path):
    report = tmp_path / "all.json"
    code = main([
        "verify", "--suite", "all", "--lmax", "8", "--trials", "20", "--seed", "3",
        "--out", str(report),
    ])
    assert code == EXIT_OK
    doc = json.loads(report.read_text())
    checks = {rec["check"] for rec in doc["reports"]}
    # one representative per suite
    for expected in (
        "orthonormality",
        "ladder_algebra_closure",
        "cosTheta_vs_oracle",
        "K+_claimed_bound",
        "laplacian_annihilation",
        "exp_iphi_formal_gap",
    ):
        assert expected in checks
    gap = next(r for r in doc["reports"] if r["check"] == "exp_iphi_formal_gap")
    assert gap["informational"] is True
    assert len(gap["details"]["truncation_tail"]) >= 5
    assert set(gap["details"]["norm_ratio_to_order_plus_2"]) == {"0", "1", "2", "3"}


def test_cli_binds_the_traced_suites():
    # span tracing patches cli.suite_* and the entries of cli.SUITES; a copied
    # dict would leave those spans empty while every report still passes
    assert cli.SUITES is verify.SUITES
    for name in verify.SUITES:
        assert getattr(cli, f"suite_{name}") is verify.SUITES[name]


def test_verify_all_equals_the_single_suites_in_order(tmp_path):
    def records(suite):
        report = tmp_path / f"{suite}.json"
        argv = ["verify", "--suite", suite, "--lmax", "8", "--trials", "20", "--seed", "3"]
        assert main(argv + ["--out", str(report)]) == EXIT_OK
        # compared as JSON text: NaN fields never compare equal as floats
        return [json.dumps(r, sort_keys=True) for r in json.loads(report.read_text())["reports"]]

    assert records("all") == [r for name in verify.SUITES for r in records(name)]


def test_verify_all_suites_at_low_lmax(tmp_path):
    # the closure check needs lmax >= 4, so the algebra suite raises lower requests
    # to 4; the pde order records read l = 2 even at lmax 1
    expected_orders = {1: {"l=1,m=1", "l=2,m=1"}, 2: {"l=2,m=1"}, 3: {"l=2,m=1", "l=3,m=1"}}
    for lmax, orders in expected_orders.items():
        report = tmp_path / f"all_{lmax}.json"
        code = main(["verify", "--suite", "all", "--lmax", str(lmax), "--trials", "2", "--out", str(report)])
        assert code == EXIT_OK, lmax
        doc = json.loads(report.read_text())
        closure = next(r for r in doc["reports"] if r["check"] == "ladder_algebra_closure")
        assert closure["lmax"] == 4
        pde = next(r for r in doc["reports"] if r["check"] == "laplacian_annihilation")
        assert set(pde["details"]["convergence_orders"]) == orders, lmax


@pytest.mark.parametrize(
    "item, message",
    [
        ("nosuch=1", "has no such check"),
        ("=1", "has no such check"),
        ("so3_sub_casimir=nan", "must be finite"),
        ("so3_sub_casimir=inf", "must be finite"),
        ("x=abc", "expected check=value"),
    ],
)
def test_verify_bad_tol_override_is_usage_error(capsys, item, message):
    code = main(["verify", "--suite", "algebra", "--lmax", "4", "--tol", item])
    assert code == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert repr(item) in lines[0] and message in lines[0]


def test_verify_negative_seed_names_the_flag(capsys):
    assert main(["verify", "--suite", "pde", "--seed", "-1"]) == EXIT_USAGE
    assert capsys.readouterr().err == "error: verify needs --seed >= 0, got -1\n"

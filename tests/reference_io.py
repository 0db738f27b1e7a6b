"""Per-record and per-line document I/O: the reference for the library's writers and readers.

These are the coefficient and field document functions as they stood before
the library moved to whole-array I/O.  Tests require the library's writers to
produce the same bytes as ``save_expansion`` and ``save_field`` here, and its
readers to return the same bits, or raise the same exception with the same
message, as ``load_expansion`` and ``load_field`` here.  Both also state
their reader's rule for bytes that are not UTF-8, from one decode of the whole
file: ``load_expansion`` names the path, ``load_field`` the first line that
holds such a byte, where the field reader decodes line by line.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

from sphcalc.expansions import (
    BASIS_TAG,
    CoefficientFileError,
    HarmonicExpansion,
    _is_finite_number,
    _is_int,
    flat_index,
)
from sphcalc.transform import FieldFileError, SampledField, _grid_shape, make_grid

# raw bytes the damaged-document fuzzes insert: not UTF-8 (a lone 0xff, a
# three-byte sequence cut after one byte or two), a whole two-byte sequence,
# two line ends
RAW_PIECES = [b"\xff", b"\xe2", b"\xe2\x82", b"\xc3\xa9", b"\r", b"\r\n"]


def save_expansion(f: HarmonicExpansion, path) -> None:
    records = [
        {"l": l, "m": m, "re": c.real, "im": c.imag} for (l, m), c in f.items()
    ]
    doc = {"lmax": f.lmax, "basis": BASIS_TAG, "coefficients": records}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def load_expansion(path) -> HarmonicExpansion:
    # the whole file decoded at once: an undecodable byte is refused, naming the
    # path and the reason that decoding the file's bytes gives
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise CoefficientFileError(f"{path}: not UTF-8 text: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CoefficientFileError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise CoefficientFileError(f"{path}: top level must be an object, not {type(doc).__name__}")
    for key in ("lmax", "basis", "coefficients"):
        if key not in doc:
            raise CoefficientFileError(f"{path}: missing field {key!r}")
    if doc["basis"] != BASIS_TAG:
        raise CoefficientFileError(
            f"{path}: basis {doc['basis']!r} does not match {BASIS_TAG!r}"
        )
    lmax = doc["lmax"]
    if not _is_int(lmax) or lmax < 0:
        raise CoefficientFileError(f"{path}: lmax must be an integer >= 0, got {lmax!r}")
    size = (lmax + 1) ** 2
    records = doc["coefficients"]
    if not isinstance(records, list):
        raise CoefficientFileError(f"{path}: coefficients must be a list of records")
    # checked before allocating: a short document may declare a huge lmax
    if len(records) != size:
        raise CoefficientFileError(
            f"{path}: {len(records)} records for lmax={lmax}, expected {size}:"
            " entries missing or surplus"
        )
    coeffs = np.zeros(size, dtype=np.complex128)
    seen = np.zeros(size, dtype=bool)
    for k, rec in enumerate(records):
        try:
            l, m, re, im = rec["l"], rec["m"], rec["re"], rec["im"]
        except (KeyError, TypeError) as exc:
            raise CoefficientFileError(f"{path}: bad record #{k}: {rec!r}") from exc
        if not (_is_finite_number(re) and _is_finite_number(im)):
            raise CoefficientFileError(f"{path}: record #{k} re/im not finite numbers: {rec!r}")
        if not (_is_int(l) and _is_int(m)) or l < 0 or l > lmax or abs(m) > l:
            raise CoefficientFileError(f"{path}: record #{k} index ({l!r},{m!r}) out of range")
        pos = flat_index(l, m)
        if seen[pos]:
            raise CoefficientFileError(f"{path}: duplicate entry for ({l},{m})")
        seen[pos] = True
        coeffs[pos] = complex(re, im)
    # size distinct in-range records leave no (l, m) missing
    return HarmonicExpansion(lmax, coeffs)


def save_field(field: SampledField, path) -> None:
    grid = field.grid
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# grid lmax={grid.lmax} n_theta={grid.n_theta} n_phi={grid.n_phi}\n")
        fh.write("# columns theta,phi,re,im\n")
        for i in range(grid.n_theta):
            for j in range(grid.n_phi):
                v = field.samples[i, j]
                fh.write(
                    f"{float(grid.theta[i])!r},{float(grid.phi[j])!r},"
                    f"{float(v.real)!r},{float(v.imag)!r}\n"
                )


def load_field(path) -> SampledField:
    lmax = None
    rows = []
    # the whole file decoded at once, each undecodable byte kept as an escape:
    # the first line that holds one is refused, naming the byte and the reason
    # that decoding that line's bytes gives
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            raw = line.encode("utf-8", "surrogateescape")
            try:
                raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise FieldFileError(
                    f"{path}:{lineno}: not UTF-8 text: byte {raw[exc.start]:#04x}: {exc.reason}"
                ) from exc
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                for token in line[1:].split():
                    if token.startswith("lmax="):
                        try:
                            lmax = int(token[5:])
                        except ValueError:
                            raise FieldFileError(f"{path}:{lineno}: non-integer {token!r}") from None
                continue
            parts = line.split(",")
            if len(parts) != 4:
                raise FieldFileError(f"{path}:{lineno}: expected 4 fields, got {len(parts)}")
            try:
                row = tuple(float(t.strip()) for t in parts)
            except ValueError as exc:
                raise FieldFileError(f"{path}:{lineno}: bad number: {line!r}") from exc
            if not all(math.isfinite(v) for v in row):
                raise FieldFileError(f"{path}:{lineno}: non-finite value: {line!r}")
            rows.append(row)
    if lmax is None:
        raise FieldFileError(f"{path}: missing grid metadata header")
    if lmax < 0:
        raise FieldFileError(f"{path}: grid lmax must be >= 0, got {lmax}")
    # make_grid costs O(lmax^2), so the header must first agree with the rows
    n_theta, n_phi = _grid_shape(lmax)
    if len(rows) != n_theta * n_phi:
        raise FieldFileError(f"{path}: expected {n_theta * n_phi} rows, got {len(rows)}")
    grid = make_grid(lmax)
    samples = np.zeros((grid.n_theta, grid.n_phi), dtype=np.complex128)
    for k, (theta, phi, re, im) in enumerate(rows):
        i, j = divmod(k, grid.n_phi)
        if abs(theta - grid.theta[i]) > 1e-9 or abs(phi - grid.phi[j]) > 1e-9:
            raise FieldFileError(f"{path}: row {k} nodes do not match the declared grid")
        samples[i, j] = complex(re, im)
    return SampledField(grid, samples)


def outcome(load, path):
    """What ``load(path)`` gives, comparable with ``==`` across readers:
    ``("ok", lmax, data bytes)`` or ``("error", exception type, message)``."""
    try:
        result = load(path)
    except Exception as exc:  # noqa: BLE001 - the exception is the outcome
        return "error", type(exc), str(exc)
    data = result.coeffs if isinstance(result, HarmonicExpansion) else result.samples
    lmax = result.lmax if isinstance(result, HarmonicExpansion) else result.grid.lmax
    return "ok", lmax, data.view(np.float64).tobytes()


def pipe_outcome(load, data, path):
    """``outcome(load, ...)`` on the bytes ``data`` read from a pipe, its errors naming ``path``."""
    read_end, write_end = os.pipe()
    try:
        os.write(write_end, data)
        os.close(write_end)
        pipe = f"/dev/fd/{read_end}"
        got = outcome(load, pipe)
    finally:
        os.close(read_end)
    return got[:2] + (got[2].replace(pipe, str(path)),) if got[0] == "error" else got

"""Flat-file emission: CSV tables and JSON model descriptions.

Numbers are written with 17 significant digits so every double
round-trips bit-exactly; downstream fits on re-read files must
reproduce in-memory results to the last bit.
"""

from __future__ import annotations

import csv
import io
import json
from pathlib import Path

import numpy as np

from .errors import ConfigError


def write_table(path, header: list[str], columns: list) -> Path:
    """Write aligned columns under a header row."""
    path = Path(path)
    cols = [np.atleast_1d(np.asarray(c)) for c in columns]
    n = cols[0].size
    if any(c.size != n for c in cols):
        raise ConfigError("column lengths differ")
    if len(header) != len(cols):
        raise ConfigError("header does not match column count")
    row = ",".join(["%.17g"] * len(cols)) + "\r\n"   # csv.writer's terminator
    text = io.StringIO(newline="")
    csv.writer(text).writerow(header)
    text.write(row * n % tuple(np.column_stack(cols).ravel().tolist()))
    return _write_text(path, text.getvalue(), "table")


def _write_text(path: Path, text: str, what: str) -> Path:
    """Write text to path, creating its directory; a ConfigError naming it
    if it cannot be written."""
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"{path}: cannot write {what}: {exc.strerror}") from None
    return path


def _read_text(path, what: str) -> str:
    """The text of the file at path; a ConfigError naming it if it cannot be read."""
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"{path}: cannot read {what}: {exc.strerror}") from None


def read_table(path) -> tuple[list[str], dict[str, np.ndarray]]:
    """Read a CSV written by write_table back into named columns."""
    path = Path(path)
    reader = csv.reader(io.StringIO(_read_text(path, "table"), newline=""))
    try:
        header = next(reader)
    except StopIteration:
        raise ConfigError(f"{path}: empty file") from None
    rows = list(reader)
    data = {}
    for j, name in enumerate(header):
        try:
            data[name] = np.asarray([float(r[j]) for r in rows])
        except (ValueError, IndexError) as exc:
            raise ConfigError(f"{path}: bad numeric data in column {name!r}: {exc}")
    return header, data


def write_json(path, payload: dict) -> Path:
    """Write payload as indented JSON; numpy arrays and scalars become
    lists and numbers, floats keep their shortest round-trip repr."""
    return _write_text(Path(path), json.dumps(payload, indent=2, default=_plain) + "\n", "JSON")


def _plain(obj):
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def write_model_json(path, model) -> Path:
    """Serialize an asymptotic model with full precision."""
    return write_json(path, {
        "origin": model.origin,
        "coefficients": [float(c) for c in model.coefficients],
        "exponents": [float(e) for e in model.exponents],
        "meta": model.meta,
    })

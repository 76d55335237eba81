"""Flat-file emission: CSV tables and JSON model descriptions.

Numbers are written with 17 significant digits so every double
round-trips bit-exactly; downstream fits on re-read files must
reproduce in-memory results to the last bit.
"""

from __future__ import annotations

import csv
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
    path.parent.mkdir(parents=True, exist_ok=True)
    row = ",".join(["%.17g"] * len(cols)) + "\r\n"   # csv.writer's terminator
    with path.open("w", newline="") as fh:
        csv.writer(fh).writerow(header)
        fh.write(row * n % tuple(np.column_stack(cols).ravel().tolist()))
    return path


def read_table(path) -> tuple[list[str], dict[str, np.ndarray]]:
    """Read a CSV written by write_table back into named columns."""
    path = Path(path)
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
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
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, default=_plain) + "\n")
    return path


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

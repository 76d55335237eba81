"""Layer tracing from outside the package.

`Tracer.install()` replaces public tailsurv functions with wrappers
that record one span per call: layer name, start, end and the span that
was open when the call began.  Each function is replaced where its
callers look it up (for example ``spectral.riccati_combos``, which
spectral imported by name), so nested calls are caught too.  Spans are
kept in memory; `summary()` turns them into per-layer self times and
counts, and `spans` can be written out when the run ends.

A layer's self time is its span's duration minus the durations of its
direct child spans.  Nothing inside the package is changed on disk and
`uninstall()` restores every original attribute.
"""

from __future__ import annotations

import functools
import os
import time
from collections import defaultdict

import numpy as np

from tailsurv import analysis, emit, model, oracle, spectral, survival


def _size(x) -> int:
    return int(np.size(x))


def _elements_arg(i):
    """Counter: element count of positional argument i."""
    return lambda args, result: {"elements": _size(args[i])}


def _exact_counts(args, result):
    return {"times": _size(args[1]), "panels": result.meta["panels"],
            "density_evals": result.meta["density_evals"]}


def _laplace_counts(args, result):
    return {"times": _size(args[1])}


def _bytes_written(args, result):
    return {"bytes": os.path.getsize(result)}


# (owner, attribute, layer, counter).  A counter maps the call's
# arguments and result to extra counts; every span also counts one call.
HOOKS = (
    (model.WBPotential, "__post_init__", "model.validate", None),
    (model, "regular_boundary_sq", "model.boundary", _elements_arg(1)),
    (spectral, "regular_boundary_sq", "model.boundary", _elements_arg(1)),
    (oracle, "count_nodes_zero_energy", "oracle.count_nodes", None),
    (oracle, "rk4_radial", "oracle.rk4", _elements_arg(1)),
    (oracle, "oracle_survival_bruteforce", "oracle.bruteforce", None),
    (spectral, "riccati_combos", "specfun.riccati", _elements_arg(1)),
    (spectral, "riccati_large_x_combos", "specfun.riccati", _elements_arg(1)),
    (spectral, "riccati_pair_with_derivatives", "specfun.riccati", _elements_arg(1)),
    (oracle, "riccati_pair_with_derivatives", "specfun.riccati", _elements_arg(1)),
    (spectral.SpectralDensity, "omega", "spectral.omega", _elements_arg(1)),
    (survival, "survival_exact", "survival.exact", _exact_counts),
    (analysis, "survival_exact", "survival.exact", _exact_counts),
    (survival, "survival_laplace_axis", "survival.laplace", _laplace_counts),
    (analysis, "fit_power_law", "analysis.fit", None),
    (emit, "write_table", "emit.write", _bytes_written),
    (emit, "write_model_json", "emit.write", _bytes_written),
)


class Tracer:
    """Records spans of the hooked tailsurv functions while installed."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[dict] = []
        self._saved: list[tuple[object, str, object]] = []
        self.enabled = False

    def _wrap(self, fn, layer, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            span = {"id": len(self.spans), "layer": layer,
                    "parent": self._stack[-1]["id"] if self._stack else None,
                    "child_s": 0.0, "counts": {"calls": 1}}
            self.spans.append(span)
            self._stack.append(span)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
                if self._stack:
                    self._stack[-1]["child_s"] += span["end"] - span["start"]
            if counter is not None:
                span["counts"].update(counter(args, result))
            return result
        return traced

    def install(self) -> None:
        for owner, attr, layer, counter in HOOKS:
            fn = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(fn, layer, counter))

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()

    def summary(self) -> dict:
        """Self time, call count and counters per layer, over all spans.

        Also counts the omega calls and elements made inside each
        survival.laplace and oracle.bruteforce span.
        """
        out: dict = defaultdict(lambda: defaultdict(float))
        by_id = {s["id"]: s for s in self.spans}
        for s in self.spans:
            agg = out[s["layer"]]
            agg["self_s"] += s["end"] - s["start"] - s["child_s"]
            for key, val in s["counts"].items():
                agg[key] += val
            if s["layer"] != "spectral.omega":
                continue
            parent = by_id.get(s["parent"])
            while parent is not None:
                if parent["layer"] in ("survival.laplace", "oracle.bruteforce"):
                    inner = out[parent["layer"]]
                    inner["omega_calls"] += 1
                    inner["omega_elements"] += s["counts"]["elements"]
                parent = by_id.get(parent["parent"])
        return {layer: dict(vals) for layer, vals in out.items()}

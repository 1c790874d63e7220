"""Span tracing from outside the library.

The tracer replaces each public name that a flowmark module binds with a
wrapper that records one span (name, start, end, parent) per call.  A call
reaches a layer through exactly one binding, so a function bound in several
modules is wrapped once per binding and its spans never nest in themselves.
Spans stay in memory and are written out once, when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import time

import numpy as np

# (module, attribute, span name).  The span name's prefix is the layer.
TARGETS = (
    ("flowmark.experiment", "run_experiment", "experiment.run_experiment"),
    ("flowmark.experiment", "poisson_flow", "traffic.poisson_flow"),
    ("flowmark.experiment", "read_trace", "traffic.read_trace"),
    ("flowmark.experiment", "to_ipds", "traffic.to_ipds"),
    ("flowmark.experiment", "watermark_bits", "idscode.watermark_bits"),
    ("flowmark.experiment", "encode", "idscode.encode"),
    ("flowmark.experiment", "embed_flow", "qim.embed_flow"),
    ("flowmark.experiment", "qim_extract", "qim.qim_extract"),
    ("flowmark.experiment", "transmit", "channel.transmit"),
    ("flowmark.experiment", "decode", "decoder.decode"),
    ("flowmark.experiment", "calibrate_threshold", "decoder.calibrate_threshold"),
    ("flowmark.decoder", "decode", "decoder.decode"),
    ("flowmark.decoder", "trellis_tables", "decoder.trellis_tables"),
    ("flowmark.decoder", "block_posterior", "decoder.block_posterior"),
    ("flowmark.decoder", "keystream", "idscode.keystream"),
    ("flowmark.idscode", "encode", "idscode.encode"),
    ("flowmark.idscode", "keystream", "idscode.keystream"),
    ("flowmark.idscode", "watermark_bits", "idscode.watermark_bits"),
    ("flowmark.qim", "embed_flow", "qim.embed_flow"),
    ("flowmark.qim", "qim_embed", "qim.qim_embed"),
    ("flowmark.qim", "to_ipds", "traffic.to_ipds"),
    ("flowmark.qim", "to_flow", "traffic.to_flow"),
    ("flowmark.traffic", "read_trace", "traffic.read_trace"),
    ("flowmark.traffic", "to_ipds", "traffic.to_ipds"),
    ("flowmark.analysis", "ks_distance", "analysis.ks_distance"),
    ("flowmark.analysis", "mfa_aggregate", "analysis.mfa_aggregate"),
)

LAYERS = ("traffic", "idscode", "qim", "channel", "decoder", "analysis", "experiment")

# spans reported as mean milliseconds per call
PER_CALL_MS = (
    "decoder.decode", "decoder.trellis_tables", "decoder.block_posterior",
    "decoder.calibrate_threshold", "qim.embed_flow", "qim.qim_extract",
    "traffic.read_trace", "traffic.poisson_flow", "analysis.ks_distance",
    "analysis.mfa_aggregate", "channel.transmit", "idscode.encode",
)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self._stack: list[int] = []

    def _wrap(self, name, fn):
        names, start, end, parent, stack = (
            self.names, self.start, self.end, self.parent, self._stack)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(idx)
            start.append(time.process_time())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = time.process_time()
                stack.pop()

        return traced

    @contextlib.contextmanager
    def active(self):
        """Wrap every target that exists; restore the originals on exit.
        A target the library no longer has is skipped and reports zero
        calls."""
        saved = []
        try:
            for modname, attr, name in TARGETS:
                mod = importlib.import_module(modname)
                fn = getattr(mod, attr, None)
                if fn is None:
                    continue
                saved.append((mod, attr, fn))
                setattr(mod, attr, self._wrap(name, fn))
            yield self
        finally:
            for mod, attr, fn in reversed(saved):
                setattr(mod, attr, fn)

    def summary(self) -> dict:
        """Calls and total seconds per span name, self seconds per layer.
        A span's self time is its duration minus its children's."""
        dur = np.asarray(self.end) - np.asarray(self.start)
        parent = np.asarray(self.parent, dtype=np.int64)
        covered = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(covered, parent[has_parent], dur[has_parent])
        own = dur - covered
        calls, total, busy = {}, {}, {layer: 0.0 for layer in LAYERS}
        for i, name in enumerate(self.names):
            calls[name] = calls.get(name, 0) + 1
            total[name] = total.get(name, 0.0) + float(dur[i])
            busy[name.split(".", 1)[0]] += float(own[i])
        return {"calls": calls, "total_s": total, "busy_s": busy}

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"columns": ["name", "start", "end", "parent"],
                       "spans": [list(row) for row in
                                 zip(self.names, self.start, self.end, self.parent)]},
                      fh)


def layer_metrics(summary: dict, code_len: int, overhead_s: float,
                  scale: float) -> dict:
    """The per-layer metrics of one traced run (value, unit); every time
    is multiplied by the run's machine-speed factor `scale`."""
    calls, busy = summary["calls"], summary["busy_s"]
    total = {name: scale * t for name, t in summary["total_s"].items()}
    out = {}
    for name in PER_CALL_MS:
        n = calls.get(name, 0)
        out[f"{name}_ms"] = (1e3 * total.get(name, 0.0) / n if n else 0.0, "ms")
    n_dec = calls.get("decoder.decode", 0)
    out["decoder.decode_us_per_code_bit"] = (
        1e6 * total.get("decoder.decode", 0.0) / (n_dec * code_len) if n_dec else 0.0,
        "us")
    out["decoder.block_posterior_calls_per_decode"] = (
        calls.get("decoder.block_posterior", 0) / n_dec if n_dec else 0.0, "count")
    for layer in ("decoder", "qim", "traffic", "analysis", "channel", "idscode"):
        out[f"{layer}.busy_s"] = (scale * busy[layer], "s")
    out["experiment.self_s"] = (scale * busy["experiment"], "s")
    out["trace.overhead_s"] = (scale * overhead_s, "s")
    return out

"""Command-line harness.

Subcommands: gen, embed, transmit, extract, decode, experiment, ks, mfa,
drtt, calibrate.  Results go to stdout or files as JSON; errors are
emitted as one JSON object on stderr with a nonzero exit code.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

import numpy as np

from flowmark.analysis import KS_VISIBILITY_THRESHOLD, delta_rtt_overlay, ks_distance, mfa_aggregate
from flowmark.channel import ChannelLog, ChannelParams, transmit
from flowmark.decoder import IdsParams, calibrate_threshold, decode
from flowmark.experiment import ExperimentConfig, run_experiment
from flowmark.idscode import WatermarkConfig, as_bits, encode, watermark_bits
from flowmark.qim import embed_flow, qim_extract
from flowmark.traffic import poisson_flow, read_trace, read_values, to_ipds, write_trace

_CASTS = {"int": int, "float": float, "str": str}
# the channel log's JSON fields, as written by transmit --log
_LOG_FIELDS = {"deleted_indices": np.int64, "origins": np.int64, "inserted_mask": bool}


def _parse_value(annotation: str, raw: str):
    """Parse one config value by its ExperimentConfig annotation:
    `X | list` takes a comma list, `X | None` an empty value or `none`."""
    raw = raw.strip()
    kind, *alts = (part.strip() for part in annotation.split("|"))
    if "None" in alts and raw.lower() in ("", "none"):
        return None
    if kind == "bool":
        if raw.lower() in ("1", "true", "yes", "on"):
            return True
        if raw.lower() in ("0", "false", "no", "off"):
            return False
        raise ValueError(f"not a boolean: {raw!r}")
    cast = _CASTS[kind]
    if "list" in alts:
        vals = [cast(part) for part in raw.split(",") if part.strip()]
        return vals[0] if len(vals) == 1 else vals
    return cast(raw)


def load_config(path: str | None, overrides: list[str]) -> ExperimentConfig:
    """Read a flat `key = value` config file, then apply key=value overrides."""
    annotations = {f.name: f.type for f in dataclasses.fields(ExperimentConfig)}
    items = []
    if path:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                text = line.split("#", 1)[0].strip()
                if text:
                    items.append((f"{path}: line {lineno}: ", text))
    items += [(f"override {item!r}: ", item) for item in overrides or []]
    values: dict = {}
    for where, text in items:
        if "=" not in text:
            raise ValueError(f"{where}expected key = value")
        key, raw = (part.strip() for part in text.split("=", 1))
        if key not in annotations:
            raise ValueError(f"{where}unknown key {key!r}")
        try:
            values[key] = _parse_value(annotations[key], raw)
        except ValueError as exc:
            raise ValueError(f"{where}key {key!r}: {exc}") from None
    return ExperimentConfig(**values)


def _write(text: str, path: str | None):
    """Write text and a newline to path, or print it when there is no path."""
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _emit(obj, path: str | None):
    _write(json.dumps(obj, indent=2, sort_keys=True), path)


def _load_sidecar(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _sidecar_config(side: dict) -> WatermarkConfig:
    return WatermarkConfig(
        watermark=np.asarray(side["watermark"], dtype=np.uint8),
        spread=int(side["spread"]),
        delta=float(side["delta"]),
        key_seed=int(side["key_seed"]),
    )


def cmd_gen(args) -> int:
    flow = poisson_flow(args.rate, args.count, args.seed)
    write_trace(flow, args.out)
    _emit({"packets": len(flow), "duration": flow.duration, "out": args.out}, None)
    return 0


def cmd_embed(args) -> int:
    if args.wm_bits and (args.n is not None or args.wm_seed is not None):
        raise ValueError("--wm-bits sets the watermark; --n and --wm-seed derive one; give one")
    flow = read_trace(args.trace, clamp=args.clamp)
    if args.wm_bits:
        w = as_bits([int(c) for c in args.wm_bits])
    else:
        w = watermark_bits(0 if args.wm_seed is None else args.wm_seed,
                           50 if args.n is None else args.n)
    cfg = WatermarkConfig(watermark=w, spread=args.spread,
                          delta=args.delta_ms / 1000.0, key_seed=args.key_seed)
    code = encode(w, cfg)
    marked, delays = embed_flow(flow, code, cfg.delta)
    write_trace(marked, args.out)
    sidecar = {
        "n": cfg.n_bits,
        "spread": cfg.spread,
        "delta": cfg.delta,
        "key_seed": cfg.key_seed,
        "code_len": cfg.code_len,
        "watermark": [int(b) for b in w],
        "delays": [round(float(d), 9) for d in delays],
    }
    _emit(sidecar, args.sidecar)
    _emit({"packets": len(flow), "out": args.out, "sidecar": args.sidecar,
           "max_delay": float(np.max(delays))}, None)
    return 0


def cmd_transmit(args) -> int:
    flow = read_trace(args.trace, clamp=args.clamp)
    recv, log = transmit(flow, _law_channel(
        args, seed=args.seed, jitter=args.jitter,
        delta=args.delta_ms / 1000.0 if args.delta_ms is not None else None))
    write_trace(recv, args.out)
    if args.log:
        payload = {name: getattr(log, name).tolist() for name in _LOG_FIELDS}
        _write(json.dumps(payload, sort_keys=True), args.log)
    _emit({"in_packets": len(flow), "out_packets": len(recv),
           "deleted": log.n_deleted, "inserted": log.n_inserted,
           "out": args.out}, None)
    return 0


def cmd_extract(args) -> int:
    flow = read_trace(args.trace, clamp=args.clamp)
    bits = qim_extract(to_ipds(flow), args.delta_ms / 1000.0)
    _write("".join(str(int(b)) for b in bits), args.out)
    return 0


def cmd_decode(args) -> int:
    if args.log and args.nbits is not None:
        raise ValueError("--log and --nbits both set the segment length; give one")
    side = _load_sidecar(args.sidecar)
    cfg = _sidecar_config(side)
    flow = read_trace(args.trace, clamp=args.clamp)
    bits = qim_extract(to_ipds(flow), cfg.delta)
    if args.log:
        with open(args.log, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
        log = ChannelLog(**{name: np.asarray(payload[name], dtype=dtype)
                            for name, dtype in _LOG_FIELDS.items()})
        if log.origins.size != len(flow):
            raise ValueError(f"channel log of {log.origins.size} received packets does not "
                             f"match the trace's {len(flow)}")
        n_bits = log.segment_bits(cfg.code_len)
    elif args.nbits is not None:
        if not 0 <= args.nbits <= bits.size:
            raise ValueError(f"--nbits {args.nbits} is outside [0, {bits.size}] received bits")
        n_bits = args.nbits
    else:
        n_bits = bits.size
    params = IdsParams.from_channel(_law_channel(args, delta=cfg.delta))
    report = decode(bits[:n_bits], cfg, params, cfg.watermark,
                    threshold=args.threshold, d_max=args.d_max)
    if report.status != "ok":
        print(json.dumps({"warning": report.status,
                          "message": f"{n_bits} received bits have probability 0 under "
                                     "the channel model; the score carries no evidence"}),
              file=sys.stderr)
    _emit(report.to_dict(), args.out)
    return 0


def cmd_experiment(args) -> int:
    config = load_config(args.config, args.set)
    report = run_experiment(config)
    if args.csv:
        _write(report.to_csv(), args.csv)
    # one JSON document on stdout: the report, or the summary of a --json one
    _emit(report.to_dict(), args.json)
    if not args.json:
        return 0
    summary = [
        {"params": cell.params, "tp": cell.tp_rate, "fp": cell.fp_rate,
         "threshold": cell.threshold}
        for cell in report.cells
    ]
    _emit({"cells": summary, "wall_clock": report.wall_clock,
           "json": args.json, "csv": args.csv}, None)
    return 0


def cmd_ks(args) -> int:
    samples = []
    for path in (args.trace_a, args.trace_b):
        flow = read_trace(path, clamp=args.clamp)
        if len(flow) < 2:
            raise ValueError(f"{path}: a one-packet flow has no IPDs; ks needs at least 2 packets")
        samples.append(to_ipds(flow))
    res = ks_distance(*samples, threshold=args.threshold)
    _emit({"distance": res.distance, "threshold": res.threshold,
           "indistinguishable": res.indistinguishable}, args.out)
    return 0


def cmd_mfa(args) -> int:
    flows = [read_trace(p, clamp=args.clamp) for p in args.traces]
    res = mfa_aggregate(flows, args.interval_ms / 1000.0)
    _emit({
        "interval_ms": args.interval_ms,
        "flows": len(flows),
        "blank_count": res.blank_count,
        "total_intervals": res.total_intervals,
        "total_packets": int(res.counts.sum()),
    }, args.out)
    return 0


def cmd_drtt(args) -> int:
    rtts = read_values(args.rtt_file, "an RTT")
    delays = _load_sidecar(args.sidecar)["delays"] if args.sidecar else []
    res = delta_rtt_overlay(rtts, delays)
    if args.csv:
        rows = ["which,delta_rtt,cdf"]
        for name, arr in (("raw", res.raw_deltas), ("marked", res.marked_deltas)):
            arr = np.sort(arr)
            rows += [f"{name},{v:.9f},{(i + 1) / arr.size:.6f}" for i, v in enumerate(arr)]
        _write("\n".join(rows), args.csv)
    _emit({"ks_distance": res.ks.distance,
           "threshold": res.ks.threshold,
           "indistinguishable": res.ks.indistinguishable,
           "samples": int(res.raw_deltas.size)}, args.out)
    return 0


def cmd_calibrate(args) -> int:
    with open(args.scores, "r", encoding="utf-8") as fh:
        first = fh.read().strip()
    if first.startswith("["):
        scores = json.loads(first)
    else:
        scores = [float(v) for v in first.split()]
    thr = calibrate_threshold(scores, args.alpha)
    _emit({"threshold": thr, "alpha": args.alpha, "count": len(scores)}, args.out)
    return 0


def _add_law_args(p: argparse.ArgumentParser, sigma_ms: float):
    """The channel law's flags: the law transmit simulates, or the one
    decode assumes."""
    p.add_argument("--sigma-ms", type=float, default=sigma_ms,
                   help=f"jitter std dev in ms (default {sigma_ms:g})")
    p.add_argument("--p-d", type=float, default=0.0, help="per-packet deletion probability")
    p.add_argument("--p-i", type=float, default=0.0, help="geometric insertion parameter")
    p.add_argument("--max-insert-run", type=int, default=8,
                   help="cap on the packets inserted after one survivor")


def _law_channel(args, **rest) -> ChannelParams:
    """The packet channel of _add_law_args' flags, times in seconds."""
    return ChannelParams(sigma=args.sigma_ms / 1000.0, p_delete=args.p_d, p_insert=args.p_i,
                         max_insert_run=args.max_insert_run, **rest)


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="flowmark",
                                  description="Flow watermarking toolkit")
    sub = top.add_subparsers(dest="command", required=True)
    clamp = argparse.ArgumentParser(add_help=False)
    clamp.add_argument("--clamp", action="store_true",
                       help="clamp decreasing timestamps in input traces instead of failing")
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", default=None, help="write the result here (default: stdout)")

    p = sub.add_parser("gen", help="generate a Poisson trace")
    p.add_argument("--rate", type=float, required=True, help="packets per second")
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("embed", parents=[clamp], help="embed a watermark into a trace")
    p.add_argument("trace")
    p.add_argument("--out", required=True)
    p.add_argument("--sidecar", required=True, help="JSON with key, bits, delays")
    p.add_argument("--n", type=int, default=None, help="watermark bits (default 50)")
    p.add_argument("--spread", type=int, default=10)
    p.add_argument("--delta-ms", type=float, default=100.0)
    p.add_argument("--key-seed", type=int, default=1)
    p.add_argument("--wm-seed", type=int, default=None,
                   help="derive watermark bits from this seed (default 0)")
    p.add_argument("--wm-bits", default=None, help="explicit bit string, e.g. 0101...")
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("transmit", parents=[clamp], help="run a trace through the channel")
    p.add_argument("trace")
    p.add_argument("--out", required=True)
    p.add_argument("--log", default=None, help="write ground-truth channel log JSON")
    _add_law_args(p, sigma_ms=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--jitter", choices=["laplace", "quantizer"], default="laplace")
    p.add_argument("--delta-ms", type=float, default=None,
                   help="quantization step; required for --jitter quantizer")
    p.set_defaults(func=cmd_transmit)

    p = sub.add_parser("extract", parents=[clamp, out], help="extract raw bits from a trace")
    p.add_argument("trace")
    p.add_argument("--delta-ms", type=float, required=True)
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("decode", parents=[clamp, out],
                       help="decode a received trace against a sidecar")
    p.add_argument("trace")
    p.add_argument("--sidecar", required=True)
    p.add_argument("--log", default=None,
                   help="channel log JSON to locate the watermarked segment")
    p.add_argument("--nbits", type=int, default=None,
                   help="explicit number of received bits in the segment")
    _add_law_args(p, sigma_ms=10.0)
    p.add_argument("--threshold", type=float, default=None)
    p.add_argument("--d-max", type=int, default=None,
                   help="cap on the drift's magnitude, never below the length mismatch "
                        "plus 2 (default: from the channel and n_obs)")
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("experiment", help="run a batch experiment grid")
    p.add_argument("--config", default=None, help="flat key = value config file")
    p.add_argument("--set", action="append", default=[],
                   metavar="KEY=VALUE", help="override a config key")
    p.add_argument("--json", default=None, help="write the full report here")
    p.add_argument("--csv", default=None, help="write per-cell CSV here")
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("ks", parents=[clamp, out], help="KS distance between two traces' IPDs")
    p.add_argument("trace_a")
    p.add_argument("trace_b")
    p.add_argument("--threshold", type=float, default=KS_VISIBILITY_THRESHOLD)
    p.set_defaults(func=cmd_ks)

    p = sub.add_parser("mfa", parents=[clamp, out],
                       help="blank-interval statistics of aggregated flows")
    p.add_argument("traces", nargs="+")
    p.add_argument("--interval-ms", type=float, default=70.0)
    p.set_defaults(func=cmd_mfa)

    p = sub.add_parser("drtt", parents=[out], help="overlay watermark delays on a ping RTT file")
    p.add_argument("--rtt-file", required=True, help="one RTT (seconds) per line")
    p.add_argument("--sidecar", default=None, help="embed sidecar with per-packet delays")
    p.add_argument("--csv", default=None, help="write CDF points here")
    p.set_defaults(func=cmd_drtt)

    p = sub.add_parser("calibrate", parents=[out], help="threshold from control scores")
    p.add_argument("--scores", required=True,
                   help="file with a JSON array or whitespace-separated scores")
    p.add_argument("--alpha", type=float, default=0.01)
    p.set_defaults(func=cmd_calibrate)

    return top


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

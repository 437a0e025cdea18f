#!/usr/bin/env python3
"""Regenerate ci/bench_serve_baseline.json from a loadgen --json artifact.

The loadgen CI job gates its closed-loop run's latency quantiles against the
committed baseline (observed <= baseline * tolerance). When the serve path
changes shape on purpose — or runner hardware drifts — the baseline is
re-derived from a representative green run's BENCH_serve.json instead of
hand-editing numbers:

    python3 ci/rebaseline_bench.py BENCH_serve.json run-2.json run-3.json
    python3 ci/rebaseline_bench.py BENCH_serve.json --tolerance 4 \
        --quantiles p50,p99,p999 --output ci/bench_serve_baseline.json

Multiple artifacts can be given (at least three local runs of the CI
command, or several runs downloaded from CI); the per-quantile *maximum*
across them becomes the reference, so the baseline reflects the noisiest
green run rather than a lucky one. The run's metadata block (git sha,
timestamp — present when loadgen wrote it) is carried into the baseline's
comment for provenance.
"""

import argparse
import json
import sys

DEFAULT_OUTPUT = "ci/bench_serve_baseline.json"
DEFAULT_QUANTILES = "p50,p99,p999"
DEFAULT_TOLERANCE = 4.0

COMMENT = (
    "Committed latency baseline for the closed-loop loadgen run in the `loadgen` CI "
    "job. `latency_us` holds reference quantiles, each the maximum over the source "
    "runs; a run fails when any gated quantile exceeds baseline * tolerance. The "
    "tolerance is set against the regression this gate must catch: the ~44 ms "
    "delayed-ACK stall replies took before both ends set TCP_NODELAY (p99 44-47 ms, "
    "p999 45-48 ms over five local runs of this command). With p99 and p999 "
    "references near 10 ms, 4x puts their limits just under that stall, so its "
    "return fails the gate, while leaving 4x headroom over the noisiest local run "
    "for hosted runners, which are slower and noisier than the 4-vCPU box the "
    "references come from. Regenerate with ci/rebaseline_bench.py from at least "
    "three local runs of the CI command; if the references move far from 10 ms, "
    "re-derive the tolerance the same way."
)


def provenance(runs):
    """One-line provenance string from the artifacts' meta blocks, if any."""
    parts = []
    for path, bench in runs:
        meta = bench.get("meta", {})
        sha = meta.get("git_sha") or "unknown-sha"
        stamp = meta.get("timestamp_utc") or "unknown-time"
        parts.append(f"{path} ({sha} @ {stamp})")
    return "; ".join(parts)


def main():
    parser = argparse.ArgumentParser(
        description="Regenerate the serve-path latency baseline from loadgen JSON artifacts."
    )
    parser.add_argument("artifacts", nargs="+", help="loadgen --json output file(s)")
    parser.add_argument("--output", default=DEFAULT_OUTPUT, help=f"baseline path (default {DEFAULT_OUTPUT})")
    parser.add_argument(
        "--quantiles",
        default=DEFAULT_QUANTILES,
        help=f"comma-separated quantile keys to gate (default {DEFAULT_QUANTILES})",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=DEFAULT_TOLERANCE,
        help=f"failure multiplier over the reference (default {DEFAULT_TOLERANCE})",
    )
    parser.add_argument(
        "--dry-run", action="store_true", help="print the baseline instead of writing it"
    )
    args = parser.parse_args()

    if args.tolerance <= 1.0:
        parser.error("--tolerance must be > 1.0 (a gate at or below 1x fails on noise alone)")
    quantiles = [q for q in args.quantiles.split(",") if q]
    if not quantiles:
        parser.error("--quantiles names no quantile keys")

    runs = []
    for path in args.artifacts:
        try:
            with open(path) as handle:
                bench = json.load(handle)
        except (OSError, json.JSONDecodeError) as error:
            sys.exit(f"error: cannot read '{path}': {error}")
        if "latency_us" not in bench:
            sys.exit(f"error: '{path}' has no latency_us block (not a loadgen --json artifact?)")
        if bench.get("errors", 0) or bench.get("connection_lost"):
            sys.exit(
                f"error: '{path}' records errors or a lost connection — "
                "re-baseline only from a clean run"
            )
        runs.append((path, bench))

    reference = {}
    for quantile in quantiles:
        values = []
        for path, bench in runs:
            value = bench["latency_us"].get(quantile)
            if not isinstance(value, (int, float)) or value <= 0:
                sys.exit(f"error: '{path}' has no positive latency_us.{quantile}")
            values.append(value)
        reference[quantile] = int(max(values))

    baseline = {
        "_comment": COMMENT,
        "_source": provenance(runs),
        "latency_us": reference,
        "tolerance": args.tolerance,
    }
    text = json.dumps(baseline, indent=2) + "\n"
    if args.dry_run:
        sys.stdout.write(text)
        return
    with open(args.output, "w") as handle:
        handle.write(text)
    gated = ", ".join(f"{q}={reference[q]}us" for q in quantiles)
    print(f"wrote {args.output}: {gated} (tolerance {args.tolerance}x, from {len(runs)} run(s))")


if __name__ == "__main__":
    main()

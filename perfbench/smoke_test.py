#!/usr/bin/env python3
"""Smoke test of the benchmark itself: a few hundred requests per workload.

    python3 perfbench/smoke_test.py

Runs perfbench/run.py --smoke on every workload it knows, with
--trace 0 and --trace 1, and asserts that every metric BENCHMARK.json names
prints with its unit, that the output check passes with no failed
operation, and that the traced pass writes its span file. Exits non-zero
on the first failure.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    spans_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "spans"
    for workload in ("hot", "cold", "explore"):
        for trace, expected in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            spans = spans_dir / f"{workload}-seed7.jsonl"
            if spans.exists():
                spans.unlink()
            run = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "7",
                 "--seconds", "1", "--trace", str(trace), "--smoke"],
                cwd=ROOT, capture_output=True, text=True, timeout=900)
            label = f"{workload} --trace {trace}"
            assert run.returncode == 0, f"{label}: exit {run.returncode}\n{run.stderr[-2000:]}"
            result = json.loads(run.stdout.splitlines()[-1])
            assert result["correct"] and result["failed"] == 0, f"{label}: {result}"
            assert result["attempted"] >= 1, label
            for metric in expected:
                got = result["metrics"].get(metric["name"])
                assert got is not None, f"{label}: {metric['name']} missing"
                assert got["unit"] == metric["unit"], f"{label}: {metric['name']} unit {got['unit']}"
                assert f"{metric['name']} " in run.stdout, f"{label}: {metric['name']} not printed"
            assert set(result["metrics"]) == {m["name"] for m in expected}, label
            if trace:
                assert spans.is_file() and spans.stat().st_size > 0, f"{label}: no span file"
            print(f"ok  {label}")


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""The repository benchmark: hot, cold and explore traffic against spivar_serve.

    python3 perfbench/run.py --workload hot --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. Builds spivar_serve and the benchmark
client from source with CMake (into $CARGO_TARGET_DIR, default
.bench_build, relative to the checkout root), then runs one measurement:
five set-ups of a fresh `spivar_serve --port 0 --jobs 2 --cache 4096`,
each followed by a fifth of the timed closed-loop phase (--trace 0,
end-to-end metrics), or the separate traced pass on the last one (--trace 1,
per-layer metrics, spans written to <build>/spans/). Replies are checked byte for byte against an
in-process session. The last line of stdout is the JSON result.

--smoke sends a few hundred requests instead of a timed window; see
perfbench/smoke_test.py.
"""
import argparse
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("hot", "cold", "explore")
# A run must end within 180 s; the client gets what the build left of it.
RUN_BUDGET_S = 175


def build(out):
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        sys.exit(f"error: no spivar source tree at {ROOT} (CMakeLists.txt and src/ expected)")
    log = sys.stderr
    if not (out / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(BENCH), "-B", str(out), "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=log, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(out), "--target", "perfbench_client", "spivar_serve",
                    "-j", jobs], stdout=log, check=True)
    return out / "perfbench_client", out / "spivar" / "spivar_serve"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()

    started = time.monotonic()
    out = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    try:
        client, server = build(out)
    except (subprocess.CalledProcessError, OSError) as error:
        sys.exit(f"error: build failed: {error}")
    spans = out / "spans" / f"{args.workload}-seed{args.seed}.jsonl"
    command = [str(client), "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--server", str(server), "--spans", str(spans)]
    if args.smoke:
        command.append("--smoke")

    # Its own process group, so the server it spawns goes down with it.
    budget = max(RUN_BUDGET_S - (time.monotonic() - started), 30)
    child = subprocess.Popen(command, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        output, _ = child.communicate(timeout=budget)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        sys.exit(f"error: the run did not finish within {budget:.0f} s")
    finally:
        try:
            os.killpg(child.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    lines = output.rstrip("\n").splitlines()
    if child.returncode != 0 or not lines:
        sys.stderr.write(output)
        sys.exit(f"error: perfbench_client exited with {child.returncode}")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        sys.exit("error: malformed result line")
    print("\n".join(lines[:-1]))
    print(json.dumps(result))


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Build and run the panda-surrogate end-to-end benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds N --trace 0|1

Builds the `serve` binary and the `perfbench` package in release mode
(offline, into $CARGO_TARGET_DIR, default `.bench_build`), runs one
workload and relays its report. The last stdout line is the JSON result;
before it is printed, its metric names are checked against BENCHMARK.json
when that file is present. Any build or run failure exits non-zero without
a result line.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# The benchmark binary must finish well inside the 180 s a run may take.
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def cargo_build(target_dir, manifest, *extra):
    command = ["cargo", "build", "--release", "--offline", "--quiet",
               "--manifest-path", str(manifest), *extra]
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir))
    # Build chatter goes to stderr; stdout carries only the report.
    done = subprocess.run(command, cwd=ROOT, env=env, stdout=sys.stderr)
    if done.returncode != 0:
        fail(f"build failed: {' '.join(command)}")


def check_result(line, trace):
    """The result line must name exactly the metrics BENCHMARK.json lists."""
    result = json.loads(line)
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail(f"result has keys {sorted(result)}")
    spec_path = ROOT / "BENCHMARK.json"
    if spec_path.is_file():
        spec = json.loads(spec_path.read_text())
        declared = spec["per_layer" if trace else "end_to_end"]
        expected = {m["name"]: m["unit"] for m in declared}
        reported = {name: m["unit"] for name, m in result["metrics"].items()}
        if reported != expected:
            fail("reported metrics differ from BENCHMARK.json: "
                 f"missing {sorted(set(expected) - set(reported))}, "
                 f"extra {sorted(set(reported) - set(expected))}")


def main(argv):
    target_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target_dir.is_absolute():
        target_dir = ROOT / target_dir
    cargo_build(target_dir, ROOT / "Cargo.toml", "-p", "bench", "--bin", "serve")
    cargo_build(target_dir, ROOT / "perfbench" / "Cargo.toml")
    release = target_dir / "release"
    command = [str(release / "perfbench"), *argv,
               "--serve-bin", str(release / "serve"),
               "--work-dir", str(target_dir / "perfbench-work")]
    try:
        done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = done.stdout.rstrip("\n").split("\n")
    if done.returncode != 0:
        sys.stderr.write(done.stdout)
        fail(f"benchmark exited with code {done.returncode}")
    trace = "--trace" in argv and argv[argv.index("--trace") + 1:][:1] == ["1"]
    check_result(lines[-1], trace)
    sys.stdout.write("\n".join(lines) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])

#!/usr/bin/env python3
"""Builds the benchmark driver from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed N --seconds S --trace 0|1

Run from the repository root. The first run configures and builds
`perfbench/` (the driver plus the library sources in `src/`) into
`$CARGO_TARGET_DIR/perfbench` (default `.bench_build/perfbench`); later runs
only re-check the build. The driver's last stdout line is the result object;
this script checks its metric names against BENCHMARK.json, reports every
per-layer metric the workload does not exercise as 0, and prints the object
as its own last line. It exits non-zero, without a result, when the build
fails, and with the driver's code when a correctness check fails.
"""

import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    log_path = out + ".log"
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        configure = ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", out,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", out, "-j", "4"])
    with open(log_path, "a") as log:
        for cmd in steps:
            try:
                code = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                      timeout=BUILD_TIMEOUT_S).returncode
            except (OSError, subprocess.TimeoutExpired) as e:
                fail(f"build step {cmd[:2]} failed: {e}")
            if code != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                if cmd[1] == "-S":
                    # A failed configure leaves a cache that would skip it.
                    shutil.rmtree(out, ignore_errors=True)
                fail(f"build failed (see {log_path})")
    return os.path.join(out, "perfbench")


def main(argv):
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")
    traced = False
    for flag, value in zip(argv, argv[1:]):
        if flag == "--trace":
            traced = value != "0"

    binary = build()
    cmd = [binary] + argv
    if "--out-dir" not in argv:
        cmd += ["--out-dir", os.path.join(ROOT, ".bench_out")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"driver exceeded {RUN_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail(f"driver printed nothing (exit {proc.returncode})")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail(f"driver's last line is not JSON (exit {proc.returncode})")

    wanted = spec["per_layer" if traced else "end_to_end"]
    names = {m["name"] for m in wanted}
    metrics = result["metrics"]
    extra = sorted(set(metrics) - names)
    if extra:
        fail(f"metrics missing from BENCHMARK.json: {extra}")
    for m in wanted:
        if m["name"] in metrics:
            continue
        if not traced:
            fail(f"end-to-end metric {m['name']} not reported")
        # This workload never calls that layer.
        metrics[m["name"]] = {"value": 0, "unit": m["unit"]}
    for m in wanted:
        if metrics[m["name"]]["unit"] != m["unit"]:
            fail(f"{m['name']}: unit {metrics[m['name']]['unit']} != {m['unit']}")
    result["metrics"] = {m["name"]: metrics[m["name"]] for m in wanted}

    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

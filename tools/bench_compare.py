#!/usr/bin/env python3
"""Perf gate: compare BENCH_*.json sidecars against committed baselines.

Every bench emits a BENCH_<name>.json sidecar (see bench/bench_util.hpp).
Keys prefixed ``gate_`` are performance gates and self-describe their
direction:

  gate_rate_*     higher is better (throughput); fails when the current run
                  drops more than ``--threshold`` below the baseline.
  gate_seconds_*  lower is better (wall clock); fails when the current run
                  rises more than ``--threshold`` above the baseline.

All other keys are informational and never gate. A baseline gate key that a
bench which ran no longer emits fails the gate: deleting or renaming a gated
tier must also delete or rename its baseline key, so no tier is un-gated
silently. A bench absent from the run, and a gate key found only in the run,
are warnings — baselines are refreshed with ``--update`` whenever a bench
gains keys.

Usage:
  tools/bench_compare.py BASELINE_DIR CURRENT_DIR [--threshold 0.15]
  tools/bench_compare.py BASELINE_DIR CURRENT_DIR --update
  tools/bench_compare.py --selftest

Exit status: 0 when every gate holds, 1 on any regression, dropped baseline
gate key or selftest failure, 2 on usage/IO errors.
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import sys
import tempfile
from pathlib import Path

GATE_RATE = "gate_rate_"
GATE_SECONDS = "gate_seconds_"


def load_sidecars(directory: Path) -> dict[str, dict]:
    """Maps bench name -> parsed sidecar for every BENCH_*.json in dir."""
    out: dict[str, dict] = {}
    for path in sorted(directory.glob("BENCH_*.json")):
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        name = doc.get("bench", path.stem.removeprefix("BENCH_"))
        out[name] = doc
    return out


def gate_keys(doc: dict) -> list[str]:
    return [
        k
        for k, v in doc.items()
        if (k.startswith(GATE_RATE) or k.startswith(GATE_SECONDS))
        and isinstance(v, (int, float))
    ]


def check(baseline_dir: Path, current_dir: Path, threshold: float) -> int:
    baselines = load_sidecars(baseline_dir)
    currents = load_sidecars(current_dir)
    if not baselines:
        print(f"error: no BENCH_*.json baselines in {baseline_dir}")
        return 2
    if not currents:
        print(f"error: no BENCH_*.json sidecars in {current_dir}")
        return 2

    failures = 0
    dropped = 0
    gates = 0
    for name in sorted(set(baselines) | set(currents)):
        base = baselines.get(name)
        cur = currents.get(name)
        if base is None or cur is None:
            side = "baseline" if base is None else "current run"
            print(f"warn: bench '{name}' missing from {side}; not gated")
            continue
        keys = sorted(set(gate_keys(base)) | set(gate_keys(cur)))
        for key in keys:
            b = base.get(key)
            c = cur.get(key)
            if not isinstance(b, (int, float)):
                print(f"warn: {name}.{key} missing from baseline; not gated")
                continue
            if not isinstance(c, (int, float)):
                print(f"FAIL  {name}.{key} in the baseline but missing from "
                      f"the current run: a gated tier was dropped or renamed")
                dropped += 1
                continue
            if not (math.isfinite(b) and math.isfinite(c)) or b <= 0:
                print(f"warn: {name}.{key} non-finite/non-positive; not gated")
                continue
            gates += 1
            if key.startswith(GATE_RATE):
                # Higher is better: fail when current < (1 - threshold) * base.
                change = c / b - 1.0
                bad = change < -threshold
                direction = "rate"
            else:
                # Lower is better: fail when current > (1 + threshold) * base.
                change = c / b - 1.0
                bad = change > threshold
                direction = "seconds"
            status = "FAIL" if bad else "ok"
            print(
                f"{status:>4}  {name}.{key} [{direction}] "
                f"baseline={b:.6g} current={c:.6g} change={change:+.1%} "
                f"(threshold ±{threshold:.0%})"
            )
            failures += 1 if bad else 0

    if gates == 0 and dropped == 0:
        print("error: no comparable gate_ keys found — nothing was checked")
        return 2
    print(
        f"\nperf gate: {gates} gate(s) checked, {failures} regression(s) "
        f"beyond {threshold:.0%}, {dropped} baseline key(s) missing"
    )
    return 1 if failures or dropped else 0


def update(baseline_dir: Path, current_dir: Path) -> int:
    paths = sorted(current_dir.glob("BENCH_*.json"))
    if not paths:
        print(f"error: no BENCH_*.json sidecars in {current_dir}")
        return 2
    baseline_dir.mkdir(parents=True, exist_ok=True)
    for path in paths:
        shutil.copy2(path, baseline_dir / path.name)
        print(f"updated {baseline_dir / path.name}")
    return 0


def selftest() -> int:
    """Synthesizes a 20% slowdown and a dropped gate key and asserts the gate
    fails on each (and passes on an identical run and on a run with a new
    key) — proof the gate can actually catch a regression."""
    doc = {
        "bench": "selftest",
        "wall_seconds": 1.0,
        "gate_rate_widgets_per_sec": 1000.0,
        "gate_seconds_epoch": 2.0,
        "informational_key": 123.0,
    }
    with tempfile.TemporaryDirectory() as tmp:
        base_dir = Path(tmp) / "baseline"
        same_dir = Path(tmp) / "same"
        slow_dir = Path(tmp) / "slow"
        dropped_dir = Path(tmp) / "dropped"
        added_dir = Path(tmp) / "added"
        for d in (base_dir, same_dir, slow_dir, dropped_dir, added_dir):
            d.mkdir()
        (base_dir / "BENCH_selftest.json").write_text(json.dumps(doc))
        (same_dir / "BENCH_selftest.json").write_text(json.dumps(doc))
        slow = dict(doc)
        slow["gate_rate_widgets_per_sec"] = 800.0  # -20% throughput
        slow["gate_seconds_epoch"] = 2.4  # +20% wall clock
        (slow_dir / "BENCH_selftest.json").write_text(json.dumps(slow))
        dropped = dict(doc)
        del dropped["gate_seconds_epoch"]
        (dropped_dir / "BENCH_selftest.json").write_text(json.dumps(dropped))
        added = dict(doc)
        added["gate_rate_new_tier"] = 5.0
        (added_dir / "BENCH_selftest.json").write_text(json.dumps(added))

        print("--- selftest: identical run must pass ---")
        if check(base_dir, same_dir, 0.15) != 0:
            print("selftest FAILED: identical run was flagged")
            return 1
        print("--- selftest: 20% slowdown must fail ---")
        if check(base_dir, slow_dir, 0.15) != 1:
            print("selftest FAILED: 20% slowdown was not flagged")
            return 1
        print("--- selftest: a dropped baseline gate key must fail ---")
        if check(base_dir, dropped_dir, 0.15) != 1:
            print("selftest FAILED: a dropped gate key was not flagged")
            return 1
        print("--- selftest: a gate key new in the run must pass ---")
        if check(base_dir, added_dir, 0.15) != 0:
            print("selftest FAILED: a new gate key was flagged")
            return 1
    print("selftest passed: the gate detects a 20% regression and a dropped "
          "gate key")
    return 0


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline_dir", nargs="?", type=Path,
                        help="directory of committed BENCH_*.json baselines")
    parser.add_argument("current_dir", nargs="?", type=Path,
                        help="directory of freshly produced BENCH_*.json")
    parser.add_argument("--threshold", type=float, default=0.15,
                        help="allowed relative change before failing "
                             "(default 0.15 = 15%%)")
    parser.add_argument("--update", action="store_true",
                        help="copy current sidecars over the baselines")
    parser.add_argument("--selftest", action="store_true",
                        help="verify the gate flags a synthetic 20%% slowdown "
                             "and a dropped gate key")
    args = parser.parse_args(argv)

    if args.selftest:
        return selftest()
    if args.baseline_dir is None or args.current_dir is None:
        parser.print_usage()
        return 2
    if not args.current_dir.is_dir():
        print(f"error: {args.current_dir} is not a directory")
        return 2
    if args.update:
        return update(args.baseline_dir, args.current_dir)
    if not args.baseline_dir.is_dir():
        print(f"error: {args.baseline_dir} is not a directory")
        return 2
    return check(args.baseline_dir, args.current_dir, args.threshold)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

#!/usr/bin/env python3
"""All workloads in one command: python3 perfbench/overview.py [--seed N] [--seconds S]

Runs every workload untraced and prints the end-to-end metrics side by side,
then runs each traced and prints the per-layer metrics and whether the
layer predictions below hold as measured:

- enumcount.ms is 0 on paths16 and large on random8;
- solver start-up (oracle.first_reply_ms x oracle.sessions) is a larger share
  of analysis time on random8 than on paths16;
- summarizer.smt_bytes per analysis is largest on paths16.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    for line in lines[:-1]:
        if line.startswith(("FAILED", "  input", "pair_ms_tail is", "failed_frac",
                            "incomplete_frac")):
            print(f"  [{workload}] {line}")
    return json.loads(lines[-1])


def table(results: dict[str, dict]):
    names = list(next(iter(results.values()))["metrics"])
    print(f"{'metric':28s}" + "".join(f"{w:>16s}" for w in results) + "  unit")
    for name in names:
        cells = "".join(f"{r['metrics'][name]['value']:16.4f}" for r in results.values())
        print(f"{name:28s}{cells}  {next(iter(results.values()))['metrics'][name]['unit']}")
    print("correct" + " " * 21 + "".join(f"{str(r['correct']):>16s}" for r in results.values()))


def predictions(traced: dict[str, dict]):
    def value(workload, name):
        return traced[workload]["metrics"][name]["value"]

    enum_share = value("random8", "enumcount.ms") / value("random8", "trace.pair_ms")
    startup = {w: value(w, "oracle.startup_share") for w in traced}
    smt_bytes = {w: value(w, "summarizer.smt_bytes") for w in traced}
    rows = [
        ("enumcount.ms is 0 on paths16 and large on random8",
         value("paths16", "enumcount.ms") == 0 and enum_share > 0.25,
         f"paths16 {value('paths16', 'enumcount.ms'):.1f} ms; random8 "
         f"{value('random8', 'enumcount.ms'):.1f} ms = {enum_share:.0%} of analysis time"),
        ("start-up share of analysis time is larger on random8 than on paths16",
         startup["random8"] > startup["paths16"],
         ", ".join(f"{w} {s:.0%}" for w, s in startup.items())),
        ("summarizer.smt_bytes per analysis is largest on paths16",
         max(smt_bytes, key=smt_bytes.get) == "paths16",
         ", ".join(f"{w} {b:.0f} B" for w, b in smt_bytes.items())),
    ]
    for label, held, detail in rows:
        print(f"{'confirmed' if held else 'REFUTED  '}  {label}: {detail}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    args = ap.parse_args()
    print(f"end-to-end metrics, seed {args.seed}, --seconds {args.seconds}")
    table({w: run(w, args.seed, args.seconds, 0) for w in WORKLOADS})
    print(f"\nper-layer metrics (traced), seed {args.seed}")
    traced = {w: run(w, args.seed, args.seconds, 1) for w in WORKLOADS}
    table(traced)
    print()
    predictions(traced)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Print every benchmark metric, by name and unit, for every workload.

    python3 xbench/report.py --seed 1 --seconds 30

Runs xbench/run.py once per workload untraced (end-to-end metrics, plus
fail_ratio = failed / attempted) and once traced (per-layer metrics), each
in its own process, one after another.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

RUN = Path(__file__).resolve().parent / "run.py"


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=True, timeout=600)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    args = parser.parse_args(argv)
    for workload in WORKLOADS:
        for trace in (0, 1):
            res = run(workload, args.seed, args.seconds, trace)
            kind = "per-layer (traced)" if trace else "end-to-end"
            print(f"== {workload} {kind}: correct={res['correct']} "
                  f"attempted={res['attempted']} failed={res['failed']}")
            rows = [(k, v["value"], v["unit"]) for k, v in res["metrics"].items()]
            if not trace:
                rows.append(("fail_ratio", res["failed"] / res["attempted"], "ratio"))
            for name, value, unit in rows:
                print(f"{workload:8} {name:44} {value:>16.6g} {unit}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

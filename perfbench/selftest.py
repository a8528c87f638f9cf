"""Check that the traced counters repeat exactly across two runs on one seed.

Run from the repository root:

    python3 perfbench/selftest.py

Each workload runs twice on seed 1 with ``--trace 1``, each run in its own process.
Every per-layer metric except times and rates (units ``s`` and ``1/s``) must
be identical between the two runs; exit status 1 lists those that are not.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 1
TIMED_UNITS = {"s", "1/s"}


def traced_metrics(workload: str) -> dict:
    out = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "0", "--trace", "1"],
        cwd=ROOT, check=True, capture_output=True, text=True, timeout=900,
    ).stdout
    return json.loads(out.strip().splitlines()[-1])["metrics"]


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    differ = []
    for workload in (w["name"] for w in spec["workloads"]):
        first, second = (traced_metrics(workload) for _ in range(2))
        counted = [name for name, m in first.items() if m["unit"] not in TIMED_UNITS]
        for name in counted:
            if first[name]["value"] != second[name]["value"]:
                differ.append(f"{workload} {name}: {first[name]['value']} != {second[name]['value']}")
        print(f"{workload}: {len(counted)} counters compared, "
              f"{sum(d.startswith(workload + ' ') for d in differ)} differ")
    for line in differ:
        print(f"DIFFERS {line}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())

"""Self-check of the benchmark's exact counters.

    python3 perfbench/selfcheck.py

Run from the root of a checkout. For each workload it runs one traced pass
over the instance pool twice with seed 1 and once with seed 2, then
requires that every exact counter -- the per-layer counts, the per-layer
failure counts and the failure count behind failed_frac -- is identical
between the two runs of seed 1, and that the counters taken together
differ for seed 2. Counters that cannot depend on the seed (node
counts of fixed tree shapes, for example) are listed as such. Exits 1 on
any violation.
"""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from worker import COUNT_METRICS, LAYERS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

EXACT = COUNT_METRICS + tuple(f"{layer}.failed" for layer in LAYERS)
SEED_A, SEED_B = 1, 2


def counters(workload: str, seed: int) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "0", "--trace", "1"]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True, timeout=170)
    raw = json.loads(out.stdout.splitlines()[-1])
    found = {name: raw["layers"][name] for name in EXACT}
    found["pool_failed"] = raw["pool_failed"]
    found["failures"] = raw["failures"]
    return found


def main() -> int:
    ok = True
    for name in sorted(WORKLOADS):
        first, again, other = counters(name, SEED_A), counters(name, SEED_A), counters(name, SEED_B)
        unstable = [k for k in first if first[k] != again[k]]
        fixed = [k for k in first if first[k] == other[k]]
        print(f"{name}: seed {SEED_A} twice, seed {SEED_B} once")
        for k, v in first.items():
            print(f"  {k} = {v}" + ("" if k in fixed else f" (seed {SEED_B}: {other[k]})"))
        if unstable:
            ok = False
            print(f"  FAIL: differs between two runs of seed {SEED_A}: {', '.join(unstable)}")
        if len(fixed) == len(first):
            ok = False
            print(f"  FAIL: no counter differs for seed {SEED_B}")
        else:
            print(f"  same for both seeds: {', '.join(fixed)}")
    print("selfcheck:", "ok" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

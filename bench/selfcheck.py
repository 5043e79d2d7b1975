"""Check that two traced runs on one seed give identical work counts and output hashes.

Run from the repository root:

    python3 bench/selfcheck.py --seed 1

Later changes may rest claims on the work counts (calls, patterns, evals,
corners, tableau cells, bytes, draws, fallbacks) and on the output hash, so
both must repeat exactly.  Exits 1 on any difference.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from run import load_vmlab

RUN = Path(__file__).resolve().parent / "run.py"
COUNTS = (".calls", ".patterns", ".evals", ".corners", ".tableau_cells", ".bytes", ".draws", ".fallbacks")


def traced_run(workload: str, seed: int):
    """(work counts, outputs sha256) of one traced run."""
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed), "--trace", "1"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload}: run failed ({proc.returncode}): {proc.stderr.strip()}")
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    provenance = json.loads(next(l for l in lines if l.startswith("provenance "))[len("provenance "):])
    counts = {k: v["value"] for k, v in result["metrics"].items() if k.endswith(COUNTS)}
    return counts, provenance["outputs_sha256"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    load_vmlab()
    import workloads

    ok = True
    for workload in workloads.WORKLOADS:
        first, second = traced_run(workload, args.seed), traced_run(workload, args.seed)
        diffs = [k for k in first[0] if first[0][k] != second[0].get(k)]
        same_hash = first[1] == second[1]
        ok &= not diffs and same_hash
        print(f"{workload}: {len(first[0])} counts, {len(diffs)} differ "
              f"{diffs[:5]}; outputs sha256 {'identical' if same_hash else 'DIFFERENT'} {first[1][:16]}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

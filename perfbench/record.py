#!/usr/bin/env python3
"""Re-record ``perfbench/baseline.json``.

    python3 perfbench/record.py [--seconds 20]

For every workload, runs ``run.py`` on its default seed (timed and
traced) and on its held-out seed (timed), and writes the fingerprints,
the end-to-end metrics, the per-layer table and the recording host's
facts.  Run it from the repository root on a quiet host, and only when
the simulated results change on purpose or the benchmark itself changes;
the old file is discarded first, so no stale fingerprint can fail the
new runs.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def run_one(workload: str, seed: int, seconds: float, trace: int):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
    sys.stdout.write(proc.stdout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"record: {' '.join(cmd[1:])} exited {proc.returncode}")
    lines = proc.stdout.splitlines()
    fingerprint = next(
        json.loads(line.split(":", 1)[1])
        for line in lines if line.startswith("fingerprint:")
    )
    result = json.loads(lines[-1])
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    return fingerprint, metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seconds", type=float, default=20.0)
    args = parser.parse_args()

    sys.path.insert(0, str(HERE))
    import run

    run.bootstrap()
    from workloads import WORKLOADS

    run.BASELINE.unlink(missing_ok=True)
    record = {"host": run.host_facts(), "seconds": args.seconds, "workloads": {}}
    for name, workload in WORKLOADS.items():
        default_fp, end_to_end = run_one(
            name, workload.default_seed, args.seconds, 0
        )
        _, per_layer = run_one(name, workload.default_seed, args.seconds, 1)
        heldout_fp, _ = run_one(name, workload.heldout_seed, args.seconds, 0)
        record["workloads"][name] = {
            "default_seed": workload.default_seed,
            "heldout_seed": workload.heldout_seed,
            "fingerprints": {
                str(workload.default_seed): default_fp,
                str(workload.heldout_seed): heldout_fp,
            },
            "end_to_end": end_to_end,
            "per_layer": per_layer,
        }
    with run.BASELINE.open("w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {run.BASELINE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

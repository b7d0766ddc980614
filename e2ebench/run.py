"""End-to-end benchmark: topology events in, refreshed posteriors and
routed decisions out.

Run from the root of a repository checkout:

    python3 e2ebench/run.py --workload eon-em --seed 1 --seconds 30 --trace 0

Workloads: ``eon-em``, ``sf1024-churn``, ``gossip32-churn`` (see
``workloads.py`` for what each loads and why).  Confirm a claim on the
held-out seed ``HELD_OUT_SEED`` as well as on the seeds it was tuned on.

Each run happens in a fresh interpreter (``worker.py``) with
``PYTHONHASHSEED`` pinned and every ``REPRO_*`` variable cleared, and
imports the library from this checkout's ``src/``.  It prints one line
per metric and, last, one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer breakdown with ``--trace 1``.  The full
result (environment stamp, gates, per-epoch counts) and, for traced
runs, the spans are written to ``e2ebench/results/``, which git ignores.
The exit status is non-zero when a correctness gate fails, the run
overruns, or the checkout holds no library source.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("eon-em", "sf1024-churn", "gossip32-churn")
HELD_OUT_SEED = 7919
#: The worker is killed past this; a run must end within 180 s.
WORKER_TIMEOUT_S = 170


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(
            f"e2ebench: no library source at {ROOT / 'src' / 'repro'}; "
            "run from a repository checkout",
            file=sys.stderr,
        )
        return 2
    results = HERE / "results"
    results.mkdir(exist_ok=True)
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1")
    command = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--out", str(results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
    ]
    try:
        return subprocess.run(
            command, env=env, cwd=ROOT, timeout=WORKER_TIMEOUT_S
        ).returncode
    except subprocess.TimeoutExpired:
        print(f"e2ebench: run exceeded {WORKER_TIMEOUT_S} s", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

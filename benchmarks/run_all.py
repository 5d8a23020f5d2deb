#!/usr/bin/env python
"""Run every benchmark and refresh all pinned ``BENCH_*.json`` files.

The scaling benches each write their machine-readable curve to the
repository root (``BENCH_shard_scaling.json``, ``BENCH_submission_scaling
.json``, ``BENCH_retire_scaling.json``, ``BENCH_dispatch_latency.json``,
``BENCH_resolve_latency.json``, ``BENCH_check_scaling.json``,
``BENCH_efficiency.json``); after a change that legitimately moves
the numbers, this driver re-runs the whole suite and refreshes them in
one command::

    PYTHONPATH=src python benchmarks/run_all.py            # default tier
    REPRO_FULL=1 PYTHONPATH=src python benchmarks/run_all.py  # paper-size
    PYTHONPATH=src python benchmarks/run_all.py bench_resolve bench_dispatch

Positional arguments select a subset by file stem (with or without the
``bench_`` prefix / ``.py`` suffix).  Each bench runs as its own pytest
session so one failure cannot mask another; the driver exits non-zero if
any bench fails and prints which BENCH_*.json files changed.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO = BENCH_DIR.parent


def _selected(argv: list[str]) -> list[Path]:
    benches = sorted(BENCH_DIR.glob("bench_*.py"))
    if not argv:
        return benches
    wanted = set()
    for arg in argv:
        stem = Path(arg).stem
        if not stem.startswith("bench_"):
            stem = f"bench_{stem}"
        wanted.add(stem)
    chosen = [b for b in benches if b.stem in wanted]
    unknown = wanted - {b.stem for b in chosen}
    if unknown:
        names = ", ".join(sorted(b.stem for b in benches))
        raise SystemExit(f"unknown bench(es) {sorted(unknown)}; available: {names}")
    return chosen


def main(argv: list[str] | None = None) -> int:
    benches = _selected(sys.argv[1:] if argv is None else argv)
    env = dict(os.environ)
    src = str(REPO / "src")
    env["PYTHONPATH"] = (
        src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    )

    before = {
        p.name: p.stat().st_mtime_ns for p in REPO.glob("BENCH_*.json")
    }
    failed: list[str] = []
    for bench in benches:
        print(f"=== {bench.stem} ===", flush=True)
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", str(bench)],
            cwd=REPO,
            env=env,
        )
        if proc.returncode != 0:
            failed.append(bench.stem)

    refreshed = [
        p.name
        for p in sorted(REPO.glob("BENCH_*.json"))
        if before.get(p.name) != p.stat().st_mtime_ns
    ]
    print()
    print(f"ran {len(benches)} benches; refreshed: {', '.join(refreshed) or 'none'}")
    if failed:
        print(f"FAILED: {', '.join(failed)}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

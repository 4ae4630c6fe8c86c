"""Regenerate ``perfbench/digests.json``: the expected outcome of every operation.

Usage, from the root of a checkout::

    python3 perfbench/record_digests.py

Runs each distinct operation of every workload once, untraced, and stores
its outcome digest (see ``run.outcome_digest``).  ``verify`` is run at two
sampling seeds and must give the same digest, since the benchmark checks
every seed against one digest.  Regenerate only on a commit whose reports
are known good, and say why in the change that does it.
"""
from __future__ import annotations

import json
import subprocess
import sys

import run


def git_head() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=run.ROOT, capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return out.stdout.strip()


def digest_of(key: str, args: list[str]) -> str:
    result = run.run_op(key, args)
    if result.digest is None:
        raise SystemExit(f"{key}: no outcome (exit {result.exit_code})")
    print(f"{key}: exit {result.exit_code}, {result.wall_s:.2f} s, {result.digest}", flush=True)
    return result.digest


def main() -> int:
    drift = run.check_configs()
    if drift is not None:
        raise SystemExit(drift)
    table: dict[str, dict[str, str]] = {}
    for workload, rounds in run.WORKLOADS.items():
        table[workload] = {key: digest_of(key, args) for key, args in next(rounds(0))}
    [(key, args)] = next(run.verify_wide(1))
    if digest_of(key, args) != table["verify-wide"][key]:
        raise SystemExit("verify outcome depends on the sampling seed; one digest cannot check every seed")
    doc = {"generated_at_commit": git_head(), **table}
    (run.BENCH / "digests.json").write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

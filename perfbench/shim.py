"""Child process for one benchmark operation: one bdlab CLI verb.

Usage::

    python3 perfbench/shim.py RECORD MODE VERB [CLI ARGS...]

Runs ``bdlab.cli.main`` on the given arguments with the checkout's ``src``
on the import path, then writes RECORD, a JSON object with:

* ``exit_code`` -- what ``main`` returned;
* ``setup_done`` -- ``time.monotonic()`` when the first ``build_universe``
  call returned (the parent subtracts its own spawn time, on the same
  system-wide monotonic clock);
* ``element_count`` and ``fingerprint`` of that first universe, taken after
  the verb finished, so growth by constructions is included;
* with MODE ``trace``, ``calls_at_build`` and ``spans`` from
  ``tracer.Tracer``.

MODE ``plain`` runs the verb as it is; MODE ``setup`` stops it as soon as
the first universe is built, to sample set-up time alone.

The record is written after ``main`` returns and the tracer is removed, so
fingerprinting is never traced.
"""
from __future__ import annotations

import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))


class SetupReached(Exception):
    """Ends a ``setup`` run once the first universe is built."""


def main(argv: list[str]) -> int:
    record_path, mode, cli_args = argv[0], argv[1], argv[2:]
    if mode not in ("plain", "trace", "setup"):
        raise SystemExit(f"unknown mode {mode!r}")
    from bdlab import cli, universe as universe_module

    from tracer import Rebinding, Tracer

    tracer = Tracer() if mode == "trace" else None
    if tracer is not None:
        tracer.install()
    first: dict = {}
    build = universe_module.build_universe

    def timed_build(config):
        built = build(config)
        if not first:
            first["setup_done"] = time.monotonic()
            first["universe"] = built
            if tracer is not None:
                first["calls_at_build"] = tracer.snapshot_calls()
            if mode == "setup":
                raise SetupReached
        return built

    hook = Rebinding()
    hook.replace({id(build): timed_build})
    try:
        exit_code = cli.main(cli_args)
    except SetupReached:
        exit_code = 0
    finally:
        hook.restore()
        if tracer is not None:
            tracer.restore()

    universe = first.get("universe")
    record = {
        "exit_code": exit_code,
        "setup_done": first.get("setup_done"),
        "element_count": None if universe is None else len(universe),
        "fingerprint": None if universe is None else universe.fingerprint(),
    }
    if tracer is not None:
        record["calls_at_build"] = first.get("calls_at_build", {})
        record["spans"] = tracer.to_json()
    sys.stdout.flush()
    with open(record_path, "w", encoding="utf-8") as handle:
        json.dump(record, handle)
    return exit_code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

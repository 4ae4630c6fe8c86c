"""Growth table of ``verify`` over a depth, a width and a singleton-net ladder.

Each ladder row runs the four verification suites ``REPEAT`` times, each in a
fresh child process against one source tree, and keeps the fastest repeat:

* depth: ``perfbench/configs/deep.json`` at horizon R = 10, 25, 50, 100, 200,
  400;
* width: ``perfbench/configs/wide.json`` (R = 10) at level_cap 24, 72, 288;
* singleton: ``deep.json`` with a singleton net (max_support 1,
  denominator_bound 1), where the compact-difference witnesses exist, at
  R = 10, 25, 50, 100.

A row holds n (elements built), R, the seconds of one ``build_universe``,
of the compact-difference check on that universe and of the extensions
check once its coding rows are synced (fastest repeats), of each suite and
of the whole in-process ``verify`` (build included), and the sha256 of the
report exactly as ``verify --format json`` prints it.  In a tree from before
the extensions proof every check also takes a generator; the child passes
one only to a check that takes it, so it runs on trees from either side.  Each
label also records the package import time: the median, over
``IMPORT_RUNS`` fresh interpreters with warm bytecode, of the
``-X importtime`` cumulative microseconds of the top-level ``bdlab`` modules
that ``import bdlab.cli`` loads (``bdlab`` and ``bdlab.cli``), and the
phase split of ``enumerate --format json`` on ``deep.json``: per phase the
median milliseconds over ``PHASE_RUNS`` fresh children that run the verb
the way ``perfbench/shim.py`` does, then fingerprint the first universe
once more after the verb.  The phases are ``startup`` (spawn to the first
statement), ``import`` (``from bdlab import cli``), ``build`` (to the
return of the first ``build_universe``), ``output`` (the rest of the verb:
the fingerprint, the element records and the JSON text), ``fingerprint``
(the post-verb fingerprint) and ``exit`` (to the parent's ``wait4``); with
them the number of collections per generation that ``gc.callbacks`` saw
before ``exit`` (the interpreter's shutdown collections call no callbacks).
Runs are stored under a label, so the same table can hold the code before
and after a change::

    python scripts/growth.py --out BENCH_N.json --label before --src /path/to/other/checkout/src
    python scripts/growth.py --out BENCH_N.json --label after

``--out`` is required, so that no run rewrites a committed table by default.

With ``--before`` the script runs only ``PHASE_PAIRS`` alternating pairs of
phase-split children, one on the ``--before`` tree and one on ``--src``,
with the ``--before`` tree first in even pairs, and stores them under
``phase_pairs``: per pair both trees' phases, collections and stdout
sha256 and the tree whose total was lower; per tree each phase's quartiles;
per phase the number of pairs where ``--src`` was lower; and whether every
child printed the same bytes::

    python scripts/growth.py --out BENCH_N.json --before /path/to/other/checkout/src

Rerunning a label replaces its rows and keeps the others; per ladder the
table says whether every label's reports are identical.  Labels whose trees
print different report bytes read false there: the extensions proof, for
one, dropped the report's ``seed`` key and added two check details.

Per label the table states five fitted exponents, least-squares slopes on
log-log axes: ``n`` is verify seconds against n on the width ladder (R
fixed), ``R`` is verify seconds against R on the depth ladder (where n grows
with R too, so a verify that is linear in depth has an R exponent near 1),
``build_R`` and ``extensions_R`` are the build's and the extensions check's
seconds against R on the depth ladder, and ``compact_R`` is the compact
check's seconds against R on the singleton ladder.  Standard library only.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# ladder -> (config, field, values, fixed overrides)
LADDERS = {
    "depth": ("perfbench/configs/deep.json", "horizon", (10, 25, 50, 100, 200, 400), {}),
    "width": ("perfbench/configs/wide.json", "level_cap", (24, 72, 288), {}),
    "singleton": (
        "perfbench/configs/deep.json", "horizon", (10, 25, 50, 100),
        {"max_support": 1, "denominator_bound": 1},
    ),
}

REPEAT = 2
IMPORT_RUNS = 21
PHASE_RUNS = 11
PHASE_PAIRS = 20
PHASE_ARGS = ("enumerate", "--config", "perfbench/configs/deep.json", "--format", "json")
PHASES = ("startup", "import", "build", "output", "fingerprint", "exit")

# Runs in the child with the chosen source tree first on sys.path.
CHILD = r"""
import hashlib, json, random, sys, time
from bdlab.algebra import coding_rows
from bdlab.config import config_from_dict
from bdlab.serialize import stable_json
from bdlab.universe import build_universe
from bdlab.verify import _compact_differences, _extensions, run_verification

def timed(check, universe):
    # seconds of one run; a check of an older tree also takes a generator
    args = (universe, random.Random(0))[:check.__code__.co_argcount]
    started = time.perf_counter()
    check(*args)
    return time.perf_counter() - started

path, field, value = sys.argv[1], sys.argv[2], int(sys.argv[3])
changes = {**json.loads(sys.argv[4]), field: value}
with open(path, encoding="utf-8") as handle:
    raw = json.load(handle)
for name, v in changes.items():
    (raw if name == "horizon" else raw.setdefault("net", {}))[name] = v
cfg = config_from_dict(raw)
started = time.perf_counter()
universe = build_universe(cfg)
build = time.perf_counter() - started
compact = timed(_compact_differences, universe)
coding_rows(universe)
extensions = timed(_extensions, universe)
started = time.perf_counter()
report = run_verification(cfg, timings=True)
total = time.perf_counter() - started
payload = report.to_json_dict()
seconds = {name: float(s) for name, s in payload.pop("timings").items()}
seconds["verify"] = round(total, 3)
seconds["build"] = round(build, 3)
seconds["compact"] = round(compact, 3)
seconds["extensions"] = round(extensions, 3)
print(json.dumps({
    "n": report.element_count,
    "R": max(int(r) for r in payload["level_counts"]),
    "seconds": seconds,
    "sha256": hashlib.sha256(stable_json(payload).encode("ascii")).hexdigest(),
}))
"""


# One verb in a fresh child, timed at its phase boundaries on the
# system-wide monotonic clock that the parent's spawn and exit times use.
PHASE_CHILD = r"""
import time
started = time.monotonic()
import gc, json, sys
collections = [0, 0, 0]

def count(phase, info):
    if phase == "start":
        collections[info["generation"]] += 1

gc.callbacks.append(count)
from bdlab import cli
imported = time.monotonic()
first = {}
build = cli.build_universe

def timed_build(config):
    universe = build(config)
    if not first:
        first.update(universe=universe, built=time.monotonic())
    return universe

cli.build_universe = timed_build
code = cli.main(sys.argv[2:])
done = time.monotonic()
fingerprint = first["universe"].fingerprint()
fingerprinted = time.monotonic()
sys.stdout.flush()
with open(sys.argv[1], "w", encoding="utf-8") as handle:
    json.dump({"code": code, "started": started, "imported": imported, "built": first["built"],
               "done": done, "fingerprinted": fingerprinted, "collections": collections}, handle)
"""


def child_env(src: Path) -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith(("PYTHON", "BDLAB_"))}
    env["PYTHONPATH"] = str(src)
    env["PYTHONHASHSEED"] = "0"
    return env


def import_ms(src: Path, runs: int) -> dict:
    """Median import time of ``bdlab.cli`` in milliseconds over fresh
    interpreters, after one import that writes the bytecode."""
    env = child_env(src)
    command = [sys.executable, "-X", "importtime", "-c", "import bdlab.cli"]
    subprocess.run(command, cwd=ROOT, env=env, capture_output=True, check=True)
    samples = []
    for _ in range(runs):
        err = subprocess.run(command, cwd=ROOT, env=env, capture_output=True, text=True, check=True).stderr
        total = 0
        for line in err.splitlines():
            # "import time: <self> | <cumulative> | <two spaces per level><name>"
            if not line.startswith("import time:"):
                continue
            _, cumulative, name = line.split("|")
            if name[1:] == name.strip() and name.strip().split(".")[0] == "bdlab":
                total += int(cumulative)
        samples.append(round(total / 1000, 2))
    return {"median": round(statistics.median(samples), 2), "samples": samples}


def phase_run(src: Path, tmp: Path) -> dict:
    """One fresh child's milliseconds per phase of ``PHASE_ARGS``, its
    collections per generation before exit and the sha256 of its stdout."""
    record_path, out_path = tmp / "record.json", tmp / "stdout.json"
    with open(out_path, "wb") as out:
        spawned = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, "-c", PHASE_CHILD, str(record_path), *PHASE_ARGS],
            cwd=ROOT, env=child_env(src), stdout=out,
        )
        _, status, _ = os.wait4(proc.pid, 0)
        ended = time.monotonic()
    if os.waitstatus_to_exitcode(status) != 0:
        raise SystemExit(f"phase child exited with status {status}")
    r = json.loads(record_path.read_text(encoding="utf-8"))
    marks = (spawned, r["started"], r["imported"], r["built"], r["done"], r["fingerprinted"], ended)
    ms = {phase: round((hi - lo) * 1000, 1) for phase, lo, hi in zip(PHASES, marks, marks[1:])}
    ms["total"] = round((ended - spawned) * 1000, 1)
    return {
        "ms": ms,
        "collections": r["collections"],
        "sha256": hashlib.sha256(out_path.read_bytes()).hexdigest(),
    }


def phase_split(src: Path, runs: int) -> dict:
    """Median milliseconds of each phase of ``PHASE_ARGS`` over fresh
    children, and the median collections per generation before exit."""
    with tempfile.TemporaryDirectory() as tmp:
        records = [phase_run(src, Path(tmp)) for _ in range(runs)]
    samples = {phase: [r["ms"][phase] for r in records] for phase in (*PHASES, "total")}
    return {
        "args": " ".join(PHASE_ARGS),
        "median_ms": {phase: round(statistics.median(v), 1) for phase, v in samples.items()},
        "samples_ms": samples,
        "collections": [statistics.median(r["collections"][g] for r in records) for g in range(3)],
    }


def phase_pairs(before: Path, after: Path, pairs: int) -> dict:
    """``pairs`` alternating pairs of one phase-split child per tree, the
    ``before`` tree first in even pairs: per pair both trees' phases and the
    tree whose total was lower; per tree each phase's median and quartiles;
    per phase the number of pairs where ``after`` was lower."""
    trees = {"before": before, "after": after}
    rows = []
    with tempfile.TemporaryDirectory() as tmp:
        for i in range(pairs):
            order = ("before", "after") if i % 2 == 0 else ("after", "before")
            runs = {side: phase_run(trees[side], Path(tmp)) for side in order}
            totals = {side: runs[side]["ms"]["total"] for side in trees}
            lower = "tie" if totals["before"] == totals["after"] else min(totals, key=totals.get)
            rows.append({"first": order[0], **runs, "lower_total": lower})
            print(f"pair {i + 1}: total before {totals['before']} after {totals['after']} ms "
                  f"(output {runs['before']['ms']['output']} -> {runs['after']['ms']['output']})",
                  file=sys.stderr)
    phases = (*PHASES, "total")
    return {
        "args": " ".join(PHASE_ARGS),
        "pairs": rows,
        "quartiles_ms": {
            side: {p: [round(q, 1) for q in statistics.quantiles([r[side]["ms"][p] for r in rows], n=4)]
                   for p in phases}
            for side in trees
        },
        "pairs_lower_after": {p: sum(r["after"]["ms"][p] < r["before"]["ms"][p] for r in rows) for p in phases},
        "outputs_identical": len({r[side]["sha256"] for r in rows for side in trees}) == 1,
    }


def run_row(src: Path, path: str, field: str, value: int, fixed: dict) -> dict:
    env = child_env(src)
    best, fastest = None, {"build": math.inf, "compact": math.inf, "extensions": math.inf}
    for _ in range(REPEAT):
        out = subprocess.run(
            [sys.executable, "-c", CHILD, path, field, str(value), json.dumps(fixed)],
            cwd=ROOT, env=env, capture_output=True, text=True, check=True,
        )
        row = json.loads(out.stdout)
        if best is not None and row["sha256"] != best["sha256"]:
            raise SystemExit(f"{path} {field}={value}: report differs between repeats")
        if best is None or row["seconds"]["verify"] < best["seconds"]["verify"]:
            best = row
        fastest = {name: min(s, row["seconds"][name]) for name, s in fastest.items()}
    best["seconds"].update(fastest)
    return {"config": path, **fixed, field: value, **best}


def slope(points: list[tuple[float, float]]) -> float:
    """Least-squares slope of log y against log x."""
    xs = [math.log(x) for x, _ in points]
    ys = [math.log(y) for _, y in points]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    num = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    return round(num / sum((x - mx) ** 2 for x in xs), 2)


def exponents(rows: dict[str, list[dict]]) -> dict[str, float]:
    return {
        "n": slope([(r["n"], r["seconds"]["verify"]) for r in rows["width"]]),
        "R": slope([(r["R"], r["seconds"]["verify"]) for r in rows["depth"]]),
        "build_R": slope([(r["R"], r["seconds"]["build"]) for r in rows["depth"]]),
        "compact_R": slope([(r["R"], r["seconds"]["compact"]) for r in rows["singleton"]]),
        "extensions_R": slope([(r["R"], r["seconds"]["extensions"]) for r in rows["depth"]]),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", default="after", help="name of this run in the table")
    parser.add_argument("--src", type=Path, default=ROOT / "src", help="source tree to time")
    parser.add_argument("--out", type=Path, required=True, help="table to update (JSON)")
    parser.add_argument(
        "--before", type=Path, default=None,
        help="run only alternating phase-split pairs of this source tree and --src",
    )
    args = parser.parse_args(argv)

    table = json.loads(args.out.read_text()) if args.out.exists() else {"runs": {}}
    table["machine"] = {
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
        "platform": platform.platform(terse=True),
    }
    table["description"] = __doc__.split("\n\n")[0].strip()
    if args.before is not None:
        table["phase_pairs"] = phase_pairs(args.before.resolve(), args.src.resolve(), PHASE_PAIRS)
        args.out.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")
        return 0
    imports = import_ms(args.src.resolve(), IMPORT_RUNS)
    print(f"{args.label} import bdlab.cli: median {imports['median']} ms", file=sys.stderr)
    phases = phase_split(args.src.resolve(), PHASE_RUNS)
    print(f"{args.label} {phases['args']}: {phases['median_ms']} ms, "
          f"collections {phases['collections']}", file=sys.stderr)
    rows: dict[str, list[dict]] = {}
    for ladder, (path, field, values, fixed) in LADDERS.items():
        rows[ladder] = []
        for value in values:
            row = run_row(args.src.resolve(), path, field, value, fixed)
            print(f"{args.label} {ladder} {field}={value}: n={row['n']} R={row['R']} "
                  f"build {row['seconds']['build']}s verify {row['seconds']['verify']}s",
                  file=sys.stderr)
            rows[ladder].append(row)
    table["runs"][args.label] = {
        "rows": rows, "exponents": exponents(rows), "import_ms": imports, "phases": phases,
    }
    table["reports_identical_across_runs"] = {
        ladder: len({
            tuple(r["sha256"] for r in run["rows"][ladder]) for run in table["runs"].values()
        }) == 1
        for ladder in LADDERS
    }
    args.out.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""bdlab benchmark runner.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each operation is one bdlab CLI verb with ``--format json``, run in a fresh
child process (``perfbench/shim.py``) with the checkout's ``src`` on the
import path.  One child runs at a time: a closed loop with one client.
Operations come in rounds (one operation, or one pass over a grid); a new
round starts only while the rounds so far, plus one more of median length,
fit in S seconds; the first always runs.

Before any timing, both committed configs are enumerated and their element
count and universe fingerprint are compared with ``configs/expected.json``;
a mismatch exits with status 3 and prints no result.  Every operation's
outcome digest is compared with ``digests.json`` (see ``outcome_digest``).

``--trace 0`` reports the end-to-end metrics, medians over the run's
successful operations.  ``--trace 1`` runs each operation twice, untraced
then traced, and reports the per-layer metrics as medians over the traced
operations, plus the tracing overhead.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.  Human
readable lines above it give every metric with its unit and sample count,
the failed ratio, and the machine; the full result, with every sample, is
written to ``perfbench/.work/``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator, Optional

from tracer import LAYERS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / ".work"
SHIM = BENCH / "shim.py"
WIDE = "perfbench/configs/wide.json"
DEEP = "perfbench/configs/deep.json"

# A hung operation is killed and counted as failed.  A run starts no
# operation after its measuring window closes, so a run lasts at most about
# S + OP_TIMEOUT_S plus the config checks, inside the 180 s a run may take.
OP_TIMEOUT_S = 120.0

# Set-up time is sampled at least this many times per run.
MIN_SETUPS = 7


Op = tuple[str, list[str]]  # (digest key, CLI arguments)

CONSTRUCT_GRID: list[Op] = [
    (f"pair --count {count} --j {j}", ["pair", "--config", WIDE, "--count", str(count), "--j", str(j)])
    for count in (2, 4, 8)
    for j in (1, 2, 3)
] + [
    (
        f"depseq --j0 {j0}{weak} --length 1",
        ["depseq", "--config", WIDE, "--j0", str(j0), *weak.split(), "--length", "1"],
    )
    for j0 in (1, 2, 3)
    for weak in ("", " --weak")
]


# A workload yields rounds: lists of operations that a run executes whole, so
# a round's mix of cheap and costly operations is never cut short.


def verify_wide(seed: int) -> Iterator[list[Op]]:
    while True:
        yield [("verify", ["verify", "--config", WIDE, "--seed", str(seed)])]


def construct_wide(seed: int) -> Iterator[list[Op]]:
    # A round is one pass over the whole grid in a seed-shuffled order, so
    # every seed runs the same mix; only the order changes.
    rng = random.Random(seed)
    while True:
        order = list(CONSTRUCT_GRID)
        rng.shuffle(order)
        yield order


def enumerate_deep(seed: int) -> Iterator[list[Op]]:
    while True:
        yield [("enumerate", ["enumerate", "--config", DEEP, "--seed", str(seed)])]


WORKLOADS = {
    "verify-wide": verify_wide,
    "construct-wide": construct_wide,
    "enumerate-deep": enumerate_deep,
}

END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ops_per_s": "1/s",
}


# -- one operation -----------------------------------------------------------------


@dataclass
class OpResult:
    key: str
    traced: bool
    exit_code: Optional[int]
    wall_s: float
    cpu_s: float = 0.0
    peak_rss_mb: float = 0.0
    setup_s: Optional[float] = None
    output_bytes: int = 0
    digest: Optional[str] = None
    record: dict[str, Any] = field(default_factory=dict)
    ok: bool = False


def child_env() -> dict[str, str]:
    """The caller's environment without Python or bdlab settings.

    ``BDLAB_HORIZON`` would silently change every config; ``PYTHONPATH`` could
    shadow the checkout's ``src``.  The hash seed is pinned.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith(("PYTHON", "BDLAB_"))}
    env["PYTHONHASHSEED"] = "0"
    return env


def _kill(pid: int, timed_out: list[bool]) -> None:
    timed_out.append(True)
    try:
        os.kill(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_op(key: str, args: list[str], mode: str = "plain") -> OpResult:
    """Run one CLI verb in a child; time it from spawn to exit.

    ``mode`` is the shim's: ``plain``, ``trace``, or ``setup`` (stop once
    the first universe is built; no output, so no digest).
    """
    WORK.mkdir(exist_ok=True)
    record_path = WORK / "op-record.json"
    out_path = WORK / "op-stdout.json"
    err_path = WORK / "op-stderr.txt"
    record_path.unlink(missing_ok=True)
    argv = [sys.executable, str(SHIM), str(record_path), mode, *args, "--format", "json"]
    timed_out: list[bool] = []
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.monotonic()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=out, stderr=err)
        timer = threading.Timer(OP_TIMEOUT_S, _kill, (proc.pid, timed_out))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.monotonic() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
    result = OpResult(key, mode == "trace", proc.returncode, wall)
    result.cpu_s = usage.ru_utime + usage.ru_stime
    result.peak_rss_mb = usage.ru_maxrss / 1024.0  # Linux reports KiB
    if timed_out or not record_path.exists():
        return result
    record = json.loads(record_path.read_text(encoding="utf-8"))
    result.record = record
    if record["setup_done"] is not None:
        result.setup_s = record["setup_done"] - start
    output = out_path.read_bytes()
    result.output_bytes = len(output)
    if mode == "setup":
        return result
    try:
        payload = json.loads(output)
    except ValueError:
        return result
    result.digest = outcome_digest(proc.returncode, record["element_count"], record["fingerprint"], payload)
    return result


# -- correctness ------------------------------------------------------------------

# Left out of the digest: free text, which a rewording may change without
# changing the outcome, and the echo of the sampling seed, which the outcome
# does not depend on.
OMITTED_KEYS = frozenset({"detail", "witness", "notes", "seed"})


def _outcome(node: Any) -> Any:
    if isinstance(node, dict):
        return {k: _outcome(v) for k, v in node.items() if k not in OMITTED_KEYS}
    if isinstance(node, list):
        return [_outcome(v) for v in node]
    if isinstance(node, str) and any(ch.isspace() for ch in node):
        return "~"  # a name or sentence; statuses, rationals and hashes have no spaces
    return node


def outcome_digest(exit_code: int, element_count: Optional[int], fingerprint: Optional[str], payload: Any) -> str:
    """Hash of what an operation decided, without its wording.

    Covers the exit code, the element count and fingerprint of the universe
    the verb built (after any growth), and the JSON payload with free-text
    strings blanked: every status, clause kind, exact constant, id and count.
    """
    doc = {
        "exit_code": exit_code,
        "element_count": element_count,
        "fingerprint": fingerprint,
        "outcome": _outcome(payload),
    }
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_json(name: str) -> Any:
    return json.loads((BENCH / name).read_text(encoding="utf-8"))


def check_configs() -> Optional[str]:
    """Enumerate each committed config; None when all match their record."""
    for name, expected in load_json("configs/expected.json").items():
        result = run_op(name, ["enumerate", "--config", f"perfbench/configs/{name}"])
        got = {"element_count": result.record.get("element_count"), "fingerprint": result.record.get("fingerprint")}
        if result.exit_code != 0 or got != expected:
            return f"config {name} drifted: expected {expected}, got {got} (exit {result.exit_code})"
    return None


# -- metrics ------------------------------------------------------------------------


def _by_function(spans: list[dict[str, Any]]) -> dict[str, dict[str, float]]:
    out: dict[str, dict[str, float]] = {}
    for span in spans:
        agg = out.setdefault(span["name"], {"calls": 0, "incl_s": 0.0, "self_s": 0.0, "nnz": 0})
        for k in agg:
            agg[k] += span[k]
    return out


def layer_metrics(result: OpResult) -> dict[str, float]:
    """Per-layer figures of one traced operation."""
    spans = result.record["spans"]
    fn = _by_function(spans)

    def get(name: str, key: str) -> float:
        return fn.get(name, {}).get(key, 0)

    layer_self = {layer: 0.0 for layer in LAYERS}
    for name, agg in fn.items():
        layer_self[name.split(".", 1)[0]] += agg["self_s"]
    elements_after = result.record["element_count"] or 0
    swept = sum(s["calls"] for s in spans if s["name"] == "algebra.c_star" and s["caller"] == "algebra.synthesize")
    intern_calls = get("universe.intern", "calls")
    m: dict[str, float] = {f"{layer}.self_s": layer_self[layer] for layer in LAYERS}
    m.update(
        {
            "algebra.c_star.calls": get("algebra.c_star", "calls"),
            "algebra.c_star.self_s": get("algebra.c_star", "self_s"),
            "algebra.c_star.calls_per_element": get("algebra.c_star", "calls") / max(elements_after, 1),
            "algebra.synthesize.self_s": get("algebra.synthesize", "self_s"),
            "algebra.synthesize.visit_ratio": get("algebra.synthesize", "nnz") / swept if swept else 0.0,
            "algebra.to_d_basis.self_s": get("algebra.to_d_basis", "self_s"),
            "algebra.d_coords_of.self_s": get("algebra.d_coords_of", "self_s"),
            "shift.s_apply.calls": get("shift.s_apply", "calls"),
            "shift.s_apply.self_s": get("shift.s_apply", "self_s"),
            "shift.compact_witness.self_s": get("shift.compact_witness", "self_s"),
            "verify.run_gamma_suite.s": get("verify.run_gamma_suite", "incl_s"),
            "verify.run_functional_suite.s": get("verify.run_functional_suite", "incl_s"),
            "verify.run_shift_suite.s": get("verify.run_shift_suite", "incl_s"),
            "verify.run_sequence_suite.s": get("verify.run_sequence_suite", "incl_s"),
            "sequences.build_exact_pair.s": get("sequences.build_exact_pair", "incl_s"),
            "sequences.build_dependent_sequence.s": get("sequences.build_dependent_sequence", "incl_s"),
            "universe.build_universe.s": get("universe.build_universe", "incl_s"),
            "universe.intern.calls": intern_calls,
            "universe.intern.calls_after_build": intern_calls
            - result.record["calls_at_build"].get("universe.intern", 0),
            "universe.elements_after": elements_after,
            "universe.validate_candidate.self_s": get("universe.validate_candidate", "self_s"),
            "serialize.stable_json.s": get("serialize.stable_json", "incl_s"),
            "serialize.output_bytes": result.output_bytes,
        }
    )
    return m


def median_of_round_means(rounds: list[list[float]]) -> float:
    """Median over rounds of each round's mean; empty rounds are skipped.

    With one operation per round this is the median over operations.  Over a
    grid pass it avoids a median that jumps between the modes of a mix of
    cheap and costly operations.
    """
    return statistics.median(statistics.mean(values) for values in rounds if values)


def layer_unit(name: str) -> str:
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("ratio"):
        return "ratio"
    if name.endswith("calls_per_element"):
        return "calls/element"
    if name.endswith("output_bytes"):
        return "bytes"
    return "count"


def end_to_end_metrics(done: Run, setups: list[float]) -> dict[str, float]:
    ok_rounds = [[r for r in ops if r.ok] for ops in done.rounds]
    ok = [r for ops in ok_rounds for r in ops]
    return {
        "wall_s": median_of_round_means([[r.wall_s for r in ops] for ops in ok_rounds]),
        "cpu_s": median_of_round_means([[r.cpu_s for r in ops] for ops in ok_rounds]),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(r.peak_rss_mb for r in ok),
        # Completed operations per second of operation time: the mean, so a
        # slow tail that the medians hide still shows.  The benchmark's own
        # checking between operations is not counted.
        "ops_per_s": len(ok) / sum(r.wall_s for r in ok),
    }


def trace_metrics(done: Run) -> dict[str, float]:
    """Per-layer metrics: medians over rounds of per-operation means."""
    pair_rounds = done.ok_pairs_by_round()
    layer_rounds = [[layer_metrics(t) for _, t in pairs] for pairs in pair_rounds]
    names = next(per_op[0] for per_op in layer_rounds if per_op)
    metrics = {name: median_of_round_means([[m[name] for m in per_op] for per_op in layer_rounds]) for name in names}
    untraced = median_of_round_means([[u.wall_s for u, _ in pairs] for pairs in pair_rounds])
    traced = median_of_round_means([[t.wall_s for _, t in pairs] for pairs in pair_rounds])
    metrics["trace.overhead_s"] = traced - untraced
    metrics["trace.overhead_ratio"] = traced / untraced
    return metrics


def tail_percentile(values: list[float]) -> Optional[tuple[int, float]]:
    """The highest whole percentile with at least ten samples above it."""
    n = len(values)
    if n < 11:
        return None
    q = (100 * (n - 10)) // n
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return q, cuts[q - 1]


def machine_info() -> dict[str, Any]:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "cpu": cpu,
        "loadavg": list(os.getloadavg()),
    }


# -- the run --------------------------------------------------------------------------


@dataclass
class Run:
    rounds: list[list[OpResult]] = field(default_factory=list)  # untraced, as run
    traced_rounds: list[list[OpResult]] = field(default_factory=list)  # with --trace 1: repeats of rounds
    setup_probes: list[OpResult] = field(default_factory=list)

    def every(self) -> list[OpResult]:
        return [r for ops in self.rounds + self.traced_rounds for r in ops]

    def ok_pairs_by_round(self) -> list[list[tuple[OpResult, OpResult]]]:
        """(untraced, traced) runs of the same operation where both succeeded."""
        return [
            [(u, t) for u, t in zip(plain, traced) if u.ok and t.ok]
            for plain, traced in zip(self.rounds, self.traced_rounds)
        ]


def run(workload: str, seed: int, seconds: float, trace: bool) -> Run:
    digests = load_json("digests.json")[workload]
    out = Run()
    durations: list[float] = []
    rounds = WORKLOADS[workload](seed)
    started = time.monotonic()
    for ops in rounds:
        elapsed = time.monotonic() - started
        if durations and elapsed + statistics.median(durations) > seconds:
            break
        t0 = time.monotonic()
        plain: list[OpResult] = []
        traced: list[OpResult] = []
        for key, args in ops:
            plain.append(run_op(key, args))
            if trace:
                traced.append(run_op(key, args, "trace"))
        for r, (key, _) in zip(plain + traced, ops + ops):
            r.ok = r.digest is not None and r.digest == digests.get(key)
        durations.append(time.monotonic() - t0)
        out.rounds.append(plain)
        if trace:
            out.traced_rounds.append(traced)
    if not trace:
        # Long operations leave few set-up samples; top them up with runs
        # stopped right after set-up, so the median rests on MIN_SETUPS.
        key, args = next(rounds)[0]
        while sum(map(len, out.rounds)) + len(out.setup_probes) < MIN_SETUPS:
            out.setup_probes.append(run_op(key, args, "setup"))
    return out


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "bdlab" / "cli.py").is_file():
        print(f"error: no bdlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    machine = machine_info()
    print(
        f"machine: nproc={machine['nproc']} python={machine['python']} cpu={machine['cpu']!r} "
        f"loadavg={' '.join(f'{x:.2f}' for x in machine['loadavg'])}"
    )
    drift = check_configs()
    if drift is not None:
        print(f"error: {drift}", file=sys.stderr)
        return 3

    done = run(args.workload, args.seed, args.seconds, bool(args.trace))
    every = done.every()
    failed = [r for r in every if not r.ok]
    print(
        f"{args.workload} seed {args.seed}: {len(every)} operations attempted in {len(done.rounds)} rounds, "
        f"{len(failed)} failed, failed_ratio {len(failed) / len(every):.4f} ratio"
    )
    for r in failed:
        print(f"  failed: {r.key}{' (traced)' if r.traced else ''}: exit {r.exit_code}, digest {r.digest}")
    ok = [r for r in every if r.ok and not r.traced]
    if not ok or (args.trace and not any(done.ok_pairs_by_round())):
        print("error: no operation succeeded", file=sys.stderr)
        return 1
    if args.trace:
        metrics = trace_metrics(done)
        units = {name: layer_unit(name) for name in metrics}
        how = {name: "median over rounds of per-operation means" for name in metrics}
        tails: dict[str, list[float]] = {}
    else:
        setups = [r.setup_s for r in ok + done.setup_probes if r.exit_code == 0 and r.setup_s is not None]
        metrics = end_to_end_metrics(done, setups)
        units = END_TO_END
        how = {
            "wall_s": "median over rounds of per-operation means",
            "cpu_s": "median over rounds of per-operation means",
            "setup_s": f"median of {len(setups)} samples",
            "peak_rss_mb": f"median of {len(ok)} operations",
            "ops_per_s": f"mean over {len(ok)} operations",
        }
        tails = {"wall_s": [r.wall_s for r in ok], "cpu_s": [r.cpu_s for r in ok], "setup_s": setups}
    for name, value in metrics.items():
        line = f"  {name} = {value:.6g} {units[name]} ({how[name]})"
        tail = tail_percentile(tails.get(name, []))
        if tail is not None:
            line += f"; per operation p{tail[0]} = {tail[1]:.6g}"
        print(line)

    result = {
        "correct": not failed,
        "attempted": len(every),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    WORK.mkdir(exist_ok=True)
    detail = {
        **result,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine,
        "operations": [
            {k: getattr(r, k) for k in ("key", "traced", "exit_code", "wall_s", "cpu_s", "setup_s", "peak_rss_mb", "ok")}
            for r in every
        ],
        "setup_probes_s": [r.setup_s for r in done.setup_probes],
    }
    (WORK / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1), encoding="utf-8"
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

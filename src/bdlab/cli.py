"""Command-line interface.

Verbs:

* ``enumerate`` -- materialize the coded index set for a configuration and
  print it (text dump or structured JSON);
* ``verify``    -- run the verification suites against a fresh universe;
* ``pair``      -- construct a calibrated pair over helper vectors and print
  its certificate;
* ``depseq``    -- build a linked chain over fresh helper pairs and print
  its certificate;
* ``report``    -- everything above in one document.

Exit status: 1 when a verification suite reports FAIL, an identity clause
of a certificate fails or an exact identity is violated, 2 for unusable
configurations or unsatisfiable construction requests, else 0.  All numeric
output is exact rational text; reports are byte-identical across reruns
unless ``--timing`` is given.
"""
from __future__ import annotations

import argparse
import gc
import sys
from typing import Any, Callable, Optional

from .config import (
    ConfigError,
    ConstructionConfig,
    desk_relaxed,
    desk_strict,
    load_config_file,
)
from .elements import BASE, TYPE1
from .sequences import (
    FAIL,
    PASS,
    ConstructionFailure,
    build_dependent_sequence,
    build_exact_pair,
    helper_pair_parts,
)
from .serialize import format_rational, stable_json, stable_json_with
from .universe import InvariantFault, Universe, UniverseError, build_universe
from .verify import run_verification

BUNDLED = {"desk-strict": desk_strict, "desk-relaxed": desk_relaxed}


def resolve_config(name_or_path: str) -> ConstructionConfig:
    """The config of a bundled fixture name or of a JSON config path."""
    factory = BUNDLED.get(name_or_path)
    return load_config_file(name_or_path) if factory is None else factory()


def _emit(args: argparse.Namespace, payload: dict[str, Any] | str, lines: list[str]) -> None:
    """Write the JSON ``payload`` (or its canonical text) or the text lines
    to ``--out`` or stdout."""
    if args.format == "json":
        text = payload if isinstance(payload, str) else stable_json(payload)
    else:
        text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _element_records(universe: Universe) -> str:
    """The canonical JSON text of the ``elements`` array: one template per
    shape, keys in sorted order, integers through ``:d`` (see ``serialize``)."""
    sigma, image_of = universe.sigma, universe.f_image_of
    texts: dict[int, str] = {}  # b text by id(b), for this call only
    records = []
    for kind, rank, index, p, xi, widx, b, gid, age in universe.elements:
        b_text = texts.get(id(b))
        if b_text is None:
            b_text = texts[id(b)] = stable_json({str(g): format_rational(c) for g, c in b.terms})[:-1]
        image = image_of(gid)
        image = "null" if image is None else f"{image:d}"
        if kind == BASE:
            records.append(f'{{"age":{age:d},"b":{b_text},"id":{gid:d},"image":{image},"index":{index:d},'
                           f'"kind":"base","rank":{rank:d},"sigma":{sigma(gid):d},"weight_index":{widx:d}}}')
        elif kind == TYPE1:
            records.append(f'{{"age":{age:d},"b":{b_text},"id":{gid:d},"image":{image},"kind":"t1",'
                           f'"p":{p:d},"rank":{rank:d},"sigma":{sigma(gid):d},"weight_index":{widx:d}}}')
        else:
            records.append(f'{{"age":{age:d},"b":{b_text},"id":{gid:d},"image":{image},"kind":"t2",'
                           f'"rank":{rank:d},"sigma":{sigma(gid):d},"weight_index":{widx:d},"xi":{xi:d}}}')
    return "[" + ",".join(records) + "]"


def _clause_lines(clauses: Any) -> list[str]:
    lines = []
    for c in clauses:
        body = c.name
        if c.lhs or c.rhs:
            body += f": {c.lhs or '0'} vs {c.rhs or '0'}"
        if c.margin:
            body += f" (margin {c.margin})"
        if c.witness:
            body += f" -- {c.witness}"
        lines.append(f"  [{c.status}] {body}")
    return lines


# -- verbs ------------------------------------------------------------------------


def cmd_enumerate(args: argparse.Namespace) -> int:
    cfg = resolve_config(args.config)
    universe = build_universe(cfg)
    if args.format != "json":
        _emit(args, {}, universe.dump_lines())
        return 0
    payload = {
        "schema": "bdlab.enumerate/1",
        "config": cfg.to_json_dict(),
        "element_count": len(universe),
        "level_counts": {str(r): c for r, c in universe.level_counts().items()},
        "fingerprint": universe.fingerprint(),
        "notes": list(cfg.notes),
    }
    _emit(args, stable_json_with(payload, {"elements": _element_records(universe)}), [])
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    cfg = resolve_config(args.config)
    suites = [s.strip() for s in args.suites.split(",")] if args.suites else None
    report = run_verification(cfg, suites=suites, timings=args.timing)
    _emit(args, report.to_json_dict(), report.text_lines())
    return 1 if report.has_fail else 0


def cmd_pair(args: argparse.Namespace) -> int:
    cfg = resolve_config(args.config)
    universe = build_universe(cfg)
    xs, cuts, bs = helper_pair_parts(universe, args.count)
    built = build_exact_pair(universe, xs, cuts, bs, args.j)
    minimal = built.report.minimal_constant
    payload = {
        "schema": "bdlab.pair/1",
        "config": cfg.to_json_dict(),
        "construction": built.to_json_dict(),
        "minimal_constant": format_rational(minimal),
        "certifies_at_minimal": built.report.identity_ok,
        "interned_below_top": universe.interior_interns,
    }
    lines = [
        f"pair element: {built.eta}",
        f"chain: {' '.join(str(g) for g in built.chain)}",
        f"cuts: {' '.join(str(q) for q in built.cuts)}",
        f"scale: {format_rational(built.scale)}",
        "identity clauses:",
        *_clause_lines(built.clauses),
        f"report at constant {format_rational(built.report.constant)}:",
        *_clause_lines(built.report.clauses),
        f"minimal certifying constant: {format_rational(minimal)}",
        f"result: {PASS if built.identity_ok else FAIL}",
    ]
    _emit(args, payload, lines)
    return 0 if built.identity_ok else 1


def cmd_depseq(args: argparse.Namespace) -> int:
    cfg = resolve_config(args.config)
    universe = build_universe(cfg)
    cert = build_dependent_sequence(universe, j0=args.j0, length=args.length, weak=args.weak)
    payload = {
        "schema": "bdlab.depseq/1",
        "config": cfg.to_json_dict(),
        "certificate": cert.to_json_dict(),
    }
    lines = [
        f"chain elements: {' '.join(str(g) for g in cert.xi_chain)}",
        f"carried elements: {' '.join(str(g) for g in cert.eta_seq)}",
        f"weight indices: {' '.join(str(w) for w in cert.weight_indices)}",
        f"cuts: {' '.join(str(p) for p in cert.p_seq)}",
        f"constant: {format_rational(cert.constant)}",
        "clauses:",
        *_clause_lines(cert.clauses),
    ]
    for i, report in enumerate(cert.pair_reports, start=1):
        lines.append(f"pair {i} report:")
        lines.extend(_clause_lines(report.clauses))
    lines.append(f"result: {PASS if cert.identity_ok else FAIL}")
    _emit(args, payload, lines)
    return 0 if cert.identity_ok else 1


def cmd_report(args: argparse.Namespace) -> int:
    cfg = resolve_config(args.config)
    verification = run_verification(cfg, timings=args.timing)

    def attempt(construct: Callable[[Universe], Any]) -> tuple[bool, dict[str, Any]]:
        """Run a construction on a fresh universe; a refusal is recorded."""
        try:
            built = construct(build_universe(cfg))
        except ConstructionFailure as err:
            return True, {"unsatisfiable": err.clause, "detail": err.detail}
        return built.identity_ok, built.to_json_dict()

    pair_ok, pair_json = attempt(lambda u: build_exact_pair(u, *helper_pair_parts(u, 2), 1))
    chain_ok, chain_json = attempt(lambda u: build_dependent_sequence(u, j0=1, length=1))

    failed = verification.has_fail or not pair_ok or not chain_ok
    payload = {
        "schema": "bdlab.report/1",
        "config": cfg.to_json_dict(),
        "verification": verification.to_json_dict(),
        "pair": pair_json,
        "chain": chain_json,
        "result": FAIL if failed else PASS,
    }
    lines = verification.text_lines()
    lines.append(f"pair construction: {PASS if pair_ok else FAIL}")
    lines.append(f"chain construction: {PASS if chain_ok else FAIL}")
    lines.append(f"overall: {FAIL if failed else PASS}")
    _emit(args, payload, lines)
    return 1 if failed else 0


# -- parser -----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bdlab",
        description="exact finite laboratory for coded index sets and their operators",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--config",
            default="desk-strict",
            help="bundled fixture name (desk-strict, desk-relaxed) or JSON path",
        )
        p.add_argument("--out", default=None, help="write output to this file")
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--seed", type=int, default=0, help="ignored: no check is sampled")
        p.add_argument(
            "--timing", action="store_true", help="include wall-clock timings (breaks byte-identical reruns)"
        )

    p_enum = sub.add_parser("enumerate", help="materialize and print the index set")
    common(p_enum)
    p_enum.set_defaults(func=cmd_enumerate)

    p_verify = sub.add_parser("verify", help="run verification suites")
    common(p_verify)
    p_verify.add_argument(
        "--suites",
        default=None,
        help="comma-separated subset of gamma,functional,shift,sequence",
    )
    p_verify.set_defaults(func=cmd_verify)

    p_pair = sub.add_parser("pair", help="construct a calibrated pair certificate")
    common(p_pair)
    p_pair.add_argument("--count", type=int, default=2, help="number of helper vectors")
    p_pair.add_argument("--j", type=int, default=1, help="half the even weight index")
    p_pair.set_defaults(func=cmd_pair)

    p_chain = sub.add_parser("depseq", help="build a linked chain certificate")
    common(p_chain)
    p_chain.add_argument("--j0", type=int, default=1, help="half of (odd weight index + 1)")
    p_chain.add_argument("--length", type=int, default=1, help="chain length")
    p_chain.add_argument("--weak", action="store_true", help="use the weak pair conditions")
    p_chain.set_defaults(func=cmd_depseq)

    p_report = sub.add_parser("report", help="full verification + construction document")
    common(p_report)
    p_report.set_defaults(func=cmd_report)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    """Run one verb with the cyclic collector paused.

    A universe and its coding rows hold no reference cycles, so reference
    counting frees all of it and the collector would only walk live data:
    during the build, during output and again at interpreter shutdown.  On
    every exit the objects still alive are frozen out of later collections,
    and the caller's collector state is restored.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        args = build_parser().parse_args(argv)
        # The parser is cyclic garbage now, all of it in the youngest
        # generation; free it before the freeze below would keep it.
        gc.collect(0)
        return _run(args)
    finally:
        gc.freeze()
        if enabled:
            gc.enable()


def _run(args: argparse.Namespace) -> int:
    try:
        return args.func(args)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except ConstructionFailure as err:
        print(f"unsatisfiable request ({err.clause}): {err.detail}", file=sys.stderr)
        return 2
    except InvariantFault as err:
        print(f"identity violation: {err}", file=sys.stderr)
        return 1
    except UniverseError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except OSError as err:
        print(f"i/o error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())

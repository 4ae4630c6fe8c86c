from __future__ import annotations

import gc
import io
import json
import os
import shutil
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, event, given, settings
from hypothesis import strategies as st

import bdlab
from bdlab.cli import _element_records, main, resolve_config
from bdlab.config import ConfigError, config_from_dict, desk_relaxed, desk_strict
from bdlab.serialize import stable_json
from bdlab.universe import build_universe
from conftest import DELETE, micro_config, with_field
from oracles import element_record

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture()
def micro_path(tmp_path):
    path = tmp_path / "micro.json"
    path.write_text(stable_json(micro_config(horizon=3).to_json_dict()))
    return str(path)


@pytest.fixture()
def failing_path(tmp_path):
    path = tmp_path / "tiny-cap.json"
    path.write_text(stable_json(micro_config(horizon=3, level_cap=1).to_json_dict()))
    return str(path)


def run_cli(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_enumerate_text_dump(capsys, micro_path):
    code, out, _ = run_cli(capsys, "enumerate", "--config", micro_path)
    assert code == 0
    assert out.splitlines()[0] == "# bdlab universe dump v1"


def test_enumerate_json_payload(capsys, micro_path):
    code, out, _ = run_cli(
        capsys, "enumerate", "--config", micro_path, "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == "bdlab.enumerate/1"
    assert payload["element_count"] == 46
    assert len(payload["elements"]) == 46
    base = payload["elements"][0]
    assert base["kind"] == "base" and base["rank"] == 1 and base["sigma"] == 2


def test_json_output_is_byte_identical_across_runs(capsys, micro_path):
    _, first, _ = run_cli(capsys, "verify", "--config", micro_path, "--format", "json")
    _, second, _ = run_cli(capsys, "verify", "--config", micro_path, "--format", "json")
    assert first == second


def test_verify_strict_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "--config", "desk-strict")
    assert code == 0
    assert out.rstrip().splitlines()[-1] == "result: PASS"


def test_verify_reports_failure_with_exit_1(capsys, failing_path):
    code, out, _ = run_cli(capsys, "verify", "--config", failing_path)
    assert code == 1
    assert out.rstrip().splitlines()[-1] == "result: FAIL"


def exit_case(case: str, micro_path: str, failing_path: str) -> list[str]:
    return {
        "exit-0": ["enumerate", "--config", micro_path],
        "exit-1": ["verify", "--config", failing_path],
        "exit-2": ["verify", "--config", micro_path + ".missing"],
        "raises": ["enumerate", "--config", micro_path],
    }[case]


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("case", ["exit-0", "exit-1", "exit-2", "raises"])
def test_main_restores_the_collector_state(case, enabled, micro_path, failing_path, monkeypatch):
    # main pauses the cyclic collector for the verb; whatever the exit, the
    # caller gets back the state it had.
    argv = exit_case(case, micro_path, failing_path)
    if case == "raises":
        monkeypatch.setattr(bdlab.cli, "cmd_enumerate", lambda args: 1 / 0)
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            if case == "raises":
                with pytest.raises(ZeroDivisionError):
                    main(argv)
            else:
                assert main(argv) == int(case[-1])
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()


@pytest.mark.parametrize("case", ["exit-0", "exit-1", "exit-2"])
def test_main_leaves_no_cyclic_garbage(case, micro_path, failing_path):
    # main freezes what is alive when it returns, so cyclic garbage it left
    # would stay in the permanent generation until an unfreeze.
    argv = exit_case(case, micro_path, failing_path)
    gc.collect()
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        code = main(argv)
    gc.unfreeze()
    assert (code, gc.collect()) == (int(case[-1]), 0)


def test_verify_suites_filter(capsys, micro_path):
    code, out, _ = run_cli(
        capsys,
        "verify",
        "--config",
        micro_path,
        "--suites",
        "functional,gamma",
        "--format",
        "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert [s["name"] for s in payload["suites"]] == ["gamma", "functional"]


def test_verify_unknown_suite_exits_2(capsys, micro_path):
    code, _, err = run_cli(
        capsys, "verify", "--config", micro_path, "--suites", "bogus"
    )
    assert code == 2
    assert "unknown suites: bogus" in err


def test_verify_empty_suite_entry_is_named(capsys, micro_path):
    code, _, err = run_cli(
        capsys, "verify", "--config", micro_path, "--suites", "gamma,,shift"
    )
    assert code == 2
    assert err == "error: unknown suites: ''\n"


def test_seed_changes_no_output_byte(capsys):
    # No check is sampled: --seed is accepted by every verb and ignored.
    runs = [("verify", "text"), ("verify", "json"), ("report", "text"), ("report", "json"),
            ("enumerate", "json"), ("pair", "json"), ("depseq", "json")]
    for verb, fmt in runs:
        outputs = {
            run_cli(capsys, verb, "--config", "desk-strict", "--format", fmt, "--seed", seed)
            for seed in ("0", "1", "7")
        }
        assert len(outputs) == 1, (verb, fmt)
        [(code, out, err)] = outputs
        assert code == 0 and out and not err, (verb, fmt)


def test_missing_config_exits_2(capsys):
    code, _, err = run_cli(capsys, "verify", "--config", "/no/such/file.json")
    assert code == 2
    assert "error" in err


def test_malformed_config_exits_2(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{\"k\": 3}\n")
    code, _, err = run_cli(capsys, "verify", "--config", str(path))
    assert code == 2
    assert "config error" in err


def test_non_utf8_config_exits_2(capsys, tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes('{"regime": "stri\u00e7t"}'.encode("latin-1"))
    code, _, err = run_cli(capsys, "enumerate", "--config", str(path))
    assert code == 2
    assert err.startswith("config error: invalid config JSON") and err.count("\n") == 1


DESKS = {"desk-strict": desk_strict().to_json_dict(), "desk-relaxed": desk_relaxed().to_json_dict()}

# One field of a desk document, as a key path; "m"/"n" with an index name an entry.
FIELDS = [
    ("k",),
    ("m",),
    ("m", 0),
    ("n",),
    ("n", 1),
    ("horizon",),
    ("net",),
    ("net", "max_support"),
    ("net", "denominator_bound"),
    ("net", "level_cap"),
    ("regime",),
    ("max_elements",),
]

JSON_VALUES = st.one_of(
    st.just(DELETE),
    st.none(),
    st.booleans(),
    st.integers(min_value=-2, max_value=5),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from(["", "abc", "3", "33/2", "4/2", "4.5", "1/0", "-1", "relaxed"]),
    st.lists(st.integers(min_value=-2, max_value=5), max_size=3),
    st.dictionaries(st.sampled_from(["level_cap", "x"]), st.integers(0, 3), max_size=2),
)


@settings(
    max_examples=200,
    derandomize=True,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
@given(desk=st.sampled_from(sorted(DESKS)), field=st.sampled_from(FIELDS), value=JSON_VALUES)
def test_single_field_mutations_keep_the_exit_contract(desk, field, value, tmp_path, monkeypatch):
    monkeypatch.delenv("BDLAB_HORIZON", raising=False)
    doc = with_field(DESKS[desk], field, value)
    try:
        cfg = config_from_dict(doc)
    except ConfigError:
        cfg = None
    # An uncapped desk-relaxed universe is a valid request that the element
    # budget refuses only after a level's worth of work (about 0.3 s); the
    # budget tests in test_universe.py cover it, and it says nothing more
    # about the exit contract.
    assume(cfg is None or cfg.level_cap or desk == "desk-strict")
    path = tmp_path / "mutated.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["enumerate", "--config", str(path)])
    event(f"exit {code}")
    assert code in (0, 1, 2)
    if code == 2:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1
        # the element budget is the one limit only a build can find
        assert lines[0].startswith(("config error: ", "error: element budget exceeded"))


NET_KEYS = ["max_support", "denominator_bound", "level_cap"]

JSON_LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-3, max_value=6),
    st.integers(),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=4),
    st.sampled_from(["4", "16", "4/2", "33/2", "relaxed", "strict"]),
)

JSON_VALUES_ANY = st.recursive(
    JSON_LEAVES,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(NET_KEYS) | st.text(max_size=4), inner, max_size=4),
    max_leaves=8,
)

# Arbitrary JSON documents, half of them objects that hold the required keys
# (and any optional ones) with any JSON value, so that documents reach past
# the first missing key and exercise every field's reader.
JSON_DOCUMENTS = JSON_VALUES_ANY | st.fixed_dictionaries(
    {key: JSON_VALUES_ANY for key in ("k", "m", "n", "horizon")},
    optional={
        "net": st.fixed_dictionaries({}, optional={key: JSON_VALUES_ANY for key in NET_KEYS}),
        "regime": JSON_VALUES_ANY,
        "max_elements": JSON_VALUES_ANY,
    },
)


@settings(
    max_examples=100,
    derandomize=True,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
@given(doc=JSON_DOCUMENTS)
def test_arbitrary_json_documents_keep_the_exit_contract(doc, tmp_path, monkeypatch):
    monkeypatch.delenv("BDLAB_HORIZON", raising=False)
    path = tmp_path / "arbitrary.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["enumerate", "--config", str(path)])
    event(f"exit {code}: {err.getvalue()[:40]}")
    assert code in (0, 1, 2)
    if code == 2:
        assert len(err.getvalue().splitlines()) == 1


@pytest.mark.parametrize("value", ["1_0", "\u0661\u0660"])
def test_underscored_or_non_ascii_numeral_exits_2(value, capsys, tmp_path):
    doc = with_field(desk_strict().to_json_dict(), ("horizon",), value)
    path = tmp_path / "numeral.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run_cli(capsys, "enumerate", "--config", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("config error: malformed config value")


@pytest.mark.parametrize("value", ["1_0", "\u0661\u0660"])
def test_underscored_or_non_ascii_horizon_override_exits_2(value, capsys, monkeypatch):
    monkeypatch.setenv("BDLAB_HORIZON", value)
    code, out, err = run_cli(capsys, "enumerate", "--config", "desk-strict")
    assert (code, out) == (2, "")
    assert "BDLAB_HORIZON must be an integer" in err


def test_unknown_net_key_exits_2(capsys, tmp_path):
    doc = with_field(desk_strict().to_json_dict(), ("net", "level_cpa"), 4)
    path = tmp_path / "typo.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run_cli(capsys, "enumerate", "--config", str(path))
    assert (code, out) == (2, "")
    assert err == "config error: unknown config keys: 'net.level_cpa'\n"


def test_timing_is_opt_in(capsys, micro_path):
    _, plain, _ = run_cli(capsys, "verify", "--config", micro_path, "--format", "json")
    _, timed, _ = run_cli(
        capsys, "verify", "--config", micro_path, "--format", "json", "--timing"
    )
    assert "timings" not in json.loads(plain)
    assert set(json.loads(timed)["timings"]) == {"gamma", "functional", "shift", "sequence"}


def test_horizon_env_override(capsys, monkeypatch):
    monkeypatch.setenv("BDLAB_HORIZON", "3")
    code, out, _ = run_cli(
        capsys, "enumerate", "--config", "desk-strict", "--format", "json"
    )
    assert code == 0
    assert json.loads(out)["element_count"] == 34  # levels 3+7+24

    monkeypatch.setenv("BDLAB_HORIZON", "soon")
    code, _, err = run_cli(capsys, "enumerate", "--config", "desk-strict")
    assert code == 2
    assert "BDLAB_HORIZON must be an integer" in err


def test_out_writes_file_instead_of_stdout(capsys, micro_path, tmp_path):
    target = tmp_path / "dump.json"
    code, out, _ = run_cli(
        capsys,
        "enumerate",
        "--config",
        micro_path,
        "--format",
        "json",
        "--out",
        str(target),
    )
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["schema"] == "bdlab.enumerate/1"


@pytest.mark.parametrize("config", ["micro", "desk-relaxed"])
def test_out_file_holds_the_stdout_bytes(capsys, micro_path, tmp_path, monkeypatch, config):
    monkeypatch.delenv("BDLAB_HORIZON", raising=False)
    argv = ["enumerate", "--config", micro_path if config == "micro" else config, "--format", "json"]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    target = tmp_path / "dump.json"
    code, rest, _ = run_cli(capsys, *argv, "--out", str(target))
    assert code == 0 and rest == ""
    assert target.read_bytes() == out.encode("utf-8")


ENUMERATE_CONFIGS = {
    "micro": lambda: micro_config(horizon=3),
    "desk-strict": desk_strict,
    "desk-relaxed": desk_relaxed,
    "wide.json": lambda: resolve_config(str(ROOT / "perfbench" / "configs" / "wide.json")),
}


@pytest.mark.parametrize("name", ENUMERATE_CONFIGS)
def test_element_records_match_the_dict_reference(name, capsys, tmp_path, monkeypatch):
    monkeypatch.delenv("BDLAB_HORIZON", raising=False)
    cfg = ENUMERATE_CONFIGS[name]()
    universe = build_universe(cfg)
    records = [element_record(universe, el) for el in universe.elements]
    assert any(r["image"] is None for r in records)
    kinds = {r["kind"] for r in records}
    assert kinds == ({"base", "t1"} if name == "micro" else {"base", "t1", "t2"})
    assert _element_records(universe) == stable_json(records)[:-1]

    path = tmp_path / "config.json"
    path.write_text(stable_json(cfg.to_json_dict()))
    code, out, _ = run_cli(capsys, "enumerate", "--config", str(path), "--format", "json")
    assert code == 0
    assert out == stable_json({
        "schema": "bdlab.enumerate/1",
        "config": cfg.to_json_dict(),
        "element_count": len(universe),
        "level_counts": {str(r): c for r, c in universe.level_counts().items()},
        "fingerprint": universe.fingerprint(),
        "elements": records,
        "notes": list(cfg.notes),
    })


def _raised(call) -> type:
    with pytest.raises((TypeError, ValueError)) as info:
        call()
    return info.type


@pytest.mark.parametrize("value, error", [(1.5, ValueError), (Fraction(1, 2), TypeError)])
@pytest.mark.parametrize("field", ["rank", "anchor", "weight_idx", "age", "sigma", "image"])
def test_element_records_refuse_what_stable_json_refuses(field, value, error):
    """A non-integer in an integer field raises the class ``stable_json``
    raises on the dict record, in every shape: no field is truncated."""
    for kind in ("base", "t1", "t2"):
        universe = build_universe(desk_strict())
        el = next(e for e in universe.elements if e.kind == kind)
        if field == "sigma":
            universe._sigma[el.gid] = value
        elif field == "image":
            universe._f_image[el.gid] = value
        else:
            name = {"base": "index", "t1": "p", "t2": "xi"}[kind] if field == "anchor" else field
            universe.elements[el.gid] = el._replace(**{name: value})
        records = [element_record(universe, e) for e in universe.elements]
        assert _raised(lambda: _element_records(universe)) is _raised(lambda: stable_json(records)) is error


def test_pair_certificate(capsys):
    code, out, _ = run_cli(
        capsys, "pair", "--config", "desk-strict", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == "bdlab.pair/1"
    assert payload["certifies_at_minimal"] is True
    construction = payload["construction"]
    assert all(c["status"] == "PASS" for c in construction["clauses"])
    assert construction["pair_report"]["certifies"] is True


def test_pair_text_lines(capsys):
    code, out, _ = run_cli(capsys, "pair", "--config", "desk-strict", "--count", "1")
    assert code == 0
    lines = out.rstrip().splitlines()
    assert lines[-1] == "result: PASS"
    assert any(line.startswith("minimal certifying constant:") for line in lines)


def test_depseq_certificate(capsys):
    code, out, _ = run_cli(
        capsys, "depseq", "--config", "desk-strict", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == "bdlab.depseq/1"
    certificate = payload["certificate"]
    assert certificate["xi_chain"] and certificate["eta_seq"]
    identity = [c for c in certificate["clauses"] if c["kind"] == "identity"]
    assert identity and all(c["status"] == "PASS" for c in identity)


def test_report_document(capsys):
    code, out, _ = run_cli(
        capsys, "report", "--config", "desk-strict", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == "bdlab.report/1"
    assert payload["result"] == "PASS"
    assert payload["verification"]["result"] == "PASS"
    assert payload["pair"]["pair_report"]["certifies"] is True
    assert "unsatisfiable" not in payload["chain"]
    assert payload["chain"]["xi_chain"]


def test_one_weight_config_keeps_the_exit_contract(capsys, tmp_path, monkeypatch):
    # With one weight there is no weight index 2 for the lower-bound
    # diagnostics or the helper pair: the sequence suite grades the refusal,
    # and report records the pair as unsatisfiable instead of raising.
    monkeypatch.delenv("BDLAB_HORIZON", raising=False)
    cfg = micro_config(horizon=4, m_seq=(4,), n_seq=(16,), level_cap=6)
    path = tmp_path / "one-weight.json"
    path.write_text(stable_json(cfg.to_json_dict()))
    code, out, _ = run_cli(capsys, "verify", "--config", str(path))
    assert code == 1
    refusal = "weight cap: weight index 2 outside configured 1..1"
    assert f"  [FAIL] inequality diagnostics -- {refusal}" in out.splitlines()
    code, out, _ = run_cli(capsys, "report", "--config", str(path), "--format", "json")
    assert code == 1
    doc = json.loads(out)
    assert doc["pair"] == {
        "unsatisfiable": "helper admissibility",
        "detail": "weight cap: weight index 2 beyond configured sequence",
    }
    assert doc["result"] == "FAIL"


def test_importing_the_cli_loads_no_dataclasses():
    # Records are named tuples: generating dataclasses at import time would
    # add to the set-up of every verb.  -S keeps site start-up hooks out.
    env = dict(os.environ)
    source_root = str(Path(bdlab.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (source_root, env.get("PYTHONPATH")) if p
    )
    code = "import sys, bdlab.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, env=env, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_importing_the_cli_compiles_no_record_annotation():
    # typing.NamedTuple turns a string field annotation into a ForwardRef,
    # which compiles the string, so the modules that define records do not
    # postpone annotations.  Compiling a module's own source file (where no
    # bytecode is cached) is not counted.  -S keeps site start-up hooks out.
    env = dict(os.environ)
    source_root = str(Path(bdlab.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (source_root, env.get("PYTHONPATH")) if p
    )
    code = (
        "import builtins\n"
        "compile_, calls = builtins.compile, []\n"
        "def counted(source, filename, *args, **kwargs):\n"
        "    calls.append(str(filename))\n"
        "    return compile_(source, filename, *args, **kwargs)\n"
        "builtins.compile = counted\n"
        "import bdlab.cli\n"
        "print([f for f in calls if not f.endswith('.py')])\n"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, env=env, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_importing_the_cli_loads_no_random():
    # No check draws from a generator, so no verb pays for importing one.
    # -I ignores PYTHONPATH and the user site; -S keeps site start-up hooks out.
    source_root = str(Path(bdlab.__file__).resolve().parents[1])
    code = (
        f"import sys; sys.path.insert(0, {source_root!r}); import bdlab.cli; "
        "print('random' in sys.modules)"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-I", "-c", code], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_console_script_is_installed(micro_path):
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text())["project"].get("scripts", {})
    assert "bdlab" in scripts, "[project.scripts] does not declare bdlab"
    module, _, function = scripts["bdlab"].partition(":")
    assert module and function, f"entry point {scripts['bdlab']!r} is not module:function"

    # Run the entry point the way a generated console-script wrapper does,
    # against the bdlab package this test suite imports.
    argv = ["enumerate", "--config", micro_path, "--format", "json"]
    env = dict(os.environ)
    source_root = str(Path(bdlab.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (source_root, env.get("PYTHONPATH")) if p
    )
    wrapper = f"import sys; from {module} import {function}; sys.exit({function}())"
    proc = subprocess.run(
        [sys.executable, "-c", wrapper, *argv], capture_output=True, env=env
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert json.loads(proc.stdout)["schema"] == "bdlab.enumerate/1"

    # Where the package is installed, the executable on PATH must agree.
    exe = shutil.which("bdlab")
    if exe:
        installed = subprocess.run([exe, *argv], capture_output=True)
        assert installed.returncode == 0, installed.stderr.decode()
        assert installed.stdout == proc.stdout

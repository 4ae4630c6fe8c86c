from __future__ import annotations

from fractions import Fraction
from pathlib import Path

import pytest

from bdlab.config import (
    ConfigError,
    RELAXED,
    STRICT,
    config_from_dict,
    desk_relaxed,
    desk_strict,
    exact_log2,
    load_config_file,
    make_config,
    validate_config,
    with_env_horizon,
)
from conftest import with_field

# Hand-computed growth ladder for the strict fixture:
#   m doubles its exponent each step, n[j+1] = (16 n[j]) ** log2(m[j+1]).
STRICT_N = (16, 2**32, 2**288, 2**4672)

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def test_strict_fixture_matches_hand_ladder():
    cfg = desk_strict()
    assert cfg.k == 3
    assert cfg.m_seq == (4, 16, 256, 65536)
    assert cfg.n_seq == STRICT_N
    assert cfg.regime == STRICT
    assert cfg.notes == ()


def test_relaxed_fixture_records_concessions_instead_of_raising():
    cfg = desk_relaxed()
    assert cfg.regime == RELAXED
    # the small n ladder cannot satisfy the growth rule
    assert any("relaxed regime drops" in note for note in cfg.notes)


def test_weight_accessors_are_one_indexed():
    cfg = desk_strict()
    assert cfg.m(1) == 4
    assert cfg.weight(1) == Fraction(1, 4)
    assert cfg.n(2) == 2**32
    assert cfg.num_weights == 4


@pytest.mark.parametrize("j", [0, -1, 5])
def test_ladder_accessors_refuse_an_index_outside_the_ladder(j):
    # below 1 the index used to wrap: m(0) read the last rung, 65536
    cfg = desk_strict()
    for accessor in (cfg.m, cfg.n, cfg.weight):
        with pytest.raises(IndexError):
            accessor(j)


def test_strict_regime_rejects_broken_ladder():
    with pytest.raises(ConfigError, match="strict regime violated"):
        make_config(
            k=3,
            m_seq=(4, 16),
            n_seq=(16, 100),  # 100 < (16*16)^4
            horizon=2,
            regime=STRICT,
        )


def test_relaxed_regime_keeps_broken_ladder_with_note():
    cfg = make_config(k=3, m_seq=(4, 16), n_seq=(16, 100), horizon=2, regime=RELAXED)
    assert any("n[2]" in note for note in cfg.notes)


@pytest.mark.parametrize(
    "kwargs, message",
    [
        (dict(k=1, m_seq=(4,), n_seq=(16,), horizon=2), "k must be at least 2"),
        (dict(k=2, m_seq=(4,), n_seq=(16,), horizon=0), "horizon must be at least 1"),
        (dict(k=2, m_seq=(4, 16), n_seq=(16,), horizon=2), "equal length"),
        (dict(k=2, m_seq=(16, 4), n_seq=(16, 20), horizon=2), "strictly increasing"),
        (dict(k=2, m_seq=(2, 16), n_seq=(16, 20), horizon=2), "m_1 must be at least 4"),
        (dict(k=2, m_seq=(4, 16), n_seq=(16, 20), horizon=2, denominator_bound=0), "denominator_bound"),
    ],
)
def test_structural_violations_raise_in_any_regime(kwargs, message):
    with pytest.raises(ConfigError, match=message):
        make_config(**kwargs)


def test_exact_log2_hand_cases():
    assert exact_log2(Fraction(1024)) == 10
    assert exact_log2(Fraction(1)) == 0
    assert exact_log2(Fraction(1, 4)) == -2
    assert exact_log2(Fraction(3)) is None
    assert exact_log2(Fraction(6, 2)) is None
    assert exact_log2(Fraction(-8)) is None


def test_non_power_of_two_weight_still_certifies_growth():
    # log2(18) is irrational, so the growth comparison cannot reduce to one
    # big-int power; the interval refinement must certify
    # 2**34 >= 256**log2(18) ~ 2**33.36 and refute 2**33 against it.
    cfg = make_config(
        k=2,
        m_seq=(4, 18),
        n_seq=(16, 2**34),
        horizon=2,
        regime=STRICT,
    )
    assert cfg.notes == ()
    with pytest.raises(ConfigError, match="strict regime violated"):
        make_config(k=2, m_seq=(4, 18), n_seq=(16, 2**33), horizon=2, regime=STRICT)


def test_config_round_trips_through_dict():
    cfg = desk_relaxed()
    again = config_from_dict(cfg.to_json_dict())
    assert again.m_seq == cfg.m_seq
    assert again.n_seq == cfg.n_seq
    assert again.horizon == cfg.horizon
    assert again.regime == cfg.regime


def test_env_var_overrides_horizon(monkeypatch):
    monkeypatch.setenv("BDLAB_HORIZON", "3")
    cfg = config_from_dict(desk_relaxed().to_json_dict())
    assert cfg.horizon == 3
    monkeypatch.setenv("BDLAB_HORIZON", "nope")
    with pytest.raises(ConfigError, match="BDLAB_HORIZON"):
        config_from_dict(desk_relaxed().to_json_dict())


@pytest.mark.parametrize("name, factory", [("desk-strict", desk_strict), ("desk-relaxed", desk_relaxed)])
def test_shipped_fixture_files_match_the_bundled_fixtures(name, factory, monkeypatch):
    monkeypatch.delenv("BDLAB_HORIZON", raising=False)
    assert load_config_file(str(CONFIGS / f"{name}.json")) == factory()


def test_config_file_errors_are_config_errors(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(ConfigError, match="invalid config JSON"):
        load_config_file(str(bad))
    missing_key = tmp_path / "missing.json"
    missing_key.write_text('{"k": 2}', encoding="utf-8")
    with pytest.raises(ConfigError, match="missing required key"):
        load_config_file(str(missing_key))


@pytest.mark.parametrize(
    "path, value",
    [
        (("net", "level_cap"), "abc"),
        (("max_elements",), [1]),
        (("k",), 3.9),
        (("n", 1), "33/2"),
        (("net", "max_support"), 1.7),
        (("max_elements",), True),
        (("horizon",), 1e9),
        (("m",), "4"),
    ],
)
def test_malformed_fields_are_config_errors(path, value, monkeypatch):
    monkeypatch.delenv("BDLAB_HORIZON", raising=False)
    doc = with_field(desk_relaxed().to_json_dict(), path, value)
    with pytest.raises(ConfigError, match="malformed config value"):
        config_from_dict(doc)


@pytest.mark.parametrize(
    "path, value, named",
    [
        (("net", "level_cpa"), 4, "'net.level_cpa'"),
        (("horizn",), 4, "'horizn'"),
        (("notes",), [], "'notes'"),
    ],
)
def test_unknown_keys_are_config_errors(path, value, named, monkeypatch):
    monkeypatch.delenv("BDLAB_HORIZON", raising=False)
    doc = with_field(desk_relaxed().to_json_dict(), path, value)
    with pytest.raises(ConfigError, match=f"unknown config keys: {named}"):
        config_from_dict(doc)


def test_validate_is_idempotent_on_fixtures(monkeypatch):
    monkeypatch.delenv("BDLAB_HORIZON", raising=False)
    empty_net = make_config(k=3, m_seq=(4, 16, 64), n_seq=(16, 18, 20), horizon=3, max_support=0)
    for cfg in (desk_strict(), desk_relaxed(), empty_net):
        for again in (validate_config(cfg), with_env_horizon(with_env_horizon(cfg))):
            assert again == cfg
            assert again.notes == cfg.notes
    assert len(desk_relaxed().notes) == 7
    assert [n for n in empty_net.notes if not n.startswith("relaxed regime drops")] == [
        "net is empty (max_support=0); only zero-b odd-weight elements enumerate"
    ]

from __future__ import annotations

import copy
import gc
from fractions import Fraction

import pytest
from hypothesis import strategies as st

from bdlab.config import RELAXED, ConstructionConfig, desk_relaxed, desk_strict, validate_config
from bdlab.universe import Universe, build_universe


@pytest.fixture(autouse=True)
def collector_left_enabled():
    """Fail a test that leaves the cyclic collector disabled.  Afterwards
    unfreeze what in-process ``cli.main`` calls froze, so that objects do
    not pile up in the permanent generation from test to test."""
    yield
    enabled = gc.isenabled()
    gc.unfreeze()
    if not enabled:
        gc.enable()
        pytest.fail("the test left the cyclic garbage collector disabled")


@pytest.fixture(scope="session")
def strict_universe() -> Universe:
    """Shared desk-strict universe.  Read-only: tests that intern build their own."""
    return build_universe(desk_strict())


@pytest.fixture(scope="session")
def relaxed_universe() -> Universe:
    """Shared desk-relaxed universe.  Read-only."""
    return build_universe(desk_relaxed())


def make_config(**kwargs) -> ConstructionConfig:
    """Build and validate a config from keyword arguments, in the relaxed
    regime unless ``regime`` is given."""
    kwargs.setdefault("regime", RELAXED)
    m_seq = tuple(Fraction(m) for m in kwargs.pop("m_seq"))
    n_seq = tuple(int(n) for n in kwargs.pop("n_seq"))
    return validate_config(ConstructionConfig(m_seq=m_seq, n_seq=n_seq, **kwargs))


def micro_config(k: int = 3, horizon: int = 2, **overrides):
    """A small hand-enumerable config: singleton net, two weights, no cap."""
    kwargs = dict(
        k=k,
        m_seq=(4, 16),
        n_seq=(16, 18),
        horizon=horizon,
        max_support=1,
        denominator_bound=1,
        level_cap=0,
    )
    kwargs.update(overrides)
    return make_config(**kwargs)


DELETE = object()


def with_field(doc: dict, path: tuple, value: object) -> dict:
    """A copy of a config document with the field at the key path set to
    value, or removed when value is DELETE."""
    doc = copy.deepcopy(doc)
    *parents, last = path
    target = doc
    for key in parents:
        target = target[key]
    if value is DELETE:
        del target[last]
    else:
        target[last] = value
    return doc


@pytest.fixture()
def micro_universe() -> Universe:
    return build_universe(micro_config())


@st.composite
def small_universes(draw) -> Universe:
    """Built universes of small random configs: k 2-4, horizon 1-4, nets of
    support up to 2 and denominator up to 2, level caps 1-10."""
    cfg = micro_config(
        k=draw(st.integers(min_value=2, max_value=4)),
        horizon=draw(st.integers(min_value=1, max_value=4)),
        m_seq=(4, 16, 64, 256),
        n_seq=(16, 18, 20, 22),
        max_support=draw(st.integers(min_value=1, max_value=2)),
        denominator_bound=draw(st.integers(min_value=1, max_value=2)),
        level_cap=draw(st.integers(min_value=1, max_value=10)),
    )
    return build_universe(cfg)


@st.composite
def quinary_universes(draw) -> Universe:
    """Built universes whose denominators are not powers of two: weights
    1/5^i and net coefficients z/3, so coding rows lie over 75 and common
    denominators reach 5625; k 2-4, horizon 2-4, support up to 2, level caps
    1-10."""
    cfg = micro_config(
        k=draw(st.integers(min_value=2, max_value=4)),
        horizon=draw(st.integers(min_value=2, max_value=4)),
        m_seq=(5, 25, 125, 625),
        n_seq=(16, 18, 20, 22),
        max_support=draw(st.integers(min_value=1, max_value=2)),
        denominator_bound=3,
        level_cap=draw(st.integers(min_value=1, max_value=10)),
    )
    return build_universe(cfg)

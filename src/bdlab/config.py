"""Construction parameters and regime validation.

A configuration fixes the branching width ``k``, the weight sequence
``m_1 < m_2 < ...`` (weights used by coded elements are ``1/m_j``), the age
cap sequence ``n_j``, an enumeration horizon, and the caps that keep the
enumerated universe desk-sized.

Two regimes are supported.  In the ``strict`` regime the four growth
conditions relating the two sequences are enforced exactly:

    (1) m_1 >= 4
    (2) m_{j+1} >= m_j ** 2
    (3) n_1 >= m_1 ** 2
    (4) n_{j+1} >= (16 * n_j) ** log2(m_{j+1})

In the ``relaxed`` regime only ``m_1 >= 4`` and strict monotonicity of both
sequences are enforced; the remaining clauses are evaluated and recorded so
reports can say exactly which magnitudes were given up.
"""

import json
import os
from fractions import Fraction
from functools import cached_property
from typing import Any, Iterator, NamedTuple, Optional

from .serialize import format_rational, parse_integer, parse_rational

HORIZON_ENV_VAR = "BDLAB_HORIZON"

STRICT = "strict"
RELAXED = "relaxed"


class ConfigError(ValueError):
    """Raised when a configuration violates its declared regime."""


def _rung(j: int) -> int:
    """The 0-based position of ladder index j; an index below 1 fails as
    one past the end does, instead of wrapping to the last rung."""
    if j < 1:
        raise IndexError(f"ladder index {j} is below 1")
    return j - 1


class _ConfigFields(NamedTuple):
    k: int
    m_seq: tuple[Fraction, ...]
    n_seq: tuple[int, ...]
    horizon: int
    max_support: int = 1
    denominator_bound: int = 1
    level_cap: int = 0  # 0 = no per-level cap
    regime: str = STRICT
    max_elements: int = 50_000


class ConstructionConfig(_ConfigFields):
    """The config fields and their derived accessors.  Declaring no
    ``__slots__`` gives each config a ``__dict__`` for the cached ``weights``
    and ``notes``; ``_replace`` makes a new config with an empty cache."""

    def m(self, j: int) -> Fraction:
        """m_j, 1-indexed."""
        return self.m_seq[_rung(j)]

    def n(self, j: int) -> int:
        """n_j, 1-indexed."""
        return self.n_seq[_rung(j)]

    def odd_weight_magnitude(self, odd_widx: int, widx: int) -> bool:
        """The strict regime's rule for an element of odd weight index
        ``odd_widx`` that carries one of weight index ``widx`` = 4i:
        m[4i] > n[odd_widx]^2."""
        return self.m(widx) > self.n(odd_widx) ** 2

    @cached_property
    def weights(self) -> tuple[Fraction, ...]:
        """The weights 1/m_j in order, built once per config."""
        return tuple(1 / m for m in self.m_seq)

    def weight(self, j: int) -> Fraction:
        """1/m_j, 1-indexed."""
        return self.weights[_rung(j)]

    @cached_property
    def notes(self) -> tuple[str, ...]:
        """The concessions the ladders, the regime and the net fix: each
        growth clause the relaxed regime drops, then an empty net."""
        notes = []
        if self.regime == RELAXED:
            notes += [f"relaxed regime drops {c}" for c in _failed_growth_clauses(self)]
        if self.max_support == 0:
            notes.append("net is empty (max_support=0); only zero-b odd-weight elements enumerate")
        return tuple(notes)

    @property
    def num_weights(self) -> int:
        return len(self.m_seq)

    @property
    def singleton_net(self) -> bool:
        return self.max_support == 1 and self.denominator_bound == 1

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "k": self.k,
            "m": [format_rational(m) for m in self.m_seq],
            "n": [str(n) for n in self.n_seq],
            "horizon": self.horizon,
            "net": {
                "max_support": self.max_support,
                "denominator_bound": self.denominator_bound,
                "level_cap": self.level_cap,
            },
            "regime": self.regime,
            "max_elements": self.max_elements,
        }


def validate_config(config: ConstructionConfig) -> ConstructionConfig:
    """Check structural invariants plus the declared regime.

    Returns the config itself; its ``notes`` record what the relaxed regime
    gives up.  Raises ConfigError when the config is not usable at all.
    """
    if config.k < 2:
        raise ConfigError(f"k must be at least 2, got {config.k}")
    if config.horizon < 1:
        raise ConfigError(f"horizon must be at least 1, got {config.horizon}")
    if not config.m_seq:
        raise ConfigError("weight sequence m must be non-empty")
    if len(config.n_seq) != len(config.m_seq):
        raise ConfigError(
            f"m and n must have equal length, got {len(config.m_seq)} and {len(config.n_seq)}"
        )
    if config.max_support < 0:
        raise ConfigError("max_support must be non-negative")
    if config.denominator_bound < 1:
        raise ConfigError("denominator_bound must be at least 1")
    if config.level_cap < 0:
        raise ConfigError("level_cap must be non-negative (0 disables the cap)")
    if config.max_elements < 1:
        raise ConfigError("max_elements must be positive")
    if config.regime not in (STRICT, RELAXED):
        raise ConfigError(f"unknown regime {config.regime!r}")

    for j in range(len(config.m_seq) - 1):
        if not config.m_seq[j] < config.m_seq[j + 1]:
            raise ConfigError(f"m must be strictly increasing, fails at index {j + 1}")
        if not config.n_seq[j] < config.n_seq[j + 1]:
            raise ConfigError(f"n must be strictly increasing, fails at index {j + 1}")
    if config.m_seq[0] < 4:
        raise ConfigError(f"m_1 must be at least 4, got {config.m_seq[0]}")
    for n in config.n_seq:
        if not isinstance(n, int) or n < 1:
            raise ConfigError("n entries must be positive integers")

    if config.regime == STRICT:
        failed = list(_failed_growth_clauses(config))
        if failed:
            raise ConfigError(f"strict regime violated: {'; '.join(failed)}")
    return config


def make_config(**kwargs: Any) -> ConstructionConfig:
    """Build and validate a config from keyword arguments (test convenience)."""
    kwargs.setdefault("regime", RELAXED)
    m_seq = tuple(Fraction(m) for m in kwargs.pop("m_seq"))
    n_seq = tuple(int(n) for n in kwargs.pop("n_seq"))
    return validate_config(ConstructionConfig(m_seq=m_seq, n_seq=n_seq, **kwargs))


# -- growth clause evaluation ----------------------------------------------


def _failed_growth_clauses(config: ConstructionConfig) -> Iterator[str]:
    """Each growth clause (2)-(4) the ladders fail, in order, as "name:
    detail"; (1), m_1 >= 4, is a structural check of ``validate_config``."""
    m_seq, n_seq = config.m_seq, config.n_seq
    if n_seq[0] < m_seq[0] ** 2:
        yield f"n[1] >= m[1]^2: {n_seq[0]} vs {format_rational(m_seq[0] ** 2)}"
    for j in range(len(m_seq) - 1):
        if m_seq[j + 1] < m_seq[j] ** 2:
            m_next, bound = format_rational(m_seq[j + 1]), format_rational(m_seq[j] ** 2)
            yield f"m[{j + 2}] >= m[{j + 1}]^2: {m_next} vs {bound}"
    for j in range(len(n_seq) - 1):
        ok, detail = _check_log2_growth(n_seq[j + 1], 16 * n_seq[j], m_seq[j + 1])
        if not ok:
            yield f"n[{j + 2}] >= (16 n[{j + 1}])^log2(m[{j + 2}]): {detail}"


def exact_log2(value: Fraction) -> Optional[int]:
    """Integer log2 when value is an exact power of two, else None."""
    num, den = value.numerator, value.denominator
    if num <= 0:
        return None
    if num & (num - 1) == 0 and den & (den - 1) == 0:
        return num.bit_length() - den.bit_length()
    return None


def _check_log2_growth(n_next: int, base: int, m_next: Fraction) -> tuple[bool, str]:
    """Decide ``n_next >= base ** log2(m_next)`` in exact arithmetic.

    When m_next is a power of two the exponent is an integer and the check
    is a single big-int comparison.  Otherwise log2(m_next) is pinned inside
    shrinking rational intervals [L/K, (L+1)/K] until the comparison
    resolves; n_next >= base**((L+1)/K) iff n_next**K >= base**(L+1).
    """
    if m_next <= 1 or base < 1:
        return False, "ill-posed growth comparison"
    t = exact_log2(m_next)
    if t is not None:
        ok = n_next >= base**t
        return ok, f"{n_next} vs {base}^{t}"
    precision = 8
    while precision <= 4096:
        power = m_next**precision
        low = (power.numerator // power.denominator).bit_length() - 1  # floor(K*log2 m)
        if n_next**precision >= base ** (low + 1):
            return True, f"certified at precision {precision}"
        if n_next**precision < base**low:
            return False, f"refuted at precision {precision}"
        precision *= 2
    return False, "comparison unresolved at precision 4096 (treated as failing)"


# -- config files ------------------------------------------------------------


def load_config_file(path: str) -> ConstructionConfig:
    """Read a JSON config document (schema documented in the README)."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            raw = json.load(handle)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ConfigError(f"invalid config JSON in {path}: {exc}") from exc
    return config_from_dict(raw)


def with_env_horizon(config: ConstructionConfig) -> ConstructionConfig:
    """``config`` validated afresh at the truncation depth the environment
    override sets, else at its own: the last step of every config a verb
    reads, from a file or a bundled fixture."""
    value = os.environ.get(HORIZON_ENV_VAR)
    try:
        horizon = config.horizon if value is None else parse_integer(value)
    except ValueError as exc:
        raise ConfigError(f"{HORIZON_ENV_VAR} must be an integer") from exc
    return validate_config(config._replace(horizon=horizon))


_KEYS = ("k", "m", "n", "horizon", "net", "regime", "max_elements")
_NET_KEYS = ("max_support", "denominator_bound", "level_cap")


def config_from_dict(raw: dict[str, Any]) -> ConstructionConfig:
    if not isinstance(raw, dict):
        raise ConfigError("config document must be a JSON object")
    net = raw.get("net", {})
    if not isinstance(net, dict):
        raise ConfigError("config key 'net' must be an object")
    unknown = [repr(key) for key in raw if key not in _KEYS]
    unknown += [repr(f"net.{key}") for key in net if key not in _NET_KEYS]
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    try:
        k, m_raw, n_raw = raw["k"], raw["m"], raw["n"]
        if not (isinstance(m_raw, list) and isinstance(n_raw, list)):
            raise TypeError("m and n must be lists")
        config = ConstructionConfig(
            k=parse_integer(k),
            m_seq=tuple(parse_rational(m) for m in m_raw),
            n_seq=tuple(parse_integer(n) for n in n_raw),
            horizon=parse_integer(raw["horizon"]),
            max_support=parse_integer(net.get("max_support", 1)),
            denominator_bound=parse_integer(net.get("denominator_bound", 1)),
            level_cap=parse_integer(net.get("level_cap", 0)),
            regime=str(raw.get("regime", STRICT)),
            max_elements=parse_integer(raw.get("max_elements", 50_000)),
        )
    except KeyError as exc:
        raise ConfigError(f"config missing required key {exc.args[0]!r}") from exc
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"malformed config value: {exc}") from exc
    return with_env_horizon(config)


def desk_strict() -> ConstructionConfig:
    """Fully strict fixture: tiny horizon, power-of-two weights, exact growth."""
    m = (Fraction(4), Fraction(16), Fraction(256), Fraction(65536))
    n1 = 16
    n2 = (16 * n1) ** 4        # log2(16) = 4
    n3 = (16 * n2) ** 8        # log2(256) = 8
    n4 = (16 * n3) ** 16       # log2(65536) = 16
    return validate_config(
        ConstructionConfig(
            k=3,
            m_seq=m,
            n_seq=(n1, n2, n3, n4),
            horizon=4,
            max_support=1,
            denominator_bound=1,
            level_cap=24,
            regime=STRICT,
        )
    )


def desk_relaxed() -> ConstructionConfig:
    """Richer fixture: deeper horizon and denser nets, growth clauses waived."""
    return validate_config(
        ConstructionConfig(
            k=3,
            m_seq=(Fraction(4), Fraction(16), Fraction(64), Fraction(256), Fraction(1024)),
            n_seq=(16, 18, 20, 22, 24),
            horizon=6,
            max_support=2,
            denominator_bound=2,
            level_cap=36,
            regime=RELAXED,
        )
    )

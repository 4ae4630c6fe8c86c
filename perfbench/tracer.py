"""In-memory span tracer for the bdlab layers.

``Tracer.install()`` replaces every public module-level function of the
traced modules, and every public method of ``Universe``, with a wrapper that
times the call.  A function is reachable under several names: the module
attribute, each ``from .x import name`` alias in the other package modules,
and values of module-level dicts (``verify.SUITES``, ``cli.BUNDLED``).  All
of them are rebound, and ``restore()`` puts every original back.

Spans are not kept one by one; each call is folded into a record keyed by
(function, caller) holding the call count, inclusive seconds, self seconds
(inclusive minus the time spent in wrapped callees) and the number of
nonzero coordinates in results that carry ``coords``.  Inclusive seconds
count only calls that are not already running further up the stack, so
recursion is not counted twice.  Time spent in unwrapped code is charged to
the nearest wrapped caller, so the self times of all records sum to the
inclusive time of the root spans.

Generator functions are timed only while they create the generator; the
time spent iterating it is charged to the consumer.
"""
from __future__ import annotations

import functools
import importlib
import types
import time
from typing import Any, Callable

LAYERS = (
    "config",
    "elements",
    "universe",
    "algebra",
    "shift",
    "sequences",
    "verify",
    "serialize",
    "cli",
)

PACKAGE = "bdlab"
ROOT = "<root>"

# Record fields, by index, in ``Tracer.records[(name, caller)]``.
CALLS, INCL, SELF, NNZ = range(4)


def package_modules() -> list[Any]:
    return [importlib.import_module(PACKAGE)] + [
        importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS
    ]


class Rebinding:
    """Rebinds functions under every name the package holds them by; undoable."""

    def __init__(self) -> None:
        self.modules = package_modules()
        self._undo: list[tuple[Any, Any, Any]] = []  # (owner, attribute or key, original)

    def set_attr(self, owner: Any, attr: str, value: Any) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def replace(self, swaps: dict[int, Callable]) -> None:
        """Rebind each function whose id is a key of ``swaps`` to its value.

        Covers module attributes (the defining module and every import alias)
        and the values of module-level dicts.
        """
        for module in self.modules:
            for attr, value in list(vars(module).items()):
                if attr.startswith("__"):
                    continue
                if id(value) in swaps:
                    self.set_attr(module, attr, swaps[id(value)])
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if id(item) in swaps:
                            self._undo.append((value, key, item))
                            value[key] = swaps[id(item)]

    def restore(self) -> None:
        for owner, key, original in reversed(self._undo):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._undo.clear()


class Tracer:
    def __init__(self) -> None:
        self.records: dict[tuple[str, str], list] = {}
        self._stack: list[list] = []  # frames: [qualified name, seconds in wrapped callees]
        self._active: dict[str, int] = {}
        self.rebinding: Rebinding | None = None

    # -- wrapping ------------------------------------------------------------

    def wrap(self, name: str, fn: Callable) -> Callable:
        stack = self._stack
        active = self._active
        records = self.records
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            frame = [name, 0.0]
            depth = active.get(name, 0)
            active[name] = depth + 1
            stack.append(frame)
            start = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                elapsed = clock() - start
                stack.pop()
                active[name] = depth
                if stack:
                    parent = stack[-1]
                    parent[1] += elapsed
                    caller = parent[0]
                else:
                    caller = ROOT
                rec = records.get((name, caller))
                if rec is None:
                    rec = records[(name, caller)] = [0, 0.0, 0.0, 0]
                rec[CALLS] += 1
                if depth == 0:
                    rec[INCL] += elapsed
                rec[SELF] += elapsed - frame[1]
                coords = getattr(result, "coords", None)
                if isinstance(coords, dict):
                    rec[NNZ] += len(coords)

        return traced

    def _targets(self) -> list[tuple[Any, str, str, Callable]]:
        """(owner, attribute, qualified name, function) for everything traced."""
        targets = []
        for layer in LAYERS:
            module = importlib.import_module(f"{PACKAGE}.{layer}")
            for attr, value in vars(module).items():
                if (
                    not attr.startswith("_")
                    and isinstance(value, types.FunctionType)
                    and value.__module__ == module.__name__
                ):
                    targets.append((module, attr, f"{layer}.{attr}", value))
        universe_cls = importlib.import_module(f"{PACKAGE}.universe").Universe
        for attr, value in vars(universe_cls).items():
            if not attr.startswith("_") and isinstance(value, types.FunctionType):
                targets.append((universe_cls, attr, f"universe.{attr}", value))
        return targets

    def install(self) -> None:
        if self.rebinding is not None:
            raise RuntimeError("tracer already installed")
        self.rebinding = Rebinding()
        swaps: dict[int, Callable] = {}
        for owner, attr, qualname, fn in self._targets():
            wrapper = self.wrap(qualname, fn)
            if isinstance(owner, type):
                self.rebinding.set_attr(owner, attr, wrapper)
            else:
                swaps[id(fn)] = wrapper
        self.rebinding.replace(swaps)

    def restore(self) -> None:
        if self.rebinding is not None:
            self.rebinding.restore()
            self.rebinding = None

    # -- reading ---------------------------------------------------------------

    def snapshot_calls(self) -> dict[str, int]:
        """Total calls per function so far."""
        out: dict[str, int] = {}
        for (name, _caller), rec in self.records.items():
            out[name] = out.get(name, 0) + rec[CALLS]
        return out

    def to_json(self) -> list[dict[str, Any]]:
        return [
            {
                "name": name,
                "caller": caller,
                "calls": rec[CALLS],
                "incl_s": rec[INCL],
                "self_s": rec[SELF],
                "nnz": rec[NNZ],
            }
            for (name, caller), rec in sorted(self.records.items())
        ]

"""Span tracing of ctoqw's public functions, installed from outside.

:class:`Tracer` replaces each function or method in :data:`TARGETS` by a
wrapper that records a span ``[name, start, end, parent, info]`` in memory.
Every binding of a function is replaced, in every loaded ``ctoqw`` module,
so that from-imports such as ``classify.first_passage_map`` are traced too.
``uninstall`` puts every original back.  Nothing in the package changes.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

PACKAGE = "ctoqw"

# (module, qualified name) of every traced callable.  A class stands for its
# constructor.  A later rename fails ``Tracer.install`` loudly.
TARGETS = (
    ("model", "model_from_json"),
    ("model", "validate"),
    ("model", "build_walk"),
    ("linalg", "expm"),
    ("linalg", "spectral_radius"),
    ("linalg", "power_iteration"),
    ("linalg", "lyapunov_dwell"),
    ("linalg", "require_stable"),
    ("linalg", "Propagator"),
    ("linalg", "Propagator.at"),
    ("superop", "SuperOp.choi_min_eigenvalue"),
    ("superop", "SuperOp.trace_increase_defect"),
    ("superop", "SuperOp.from_kraus"),
    ("passage", "jump_kernel"),
    ("passage", "dwell_superop"),
    ("passage", "first_passage_map"),
    ("passage", "expected_occupation"),
    ("classify", "check_irreducible"),
    ("classify", "check_discrete_irreducible"),
    ("classify", "classify_trichotomy"),
    ("semigroup", "build_block_generator"),
    ("semigroup", "evolve"),
    ("trajectory", "simulate"),
    ("trajectory", "estimate"),
    ("cli", "main"),
)


def _size(args, kwargs, result):
    return len(args[0])


def _passage_info(args, kwargs, result):
    walk, i = args[0], args[1]
    return {"dim": walk.dim(i), "method": result[1].get("method")}


def _trajectory_info(args, kwargs, result):
    return {
        "events": len(result.events),
        "escaped": result.escaped_at is not None,
        "absorbed": bool(result.absorbed),
    }


# Facts read off the arguments or the result of a call, kept in the span.
INFO = {
    "linalg.expm": _size,
    "linalg.spectral_radius": _size,
    "passage.jump_kernel": lambda a, k, r: id(a[0]),
    "passage.first_passage_map": _passage_info,
    "classify.check_irreducible": lambda a, k, r: r.algebra_dim,
    "classify.check_discrete_irreducible": lambda a, k, r: r.algebra_dim,
    "semigroup.build_block_generator": lambda a, k, r: r.dim,
    "trajectory.simulate": _trajectory_info,
}

NAME, START, END, PARENT, DATA = range(5)


def resolve() -> dict:
    """Map each traced span name to ``(owner, attribute, original)``.

    Raises ``AttributeError`` naming the target when one no longer exists.
    """
    found = {}
    for mod_name, qual in TARGETS:
        owner = importlib.import_module(f"{PACKAGE}.{mod_name}")
        parts = qual.split(".")
        for part in parts[:-1]:
            owner = getattr(owner, part)
        attr = parts[-1]
        if not hasattr(owner, attr):
            raise AttributeError(f"traced target {mod_name}.{qual} no longer exists")
        original = inspect.getattr_static(owner, attr)
        if inspect.isclass(original):
            owner, attr = original, "__init__"
            original = inspect.getattr_static(owner, attr)
        found[f"{mod_name}.{qual}"] = (owner, attr, original)
    return found


class Tracer:
    """Records spans of the traced ctoqw calls while installed."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def _wrap(self, name, func):
        spans, stack = self.spans, self._stack
        info = INFO.get(name)
        clock = time.perf_counter

        @functools.wraps(func)
        def traced(*args, **kwargs):
            span = [name, clock(), None, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = func(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if info is not None:
                span[DATA] = info(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        for name, (owner, attr, original) in resolve().items():
            if isinstance(original, staticmethod):
                wrapped = staticmethod(self._wrap(name, original.__func__))
            else:
                wrapped = self._wrap(name, original)
            self._patch(owner, attr, wrapped)
            if inspect.isfunction(original):
                # from-imports and package re-exports hold the same object
                for mod_name, mod in list(sys.modules.items()):
                    if mod is owner or not (
                        mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")
                    ):
                        continue
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, key, wrapped)

    def _patch(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, inspect.getattr_static(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False


def self_times(spans: list[list], lo: int, hi: int) -> list[float]:
    """Self time of each span in ``spans[lo:hi]``: its duration minus the
    durations of its direct children."""
    out = [s[END] - s[START] for s in spans[lo:hi]]
    for k in range(lo, hi):
        parent = spans[k][PARENT]
        if parent >= lo:
            out[parent - lo] -= spans[k][END] - spans[k][START]
    return out

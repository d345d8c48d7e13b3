"""Span tracing of calls into the dppdml modules, from outside the library.

``Instrumentation`` replaces every public function of each dppdml module
with a timing wrapper, both at its module attribute and at every by-name
import in other dppdml modules (``dppdml.cli.train``,
``dppdml.evaluation.input_perturb`` and so on), and restores the originals
on ``uninstall``. While installed, each call appends a span (name, start,
end, parent) to the active ``SpanLog``; spans live in flat arrays in
memory and are written out by the caller when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array

#: Modules whose public functions are traced, in dependency order.
MODULES = ("pairgraph", "kappa", "mechanisms", "dml", "evaluation", "dataio", "cli")

#: Scalar helpers called once per pair or per step: a span would cost more
#: than the call and inflate the time of their callers.
UNTRACED = {"mechanisms.warner_flip", "dml.step_size"}


def _span_name(module: str, func: str) -> str:
    # CLI subcommand handlers are named after the subcommand
    if module == "cli" and func.startswith("cmd_"):
        return "cli." + func[len("cmd_"):]
    return f"{module}.{func}"


def _train_counts(args, kwargs, result):
    _, trace = result
    return {"dml.steps": len(trace.iterations),
            "dml.degenerate_events": trace.degenerate_events}


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


#: Work counts taken from the arguments or result of a traced call.
COUNTERS = {
    "pairgraph.read_pairs_file": lambda a, k, r: {
        "pairgraph.read_pairs_file.rows": len(r)},
    "mechanisms.input_perturb": lambda a, k, r: {
        "mechanisms.input_perturb.pairs": len(_arg(a, k, 0, "pairs"))},
    "dml.train": _train_counts,
}


class SpanLog:
    """Spans and work counts recorded during one phase of a run."""

    def __init__(self, names: list[str]):
        self.names = names
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []

    def open(self, name_id: int) -> int:
        idx = len(self.name)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def add(self, counts: dict[str, int]) -> None:
        for key, value in counts.items():
            self.counts[key] = self.counts.get(key, 0) + value

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total and self seconds.

        Self time is a span's duration minus that of its direct children;
        calls are single-threaded, so children never overlap.
        """
        n = len(self.name)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out: dict[str, dict[str, float]] = {}
        for i in range(n):
            dur = self.end[i] - self.start[i]
            row = out.setdefault(
                self.names[self.name[i]],
                {"calls": 0, "s": 0.0, "self_s": 0.0},
            )
            row["calls"] += 1
            row["s"] += dur
            row["self_s"] += dur - child[i]
        return out

    def to_dict(self) -> dict:
        return {
            "name": [self.names[i] for i in self.name],
            "start": list(self.start),
            "end": list(self.end),
            "parent": list(self.parent),
            "counts": dict(self.counts),
        }


class Instrumentation:
    """Install and remove span wrappers around dppdml's public functions."""

    def __init__(self, package: str = "dppdml"):
        self.package = package
        self.names: list[str] = []
        self.active: SpanLog | None = None
        self._wrappers: dict[int, tuple[object, object]] = {}  # id -> (original, wrapper)
        self._patched: list[tuple[object, str, object]] = []
        for short in MODULES:
            module = importlib.import_module(f"{package}.{short}")
            for attr, obj in vars(module).items():
                if (
                    attr.startswith("_")
                    or not inspect.isfunction(obj)
                    or obj.__module__ != module.__name__
                ):
                    continue
                name = _span_name(short, attr)
                if name not in UNTRACED:
                    self._wrappers[id(obj)] = (obj, self._wrap(name, obj))

    def new_log(self) -> SpanLog:
        return SpanLog(self.names)

    def _wrap(self, name: str, func):
        name_id = len(self.names)
        self.names.append(name)
        counter = COUNTERS.get(name)

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            log = self.active
            if log is None:
                return func(*args, **kwargs)
            idx = log.open(name_id)
            try:
                result = func(*args, **kwargs)
            finally:
                log.close(idx)
            if counter is not None:
                log.add(counter(args, kwargs, result))
            return result

        return wrapper

    def install(self, log: SpanLog) -> None:
        """Route every reference to a traced function through its wrapper."""
        if self._patched:
            raise RuntimeError("instrumentation is already installed")
        prefix = self.package + "."
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (
                mod_name == self.package or mod_name.startswith(prefix)
            ):
                continue
            for attr, obj in list(vars(module).items()):
                original, wrapper = self._wrappers.get(id(obj), (None, None))
                if original is not None and obj is original:
                    setattr(module, attr, wrapper)
                    self._patched.append((module, attr, obj))
        self.active = log

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()
        self.active = None

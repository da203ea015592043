"""Spans around dflab's public functions, recorded from outside the program.

``Tracer.install`` replaces each function named in ``LAYERS`` by a wrapper,
in its defining module and in every dflab module (and the package itself)
that bound it with ``from .x import f``. Bindings are found by identity, so a
new binding is wrapped without a code change here; a function that was
renamed or moved makes ``install`` raise instead of reporting zeros.

A span records its name, start, end, parent span and the id of the operation
it belongs to. Spans stay in memory; ``layer_metrics`` turns them into the
per-layer numbers, with a span's self time taken as its duration minus the
durations of its direct child spans.
"""

from __future__ import annotations

import functools
import importlib
import os
import pkgutil
import time
from collections import defaultdict

# Every recorded function, as <module>.<function>, with the workloads meant
# to exercise it (the self-check requires at least one call there).
LAYERS = {
    "kernels.scan_ascending": ("cube", "compose"),
    "kernels.connected_components": ("compose",),
    "axioms.validate_df": ("cube",),
    "axioms.check_weak_positivity": ("cube",),
    "axioms.check_strong_positivity": ("cube", "dense-io"),
    "axioms.check_partition_decoherence": ("dense-io",),
    "core.df_evaluate": ("dense-io",),
    "core.df_from_matrix": ("compose", "dense-io"),
    "compose.tensor": ("compose",),
    "compose.tensor_power": ("compose",),
    "compose.check_composability": ("compose",),
    "lemma1.ncopy_positivity_check": ("compose",),
    "lemma1.norm_bound": ("compose",),
    "lemma1.find_lambda": ("compose",),
    "maximality.verify_lemma2": ("compose",),
    "maximality.pnn_violation_search": ("compose",),
    "maximality.random_weakly_positive_nonsp": ("compose",),
    "quantum.quantum_df": ("dense-io",),
    "quantum.behavior_table": ("dense-io",),
    "bell.check_behavior_consistency": ("dense-io",),
    "jsonio.save_df": ("dense-io", "cli"),
    "jsonio.load_df": ("dense-io", "cli"),
    "jsonio.dump_json": ("dense-io", "cli"),
    "jsonio.matrix_to_entries": ("dense-io", "cli"),
    "jsonio.entries_to_matrix": ("dense-io", "cli"),
    "cli.main": ("cli",),
}

CLI_COMMANDS = ("gen", "validate", "compose", "lemma1", "maximality", "bell-check")

NAME, START, END, PARENT, OP, NOTE, RAISED = range(7)


class TraceError(RuntimeError):
    """The traced program no longer matches the layer table."""


def _note(name: str, args: tuple, kwargs: dict, result) -> object:
    """The work count a span carries, read from its arguments and result."""
    if name == "kernels.scan_ascending":
        workers = kwargs.get("workers", args[3] if len(args) > 3 else 1)
        return result.checked, workers
    if name == "lemma1.norm_bound":
        return result > 0.0
    if name == "bell.check_behavior_consistency":
        return len(result.partitions)
    if name == "jsonio.save_df":
        return os.path.getsize(kwargs.get("path", args[1] if len(args) > 1 else None))
    if name == "jsonio.load_df":
        return os.path.getsize(kwargs.get("path", args[0] if args else None))
    if name == "cli.main":
        argv = kwargs.get("argv", args[0] if args else None)
        return argv[0]
    return None


class Tracer:
    """In-memory span recorder; ``op`` is the id given to new spans.

    While ``active`` is false the wrappers call straight through, so the
    benchmark's own oracle calls into dflab leave no spans.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.op = -1
        self.active = True
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span = [name, 0, 0, stack[-1] if stack else -1, self.op, None, False]
            stack.append(len(spans))
            spans.append(span)
            span[START] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[RAISED] = True
                raise
            finally:
                span[END] = time.perf_counter_ns()
                stack.pop()
            span[NOTE] = _note(name, args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        import dflab

        modules = [dflab] + [
            importlib.import_module(f"dflab.{info.name}")
            for info in pkgutil.iter_modules(dflab.__path__)
        ]
        for name in LAYERS:
            module_name, fn_name = name.split(".")
            home = importlib.import_module(f"dflab.{module_name}")
            fn = getattr(home, fn_name, None)
            if not callable(fn) or getattr(fn, "__module__", None) != home.__name__:
                raise TraceError(f"{name} is not a function defined in dflab.{module_name}")
            wrapper = self._wrap(name, fn)
            for module in modules:
                for attr in [a for a, v in vars(module).items() if v is fn]:
                    setattr(module, attr, wrapper)
                    self._restore.append((module, attr, fn))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._restore):
            setattr(module, attr, fn)
        self._restore.clear()


def layer_metrics(spans: list[list], rounds: int) -> dict[str, float]:
    """Per-layer totals divided by the number of rounds traced.

    Times and counts are per round of the workload's op mix; ratios are
    taken over the whole traced segment.
    """
    child_ns = [0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            child_ns[span[PARENT]] += span[END] - span[START]
    calls = defaultdict(int)
    self_ns = defaultdict(int)
    incl_ns = defaultdict(int)
    for i, span in enumerate(spans):
        dur = span[END] - span[START]
        calls[span[NAME]] += 1
        self_ns[span[NAME]] += dur - child_ns[i]
        incl_ns[span[NAME]] += dur
        if span[NAME] == "cli.main":
            self_ns[f"cli.main.{span[NOTE]}"] += dur - child_ns[i]

    def under(child: str, ancestor: str) -> int:
        """Spans named ``child`` with an enclosing span named ``ancestor``."""
        count = 0
        for span in spans:
            if span[NAME] != child:
                continue
            parent = span[PARENT]
            while parent >= 0 and spans[parent][NAME] != ancestor:
                parent = spans[parent][PARENT]
            count += parent >= 0
        return count

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    def notes(name: str) -> list:
        return [s[NOTE] for s in spans if s[NAME] == name and not s[RAISED]]

    scans = [(i, s) for i, s in enumerate(spans)
             if s[NAME] == "kernels.scan_ascending" and not s[RAISED]]
    vectors = scanned_vectors(spans)
    scan_ns = sum(s[END] - s[START] - child_ns[i] for i, s in scans)
    parallel_ns = sum(
        s[END] - s[START] - child_ns[i] for i, s in scans if s[NOTE][1] > 1
    )
    bounds = notes("lemma1.norm_bound")
    finds = [s for s in spans if s[NAME] == "lemma1.find_lambda"]
    written = sum(notes("jsonio.save_df"))
    read = sum(notes("jsonio.load_df"))
    per = 1.0 / rounds

    out: dict[str, float] = {}
    for name in LAYERS:
        out[f"{name}.self_s"] = self_ns[name] * 1e-9 * per
        out[f"{name}.calls"] = calls[name] * per
    for command in CLI_COMMANDS:
        out[f"cli.main.{command}.self_s"] = self_ns[f"cli.main.{command}"] * 1e-9 * per
    out.update({
        "kernels.scan_ascending.vectors": vectors * per,
        "kernels.scan_ascending.vectors_per_s": ratio(vectors, scan_ns * 1e-9),
        "kernels.scan_ascending.parallel_self_s": parallel_ns * 1e-9 * per,
        "compose.scans_per_check": ratio(
            under("kernels.scan_ascending", "compose.check_composability"),
            calls["compose.check_composability"]),
        "lemma1.norm_bound.certified_ratio": ratio(sum(bounds), len(bounds)),
        "lemma1.find_lambda.attempts_per_success": ratio(
            under("lemma1.ncopy_positivity_check", "lemma1.find_lambda"),
            sum(not s[RAISED] for s in finds)),
        "maximality.pnn_scans_per_search": ratio(
            under("kernels.scan_ascending", "maximality.pnn_violation_search"),
            calls["maximality.pnn_violation_search"]),
        "maximality.random_weakly_positive_nonsp.scans_per_draw": ratio(
            under("kernels.scan_ascending", "maximality.random_weakly_positive_nonsp"),
            calls["maximality.random_weakly_positive_nonsp"]),
        "bell.partitions": sum(notes("bell.check_behavior_consistency")) * per,
        "jsonio.bytes_written": written * per,
        "jsonio.bytes_read": read * per,
        "jsonio.save_mb_per_s": ratio(written / 1e6, incl_ns["jsonio.save_df"] * 1e-9),
        "jsonio.load_mb_per_s": ratio(read / 1e6, incl_ns["jsonio.load_df"] * 1e-9),
    })
    return out


def scanned_vectors(spans: list[list]) -> int:
    """Vectors reported by every scan_ascending call that returned."""
    return sum(s[NOTE][0] for s in spans
               if s[NAME] == "kernels.scan_ascending" and not s[RAISED])


def self_check(spans: list[list], workload: str) -> list[str]:
    """Names meant to fire on this workload that recorded no call."""
    fired = {span[NAME] for span in spans}
    return [
        f"{name} never fired on {workload}"
        for name, where in LAYERS.items()
        if workload in where and name not in fired
    ]

#!/usr/bin/env python3
"""dflab benchmark: one workload, one seed, a closed loop with one client.

    python3 perfbench/run.py --workload cube --seed 1 --seconds 25 --trace 0

Run from the root of a dflab checkout; dflab is imported from ``src/``. The
workload's inputs come from ``--seed`` alone. Operations run one after
another (each starts when the previous one ends) in whole rounds of a fixed
op mix, for the whole rounds nearest to ``--seconds``, and at least until
the tail class holds enough samples. Every result is checked as soon as its
op ends, and check time is left out of the timings.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json; ``--trace 1``
runs the same rounds untraced and then traced, and prints the per-layer
metrics (per round of the op mix) recorded by ``tracer.py``. The last line
of standard output is the result object; the line before it carries the
machine record, the input digest, the failure ratio and the details behind
each metric.

BLAS is pinned to one thread for this process and all its children; the only
operations with more than one worker use ``workers = nproc``.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
TAIL_BEYOND = 10        # op_tail_s is the sample with exactly this many above it
TAIL_CLASS_MIN = 13     # tail-class samples a timed run holds at least
SETUP_REPS = 3          # import probes and input builds behind setup_s


def pin_environment() -> None:
    """Pin BLAS threads and the import path for this process and its children."""
    for var in THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    os.environ.pop("DFLAB_WORKERS", None)
    os.environ["PYTHONPATH"] = str(SRC)
    sys.path.insert(0, str(SRC))


def set_up(name: str, seed: int, nproc: int, workdir: Path):
    """Generate the seeded inputs and run one warm-up op per class."""
    import workloads

    start = time.perf_counter()
    workload = workloads.build(name, seed, nproc, workdir, ROOT, dict(os.environ))
    if workload.warm_up:
        for cls in dict.fromkeys(workload.mix):
            workload.run(cls, workload.pools[cls][0])
    return workload, time.perf_counter() - start


@dataclasses.dataclass
class Segment:
    """One closed-loop segment: class, seconds and vectors per op, errors."""

    classes: list[str] = dataclasses.field(default_factory=list)
    seconds: list[float] = dataclasses.field(default_factory=list)
    vectors: list[int] = dataclasses.field(default_factory=list)
    errors: list[str] = dataclasses.field(default_factory=list)
    round_walls: list[float] = dataclasses.field(default_factory=list)  # checks excluded

    @property
    def rounds(self) -> int:
        return len(self.round_walls)

    @property
    def wall(self) -> float:
        return sum(self.round_walls)

    def per_round(self) -> list[list[float]]:
        """Op times of each round; every round runs the same number of ops."""
        size = len(self.seconds) // self.rounds
        return [self.seconds[k:k + size] for k in range(0, len(self.seconds), size)]


def closed_loop(workload, seconds: float = 0.0, min_rounds: int = 1,
                rounds: int | None = None, tracer=None) -> Segment:
    """Run whole rounds, checking each result as soon as its op ends.

    With ``rounds`` set, exactly that many rounds run; otherwise rounds repeat
    until ``min_rounds`` are done and the round boundary nearest to
    ``seconds`` of round time is reached.
    Checks are timed apart and left out of every round's wall time.
    """
    seg = Segment()
    used = dict.fromkeys(workload.pools, 0)
    while True:
        round_start = time.perf_counter()
        checking = 0.0
        for cls in workload.mix:
            pool = workload.pools[cls]
            inp = pool[used[cls] % len(pool)]
            used[cls] += 1
            if tracer is not None:
                tracer.op = len(seg.classes)
            t0 = time.perf_counter_ns()
            try:
                result, error = workload.run(cls, inp), None
            except Exception as exc:  # a raising op counts as failed
                result, error = None, f"{type(exc).__name__}: {exc}"
            seg.seconds.append((time.perf_counter_ns() - t0) * 1e-9)
            c0 = time.perf_counter()
            if tracer is not None:
                tracer.active = False
            if error is None:
                try:
                    error = workload.check(cls, inp, result)
                except Exception as exc:  # a result the oracle cannot read is wrong
                    error = f"oracle raised {type(exc).__name__}: {exc}"
            seg.classes.append(cls)
            seg.vectors.append(workload.vectors(result) if error is None else 0)
            if error is not None:
                seg.errors.append(f"{cls}: {error}")
            if tracer is not None:
                tracer.active = True
            checking += time.perf_counter() - c0
        seg.round_walls.append(time.perf_counter() - round_start - checking)
        if rounds is not None:
            if seg.rounds >= rounds:
                break
        elif seg.rounds >= min_rounds and seg.wall * (1 + 0.5 / seg.rounds) >= seconds:
            break
    return seg


def tail(times: list[float]) -> tuple[float, float]:
    """(value, percentile) of the sample with exactly TAIL_BEYOND samples above it."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        raise RuntimeError(f"{n} samples cannot give a tail with {TAIL_BEYOND} beyond it")
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def class_at(seg: Segment, value: float) -> str:
    """Class of the op that took ``value`` seconds."""
    return next(c for c, t in zip(seg.classes, seg.seconds) if t == value)


def by_class(seg: Segment, cls: str) -> list[float]:
    return [t for c, t in zip(seg.classes, seg.seconds) if c == cls]


def machine_record(nproc: int, workload) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        blas = None
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "workers_by_class": {cls: workload.workers.get(cls, 1) for cls in workload.pools},
        "platform": platform.platform(),
        "git_commit": git_commit(),
    }


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def child_json(args: list[str]) -> dict:
    proc = subprocess.run([sys.executable, *args], cwd=ROOT, capture_output=True,
                          text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


IMPORT_PROBE = (
    "import time; t0 = time.perf_counter(); import numpy; t1 = time.perf_counter(); "
    "import dflab; t2 = time.perf_counter(); "
    "print('{\"numpy\": %r, \"dflab\": %r}' % (t1 - t0, t2 - t1))"
)


def import_times() -> list[dict]:
    """Import times of numpy and dflab in SETUP_REPS fresh interpreters."""
    return [child_json(["-c", IMPORT_PROBE]) for _ in range(SETUP_REPS)]


def end_to_end(args, workload, builds: list[float]) -> tuple[dict, dict, list[Segment]]:
    """The untraced run; set-up adds the median import to the median input build."""
    min_rounds = -(-TAIL_CLASS_MIN // workload.mix.count(workload.tail_class))
    seg = closed_loop(workload, args.seconds, min_rounds)
    self_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    child_rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    if workload.name == "cli":
        peak = child_rss
    elif max(workload.workers.values(), default=1) > 1:
        peak = max(self_rss, child_rss)
    else:
        peak = self_rss
    imports = [i["numpy"] + i["dflab"] for i in import_times()]
    tail_s, tail_pct = tail(seg.seconds)
    # The host's speed changes in episodes of seconds to minutes. A median of
    # all samples takes the speed of whichever episode held most of the run;
    # averaging each round's median weighs the episodes by the time they held.
    per_round = [statistics.median(times) for times in seg.per_round()]
    metrics = {
        "ops_per_s": len(seg.seconds) / seg.wall,
        "op_p50_s": statistics.fmean(per_round),
        "op_tail_s": tail_s,
        "peak_rss_mb": peak,
        "setup_s": statistics.median(imports) + statistics.median(builds),
    }
    detail = {
        "rounds": seg.rounds,
        "wall_s": seg.wall,
        "setup_import_samples_s": imports,
        "setup_build_samples_s": builds,
        "op_samples": len(seg.seconds),
        "op_tail_percentile": tail_pct,
        "op_tail_samples_beyond": TAIL_BEYOND,
        "op_p50_round_s": per_round,
        "op_p50_pooled_s": statistics.median(seg.seconds),
        "op_p50_classes": sorted({class_at(seg, middle(times)) for times in seg.per_round()
                                  for middle in (statistics.median_low,
                                                 statistics.median_high)}),
        "op_tail_class": class_at(seg, tail_s),
        "op_p50_s_by_class": {cls: statistics.median(by_class(seg, cls))
                              for cls in workload.pools},
        "ops_per_class": {cls: len(by_class(seg, cls)) for cls in workload.pools},
        "self_rss_mb": self_rss,
        "children_rss_mb": child_rss,
    }
    if workload.name in ("cube", "compose"):
        detail["vectors_per_s"] = sum(seg.vectors) / seg.wall
    return metrics, detail, [seg]


def traced(args, workload) -> tuple[dict, dict, list[Segment]]:
    """Rounds untraced for half of ``--seconds``, then the same rounds traced.

    On ``cli`` the untraced half runs subprocesses; in-process ``main(argv)``
    then runs the same rounds untraced and traced.
    """
    import tracer as tracing

    imports = import_times()
    layers = {
        "import.numpy_s": statistics.median(i["numpy"] for i in imports),
        "import.dflab_s": statistics.median(i["dflab"] for i in imports),
        "cli.process_overhead_s": 0.0,
    }
    segments = []
    if workload.name == "cli":
        import dflab.cli

        shell = closed_loop(workload, args.seconds / 2)
        workload = dataclasses.replace(workload, run=_in_process(dflab.cli))
        plain = closed_loop(workload, rounds=shell.rounds)
        layers["cli.process_overhead_s"] = statistics.fmean(
            statistics.median(by_class(shell, cls)) - statistics.median(by_class(plain, cls))
            for cls in workload.pools
        )
        segments.append(shell)
    else:
        plain = closed_loop(workload, args.seconds / 2)
    rounds = plain.rounds
    recorder = tracing.Tracer()
    recorder.install()
    try:
        spanned = closed_loop(workload, rounds=rounds, tracer=recorder)
    finally:
        recorder.uninstall()
    segments += [plain, spanned]
    layers.update(tracing.layer_metrics(recorder.spans, rounds))
    layers["trace.overhead_s"] = (spanned.wall - plain.wall) / rounds
    layers["trace.wall_s"] = spanned.wall / rounds

    problems = tracing.self_check(recorder.spans, workload.name)
    if workload.name == "cube":
        counted = tracing.scanned_vectors(recorder.spans)
        if counted != sum(spanned.vectors):
            problems.append(f"scan_ascending counted {counted} vectors, "
                            f"reports say {sum(spanned.vectors)}")
    wall = layers["trace.wall_s"]
    shares = {
        "kernels.scan_ascending.self_s": layers["kernels.scan_ascending.self_s"] / wall,
        "jsonio.*.self_s": sum(v for k, v in layers.items()
                               if k.startswith("jsonio.") and k.endswith(".self_s")) / wall,
    }
    if workload.name == "cli":
        shares["import_over_op_p50_s"] = (
            (layers["import.numpy_s"] + layers["import.dflab_s"])
            / statistics.median(segments[0].seconds))
    detail = {"rounds": rounds, "self_check": problems, "spans": len(recorder.spans),
              "share_of_traced_wall": shares}
    return layers, detail, segments


def _in_process(cli_module):
    """Run a CLI op through ``main(argv)`` in this process, output captured."""
    def run(cls, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli_module.main(list(argv))
        return code, out.getvalue(), err.getvalue()
    return run


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("cube", "compose", "dense-io", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "dflab" / "__init__.py").is_file():
        print(f"error: no dflab sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    pin_environment()
    nproc = len(os.sched_getaffinity(0))
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        builds = []
        for _ in range(1 if args.trace else SETUP_REPS):
            workload, seconds = set_up(args.workload, args.seed, nproc, workdir)
            builds.append(seconds)
        for cls, workers in workload.workers.items():
            if workers * BLAS_THREADS > nproc:
                raise RuntimeError(f"{cls}: {workers} workers x {BLAS_THREADS} BLAS "
                                   f"threads exceed {nproc} cores")
        if args.trace:
            values, detail, segments = traced(args, workload)
            wanted = spec["per_layer"]
        else:
            values, detail, segments = end_to_end(args, workload, builds)
            wanted = spec["end_to_end"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = [e for seg in segments for e in seg.errors]
    attempted = sum(len(seg.seconds) for seg in segments)
    problems = failed + detail.get("self_check", [])
    for line in problems[:20]:
        print(f"check failed: {line}", file=sys.stderr)
    detail.update({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "input_sha256": workload.digest, "fail_ratio": len(failed) / attempted,
        "oracle_notes": dict(workload.notes),
        "machine": machine_record(nproc, workload),
    })
    print(json.dumps({"detail": detail}))
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

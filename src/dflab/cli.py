"""Batch command-line front end with JSON input and deterministic reports.

Commands:
    validate    --input PATH [--tol F] [--level weak|strong]
    compose     --a PATH (--b PATH | --power N) [--check] [--block-reduced] [--out PATH]
    lemma1      --n N [--lambda F] [--eps F] [--json]
    maximality  --input PATH [--pnn] [--json]
    bell-check  --df PATH --behavior PATH [--mode weak|strong]
    gen         KIND [kind flags] --out PATH

Exit codes: 0 on success, 1 when a checked property fails (a meaningful
negative result), 2 on malformed input or usage errors. --workers N scans
contiguous spans of the binary cube in up to N threads, started only where
enough rows reach the scan's forms GEMM (the scan itself runs in real
float64 arithmetic over chunks sized from a byte budget); it assumes
workers x BLAS threads <= cores, so pin the BLAS when N > 1. Reports embed
the tolerances they were computed with, and JSON output is byte-stable for
identical inputs and worker counts.

Each ``cmd_*`` takes the parsed arguments and the ``RunConfig`` that
``main`` builds once, writes nothing to stdout, and returns its JSON payload,
its text lines and its exit code. ``main`` then writes the output once: the
payload with a ``tolerances`` key under --json, else the lines and a
closing tolerance line. An error raised before that write leaves stdout
empty and prints one ``error:`` or ``input error:`` line on stderr (exit 2).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import jsonio
from .axioms import (
    Strategy,
    check_weak_positivity,
    validate_df,
)
from .bell import check_behavior_consistency
from .compose import check_composability, tensor, tensor_power
from .core import (
    LEVEL_NAMES,
    TOL_EQ,
    TOL_POS,
    DecoherenceFunctional,
    DflabError,
    ValidationLevel,
    df_from_matrix,
    make_space,
)
from .lemma1 import lemma1_df, lemma1_epsilon, lemma1_experiment
from .maximality import pnn_violation_search, verify_lemma2
from .quantum import dv_family, quantum_df


@dataclass(frozen=True)
class RunConfig:
    """Settings shared by every command invocation."""

    tol_eq: float
    tol_pos: float
    workers: int

    def __post_init__(self) -> None:
        # NaN fails every comparison, so test for a finite positive value
        if not all(math.isfinite(t) and t > 0 for t in (self.tol_eq, self.tol_pos)):
            raise DflabError("tolerances must be finite and positive")
        if self.workers < 1:
            raise DflabError("worker count must be at least 1")


def _witness_line(indices, value: float, indent: str = "  ") -> str:
    return f"{indent}witness indices {list(indices)} value {value:.9g}"


def _format_matrix(matrix: np.ndarray) -> list[str]:
    dim = matrix.shape[0]
    if dim > 16:
        extremes = (
            float(np.abs(matrix).max()),
            float(matrix.real.min()),
            float(matrix.real.max()),
        )
        return [
            f"matrix {dim}x{dim} (too large to print): "
            f"|entry|max={extremes[0]:.6g} Re in [{extremes[1]:.6g}, {extremes[2]:.6g}] "
            f"frobenius={np.linalg.norm(matrix):.6g}"
        ]
    lines = []
    for row in matrix:
        cells = []
        for z in row:
            if abs(z.imag) < 1e-14:
                cells.append(f"{z.real:+.6f}")
            else:
                cells.append(f"{z.real:+.6f}{z.imag:+.6f}i")
        lines.append("  [" + ", ".join(cells) + "]")
    return lines


def _load_hermitian_df(path: str, tol: float) -> DecoherenceFunctional:
    raw = jsonio.load_df(path)
    return df_from_matrix(raw.matrix, raw.space, tol=tol)


def cmd_validate(args: argparse.Namespace, config: RunConfig) -> tuple[dict, list[str], int]:
    report = validate_df(jsonio.load_df(args.input), tol_eq=config.tol_eq,
                         tol_pos=config.tol_pos, workers=config.workers)
    required = (
        ValidationLevel.WEAKLY_POSITIVE
        if args.level == "weak"
        else ValidationLevel.STRONGLY_POSITIVE
    )
    ok = report.level >= required
    lines = [
        f"hermitian: {report.hermitian} (max deviation {report.hermiticity_deviation:.3e})",
        f"normalized: {report.normalized} (entry sum {report.normalization_value:.12g})",
        f"weak positivity: {report.weak.verdict.value} "
        f"({report.weak.vectors_checked} vectors)",
    ]
    if report.weak.witness is not None:
        lines.append(_witness_line(report.weak.witness.indices, report.weak.witness_value))
    if report.strong is not None:
        lines.append(
            f"strong positivity: isSP={report.strong.is_sp} "
            f"(min eigenvalue {report.strong.min_eigenvalue:.9g})"
        )
    lines.append(f"level reached: {args.level} required -> {'OK' if ok else 'FAIL'}")
    payload = {"report": jsonio.validation_report_to_dict(report), "ok": ok}
    return payload, lines, 0 if ok else 1


def cmd_compose(args: argparse.Namespace, config: RunConfig) -> tuple[dict, list[str], int]:
    if (args.b is None) == (args.power is None):
        raise DflabError("compose needs exactly one of --b or --power")
    strategy = Strategy.BLOCK_REDUCED if args.block_reduced else Strategy.BRUTE_FORCE
    left = _load_hermitian_df(args.a, config.tol_eq)
    if args.power is None:
        product = tensor(left, _load_hermitian_df(args.b, config.tol_eq))
    elif not (args.check or args.out):
        raise DflabError("compose --power needs --check or --out")
    payload: dict = {}
    lines: list[str] = []
    exit_code = 0
    if args.check:
        if args.power is None:
            report = check_weak_positivity(
                product, config.tol_pos, strategy, workers=config.workers
            )
            payload["positivity"] = jsonio.positivity_report_to_dict(report)
            lines.append(f"product positivity: {report.verdict.value}")
            if report.witness is not None:
                lines.append(_witness_line(report.witness.indices, report.witness_value))
        else:
            report = check_composability(left, args.power, strategy, config.tol_pos)
            payload["composability"] = jsonio.composability_report_to_dict(report)
            lines.append(
                f"composability n={args.power}: {report.verdict.value} "
                f"(strategy {report.strategy.value})"
            )
            if report.witness_value is not None:
                lines.append(_witness_line(report.witness_indices, report.witness_value))
        exit_code = 0 if report.passed else 1
    if args.out:
        if args.power is not None:
            product = tensor_power(left, args.power)
        jsonio.save_df(product, args.out)
        payload["out"] = args.out
        lines.append(f"wrote {product.dim}x{product.dim} DF to {args.out}")
    return payload, lines, exit_code


def cmd_lemma1(args: argparse.Namespace, config: RunConfig) -> tuple[dict, list[str], int]:
    report = lemma1_experiment(args.n, lam=args.lam, eps=args.eps, tol=config.tol_pos)
    base = lemma1_df(report.params.lam, report.params.eps)
    validation = validate_df(base, tol_eq=config.tol_eq, tol_pos=config.tol_pos,
                             workers=config.workers)
    payload = {
        "lemma1": jsonio.lemma1_report_to_dict(report),
        "validation": jsonio.validation_report_to_dict(validation),
    }
    lines = [
        f"parameters: lambda={report.params.lam:g} eps={report.params.eps:.12g} "
        f"n={report.params.n}",
        f"base DF axioms: level {LEVEL_NAMES[validation.level]} "
        f"(weak positivity {validation.weak.verdict.value}, "
        f"{validation.weak.vectors_checked} vectors)",
        f"{report.params.n}-copy positivity: {report.n_copy_verdict.verdict.value} "
        f"(strategy {report.n_copy_verdict.strategy.value}, "
        f"{report.n_copy_verdict.vectors_checked} vectors)",
        f"(n+1)-copy witness value: closed form {report.witness_value:.9g}, "
        f"factorized {report.witness_value_numeric:.9g}",
        f"lemma holds here: {report.lemma_holds}",
    ]
    return payload, lines, 0 if report.lemma_holds else 1


def cmd_maximality(args: argparse.Namespace, config: RunConfig) -> tuple[dict, list[str], int]:
    if args.pnn:
        violation = pnn_violation_search(jsonio.load_df(args.input).matrix, config.tol_pos)
        payload = {"pnnViolation": jsonio.pnn_violation_to_dict(violation)}
        if violation is None:
            return payload, ["no violation found within the search budget"], 1
        lines = [
            f"violating partner [[1, {violation.partner[0, 1]:g}], "
            f"[{violation.partner[1, 0]:g}, {violation.partner[1, 1]:g}]]",
            _witness_line(violation.witness.indices, violation.value, indent=""),
        ]
        return payload, lines, 0
    D = _load_hermitian_df(args.input, config.tol_eq)
    report = verify_lemma2(D, config.tol_pos)
    lines = [
        f"input dimension: {report.input_dim}",
        f"min eigenvalue: {report.min_eigenvalue:.9g}",
        f"composed form on witness: lhs {report.lhs:.9g} rhs {report.rhs:.9g} "
        f"matched={report.matched}",
        f"witness indices {list(report.witness.indices)}",
    ]
    violated = report.matched and report.lhs < -config.tol_pos
    return {"lemma2": jsonio.lemma2_report_to_dict(report)}, lines, 0 if violated else 1


def cmd_bell_check(args: argparse.Namespace, config: RunConfig) -> tuple[dict, list[str], int]:
    D = _load_hermitian_df(args.df, config.tol_eq)
    behavior = jsonio.load_behavior(args.behavior)
    report = check_behavior_consistency(D, behavior, mode=args.mode, tol=config.tol_eq)
    lines = [
        f"partitions checked: {len(report.partitions)}",
        f"worst deviation: {report.worst_deviation:.3e}",
        f"verdict: {'PASS' if report.verdict else 'FAIL'}",
    ]
    payload = {"consistency": jsonio.consistency_report_to_dict(report)}
    return payload, lines, 0 if report.verdict else 1


def _is_number(value: object) -> bool:
    # JSON true/false load as bool, a subclass of int, and are no numbers here
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _parse_number_list(text: str) -> list[complex]:
    values = jsonio.loads(text)
    if not isinstance(values, list) or not values:
        raise DflabError("expected a non-empty JSON list")
    out = []
    for item in values:
        if _is_number(item):
            real, imag = item, 0.0
        elif isinstance(item, list) and len(item) == 2 and all(map(_is_number, item)):
            real, imag = item
        else:
            raise DflabError(f"cannot read {item!r} as a number or [re, im] pair")
        try:
            out.append(complex(float(real), float(imag)))
        except OverflowError:  # a JSON integer beyond the float range
            raise DflabError(jsonio.BEYOND_FLOAT) from None
    return out


def cmd_gen(args: argparse.Namespace, config: RunConfig) -> tuple[dict, list[str], int]:
    if args.kind == "lemma1":
        if args.n is None and args.eps is None:
            raise DflabError("gen lemma1 needs --n (to derive eps) or --eps")
        lam = args.lam if args.lam is not None else 2.0
        eps = args.eps if args.eps is not None else lemma1_epsilon(lam, args.n)
        D = lemma1_df(lam, eps)
    elif args.kind == "dv":
        if args.v is None:
            raise DflabError("gen dv needs --v")
        vec = np.array(_parse_number_list(args.v), dtype=np.complex128)
        D = dv_family(vec)
    elif args.kind == "classical":
        if args.p is None:
            raise DflabError("gen classical needs --p")
        probs = [z.real for z in _parse_number_list(args.p)]
        if any(p < 0 for p in probs) or abs(sum(probs) - 1.0) > config.tol_eq:
            raise DflabError("probabilities must be non-negative and sum to 1")
        space = make_space([str(i) for i in range(len(probs))])
        D = df_from_matrix(
            np.diag(probs).astype(np.complex128), space, require_normalized=True
        )
    elif args.kind == "quantum":
        if args.model is None:
            raise DflabError("gen quantum needs --model")
        D = quantum_df(jsonio.load_model(args.model))
    else:
        raise DflabError(f"unknown generator kind {args.kind!r}")
    jsonio.save_df(D, args.out)
    lines = [f"wrote {D.dim}x{D.dim} DF to {args.out}"]
    lines.extend(_format_matrix(D.matrix))
    return {"out": args.out, "dim": D.dim}, lines, 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dflab",
        description="Decoherence functionals as matrices: checks, composition, experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--json", action="store_true", help="machine-readable output")
        p.add_argument("--tol", type=float, default=None, help="tolerance override")
        p.add_argument("--workers", type=int, default=1,
                       help="upper bound on enumeration worker threads")

    p = sub.add_parser("validate", help="run all axiom checks on a DF file")
    p.add_argument("--input", required=True)
    p.add_argument("--level", choices=("weak", "strong"), default="weak")
    common(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("compose", help="tensor two DFs or a tensor power")
    p.add_argument("--a", required=True)
    p.add_argument("--b", default=None)
    p.add_argument("--power", type=int, default=None)
    p.add_argument("--check", action="store_true", help="run the positivity verdict")
    p.add_argument("--block-reduced", action="store_true", dest="block_reduced")
    p.add_argument("--out", default=None)
    common(p)
    p.set_defaults(func=cmd_compose)

    p = sub.add_parser("lemma1", help="bounded-composability experiment")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--lambda", type=float, default=None, dest="lam")
    p.add_argument("--eps", type=float, default=None)
    common(p)
    p.set_defaults(func=cmd_lemma1)

    p = sub.add_parser("maximality", help="composition counterexample for a non-PSD DF")
    p.add_argument("--input", required=True)
    p.add_argument("--pnn", action="store_true",
                   help="search for a non-negative 2x2 partner violation instead")
    common(p)
    p.set_defaults(func=cmd_maximality)

    p = sub.add_parser("bell-check", help="test a DF against a behavior table")
    p.add_argument("--df", required=True)
    p.add_argument("--behavior", required=True)
    p.add_argument("--mode", choices=("weak", "strong"), default="strong")
    common(p)
    p.set_defaults(func=cmd_bell_check)

    p = sub.add_parser("gen", help="generate a DF file")
    p.add_argument("kind", choices=("lemma1", "dv", "classical", "quantum"))
    p.add_argument("--lambda", type=float, default=None, dest="lam")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--eps", type=float, default=None)
    p.add_argument("--v", default=None, help="JSON list for the dv vector")
    p.add_argument("--p", default=None, help="JSON list of probabilities")
    p.add_argument("--model", default=None, help="quantum model JSON path")
    p.add_argument("--out", required=True)
    common(p)
    p.set_defaults(func=cmd_gen)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = RunConfig(
            tol_eq=TOL_EQ if args.tol is None else args.tol,
            tol_pos=TOL_POS if args.tol is None else args.tol,
            workers=args.workers,
        )
        payload, lines, exit_code = args.func(args, config)
        if args.json:
            payload["tolerances"] = {"eq": config.tol_eq, "pos": config.tol_pos}
            sys.stdout.write(jsonio.dump_json(payload))
        else:
            lines.append(f"tolerances: eq={config.tol_eq:g} pos={config.tol_pos:g}")
            sys.stdout.write("".join(line + "\n" for line in lines))
        return exit_code
    except DflabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, json.JSONDecodeError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())

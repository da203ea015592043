"""Mutation run for the cube scan's prune decisions and the CLI's output.

Each mutant is a named one-line edit of a file under ``src/dflab`` and the
tests that must fail once it is applied. For each mutant the script copies
``src``, ``tests`` and ``pyproject.toml`` into a temporary directory, applies
the edit there, runs the named tests with a fixed hypothesis seed, and counts
the mutant as killed when pytest reports failing tests. The same tests run
once on an unedited copy first, and must pass there. The working tree is
never edited.

    python tests/mutants.py            # every mutant; exit 1 if any survives
    python tests/mutants.py NAME ...   # the named mutants only
    python tests/mutants.py --list

Only the standard library is used, so the run needs nothing beyond what the
tests themselves need.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
KERNELS = "src/dflab/kernels.py"
K = "tests/test_kernels.py::"
CLI = "src/dflab/cli.py"
CORPUS = ("tests/test_cli.py::test_cli_corpus_is_unchanged",)


class Mutant(NamedTuple):
    name: str
    path: str       # relative to the repository root
    old: str        # a line fragment that occurs exactly once in ``path``
    new: str
    tests: tuple[str, ...]


MUTANTS = (
    Mutant(
        "drop-min-sum",  # a prefix bound without Σ_k min(0, c_x[k])
        KERNELS,
        "            + np.minimum(XR[:, p:], 0.0).sum(axis=1))",
        "            + 0.0)",
        (K + "test_prefix_bound_is_below_every_form_under_the_prefix",
         K + "test_planted_witness_in_first_last_and_lone_kept_group",
         K + "test_two_level_scan_matches_unpruned_scan"),
    ),
    Mutant(
        "drop-L",  # a group bound without the least bound of the rest
        KERNELS,
        "_prefix_bounds(prefixes, _split_rows(S, h1)) + L < cutoff)",
        "_prefix_bounds(prefixes, _split_rows(S, h1)) < cutoff)",
        (K + "test_planted_witness_in_first_last_and_lone_kept_group",
         K + "test_two_level_scan_matches_unpruned_scan"),
    ),
    Mutant(
        "drop-slack",  # a cutoff without the rounding slack
        KERNELS,
        "cutoff = -tol + slack - float(cube_forms(S[h:, h:]).min())",
        "cutoff = -tol - float(cube_forms(S[h:, h:]).min())",
        (K + "test_tight_row_bounds_keep_their_violators",
         K + "test_pruned_scan_matches_one_chunk_scan",
         K + "test_two_level_scan_matches_unpruned_scan"),
    ),
    Mutant(
        "drop-min-qC",  # a cutoff without - min_y q_C(y)
        KERNELS,
        "cutoff = -tol + slack - float(cube_forms(S[h:, h:]).min())",
        "cutoff = -tol + slack",
        (K + "test_warm_bit_tables_keep_scan_results",
         K + "test_two_level_scan_matches_unpruned_scan"),
    ),
    Mutant(
        "drop-gemv-copy",  # a one-row chunk goes to BLAS gemv
        KERNELS,
        "            xs = xs.repeat(2)",
        "            pass",
        (K + "test_pruned_scan_matches_one_chunk_scan",
         K + "test_warm_bit_tables_keep_scan_results"),
    ),
    Mutant(
        "undoubled-rest",  # the prefix's coupling to the rest counted once
        KERNELS,
        "    R[:, p:] *= 2.0",
        "    R[:, p:] *= 1.0",
        (K + "test_prefix_bound_is_below_every_form_under_the_prefix",
         K + "test_planted_witness_in_first_last_and_lone_kept_group"),
    ),
    Mutant(
        "last-span-hit",  # the pool reports the last span's hit, not the least
        KERNELS,
        "    return min(hits) if hits else None",
        "    return hits[-1] if hits else None",
        (K + "test_pool_reports_the_lowest_of_several_span_hits",
         K + "test_pool_starts_where_no_row_is_pruned"),
    ),
    Mutant(
        "untrimmed-kept",  # kept rows run on past row n to the end of its group
        KERNELS,
        "    kept = (k << shift) + part",
        "    kept = groups.size << shift",
        (K + "test_planted_witness_in_first_last_and_lone_kept_group",),
    ),
    Mutant(
        "no-overflow-guard",  # a scan of a matrix with 2·Σ|S| = inf passes
        KERNELS,
        "    if not (finite.all() if isinstance(finite, np.ndarray) else finite):",
        "    if False:",
        (K + "test_scan_without_a_sound_rounding_slack_raises",
         "tests/test_cli.py::test_validate_overflowing_matrix_is_input_error"),
    ),
    Mutant(
        "no-tolerances-key",  # --json output without the tolerances it used
        CLI,
        '            payload["tolerances"] = {"eq": config.tol_eq, "pos": config.tol_pos}',
        "            pass",
        CORPUS,
    ),
    Mutant(
        "no-tolerance-line",  # text output without the closing tolerance line
        CLI,
        '            lines.append(f"tolerances: eq={config.tol_eq:g} pos={config.tol_pos:g}")',
        "            pass",
        CORPUS,
    ),
    Mutant(
        "unindented-witness",  # the witness line under a verdict loses its indent
        CLI,
        'def _witness_line(indices, value: float, indent: str = "  ") -> str:',
        'def _witness_line(indices, value: float, indent: str = "") -> str:',
        CORPUS,
    ),
    Mutant(
        "validate-exits-0",  # validate exits 0 below the required level
        CLI,
        "    return payload, lines, 0 if ok else 1",
        "    return payload, lines, 0",
        CORPUS,
    ),
    Mutant(
        "compose-check-exits-0",  # a failed compose --check exits 0
        CLI,
        "        exit_code = 0 if report.passed else 1",
        "        exit_code = 0",
        CORPUS,
    ),
    Mutant(
        "maximality-ignores-matched",  # exit 0 on a lift whose identity failed
        CLI,
        "    violated = report.matched and report.lhs < -config.tol_pos",
        "    violated = report.lhs < -config.tol_pos",
        CORPUS,
    ),
    Mutant(
        "pnn-forms-overflowing-cube",  # the pnn pass builds the cube of an inf S
        "src/dflab/maximality.py",
        "    rounding_slack(2 * dim, norm)  # refuse an overflowing S before its cube is formed",
        "    pass",
        ("tests/test_cli.py::test_maximality_pnn_overflowing_matrix_is_input_error",),
    ),
    Mutant(
        "lemma1-negative-zero",  # -c writes -0.0 where 0.5·ε·λ underflows
        "src/dflab/lemma1.py",
        "    d = 0.0 - c",
        "    d = -c",
        ("tests/test_lemma1.py::test_lemma1_matrix_has_the_kron_constructions_bits",),
    ),
)


def run(tests: tuple[str, ...], mutant: Mutant | None = None) -> tuple[str, float]:
    """Run ``tests`` on a temporary copy, with ``mutant`` applied if given:
    "failed", "passed", or "error: ..." when the edit or the run is broken."""
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="dflab-mutant-") as tmp:
        work = Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, work / part,
                            ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy2(ROOT / "pyproject.toml", work / "pyproject.toml")
        if mutant is not None:
            target = work / mutant.path
            text = target.read_text()
            if text.count(mutant.old) != 1:
                return f"error: the edit matches {text.count(mutant.old)} times", 0.0
            target.write_text(text.replace(mutant.old, mutant.new))
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
             "--hypothesis-seed=0", *tests],
            cwd=work, capture_output=True, text=True, timeout=1800,
        )
    elapsed = time.perf_counter() - start
    if proc.returncode in (0, 1):  # pytest: all passed / some tests failed
        return ("passed", "failed")[proc.returncode], elapsed
    tail = (proc.stdout + proc.stderr).strip().splitlines()[-1:]
    return f"error: pytest exit {proc.returncode} {' '.join(tail)}", elapsed


def main(argv: list[str]) -> int:
    if argv == ["--list"]:
        for mutant in MUTANTS:
            print(mutant.name)
        return 0
    unknown = set(argv) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    chosen = [m for m in MUTANTS if not argv or m.name in argv]
    # a test that fails without any edit would count every mutant as killed
    tests = tuple(dict.fromkeys(t for m in chosen for t in m.tests))
    outcome, seconds = run(tests)
    print(f"{'(unmutated)':28} {outcome} ({seconds:.1f} s)", flush=True)
    if outcome != "passed":
        return 2
    killed = 0
    for mutant in chosen:
        outcome, seconds = run(mutant.tests, mutant)
        killed += outcome == "failed"
        label = {"failed": "killed", "passed": "survived"}.get(outcome, outcome)
        print(f"{mutant.name:28} {label} ({seconds:.1f} s)", flush=True)
    print(f"killed {killed} of {len(chosen)}")
    return 0 if killed == len(chosen) else 1


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))

"""Mutation run for the cube scan's prune decisions.

Each mutant is a named one-line edit of ``src/dflab/kernels.py`` and the
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
        "no-overflow-guard",  # a scan of a matrix with 2·Σ|S| = inf passes
        KERNELS,
        "    if not (finite.all() if isinstance(finite, np.ndarray) else finite):",
        "    if False:",
        (K + "test_scan_without_a_sound_rounding_slack_raises",
         "tests/test_cli.py::test_validate_overflowing_matrix_is_input_error"),
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
    print(f"{'(unmutated)':20} {outcome} ({seconds:.1f} s)", flush=True)
    if outcome != "passed":
        return 2
    killed = 0
    for mutant in chosen:
        outcome, seconds = run(mutant.tests, mutant)
        killed += outcome == "failed"
        label = {"failed": "killed", "passed": "survived"}.get(outcome, outcome)
        print(f"{mutant.name:20} {label} ({seconds:.1f} s)", flush=True)
    print(f"killed {killed} of {len(chosen)}")
    return 0 if killed == len(chosen) else 1


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))

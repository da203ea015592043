"""JSON serialization for DFs, behaviors, quantum models, and reports.

The DF file format is a fixed contract shared by every CLI command:

    { "dim": int, "labels": [str, ...],
      "factors": [[name, cardinality], ...] | null,
      "entries": [[re, im], ...] }        # row-major, length dim^2

Reports mirror their in-memory types with camelCase keys; witness events
serialize as sorted index lists. Serialization is deterministic (sorted keys,
fixed indentation), so identical inputs produce identical bytes.

The ``*_to_dict`` builders keep float data as numpy arrays: every ``[re, im]``
row block (``entries``, ``rho``, projectors, eigenvectors) is the (N, 2)
float64 view that ``matrix_to_entries`` returns, with no copy of a DF matrix. ``dump_json`` writes
the bytes of ``json.dumps(obj, indent=2, sort_keys=True, ensure_ascii=False,
default=np.ndarray.tolist)``. Any ``indent`` sends the standard library to
its pure-Python encoder, so the layout is emitted here, dicts and lists level
by level, each scalar through the compact C encoder.

A non-empty, finite, 2-D float64 array is formatted one distinct bit pattern
at a time: ``repr`` depends only on the bits, and quantum DFs repeat most of
their floats (the dim-256 one of the ``dense-io`` workload holds about
30,000 distinct patterns in 131,072 floats). The tokens are gathered back in order and
joined with the separators in blocks of rows. Any other array is emitted as
its ``tolist()``.
"""

from __future__ import annotations

import json
import struct
from itertools import chain
from pathlib import Path
from typing import Any, Iterable

import numpy as np

from .axioms import (
    DecoherenceReport,
    PositivityReport,
    SpectralReport,
    ValidationReport,
)
from .bell import Behavior, ConsistencyReport
from .compose import ComposabilityReport
from .core import (
    LEVEL_NAMES,
    DecoherenceFunctional,
    DflabError,
    Event,
    make_space,
)
from .lemma1 import Lemma1Report
from .maximality import Lemma2Report, PnnViolation
from .quantum import ProjectorFamily, QuantumModel


BEYOND_FLOAT = "cannot read an integer beyond the float range"
FACTORS_SHAPE = "factors must be null or a list of [name, count] pairs"


def _count(value: Any, field: str) -> int:
    """A count field's value, which must be a JSON integer. A bool, a float
    or a string raises ``TypeError``, where ``int()`` would read it as a
    count; each loader reports it as a malformed object."""
    if type(value) is not int:
        raise TypeError(f"{field} must be an integer, not {type(value).__name__}")
    return value


def _factors(value: Any) -> list[tuple[str, int]] | None:
    """The ``factors`` field: null, or a list of [name, count] pairs."""
    if value is None:
        return None
    if not isinstance(value, list) or not all(
        isinstance(pair, list) and len(pair) == 2 for pair in value
    ):
        raise TypeError(FACTORS_SHAPE)
    return [(str(name), _count(card, "a factor count")) for name, card in value]


def loads(text: str) -> Any:
    """``json.loads``, with an integer past the interpreter's digit limit
    raised as :class:`DflabError` (a syntax error stays ``JSONDecodeError``).
    """
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        raise
    except ValueError:
        raise DflabError(BEYOND_FLOAT) from None


def _read(path: str | Path) -> Any:
    return loads(Path(path).read_text(encoding="utf-8"))


def matrix_to_entries(matrix: np.ndarray) -> np.ndarray:
    """Row-major ``[re, im]`` pairs of a matrix (or a vector), as an (N, 2)
    float64 view of its complex128 data (copied only if not contiguous
    complex128)."""
    flat = np.ascontiguousarray(matrix, dtype=np.complex128).reshape(-1)
    return flat.view(np.float64).reshape(-1, 2)


def _refused_cell(cells: Iterable[Any]) -> str:
    """The error for the first of ``cells`` that ``struct`` cannot read as a float."""
    for cell in cells:
        try:
            struct.pack("d", cell)
        except struct.error:
            if isinstance(cell, int):  # a JSON integer beyond the float range
                return BEYOND_FLOAT
            return f"entries must be finite [re, im] number pairs, not {type(cell).__name__}"
    return "entries must be finite [re, im] number pairs"


def entries_to_matrix(entries: Any, dim: int) -> np.ndarray:
    """Inverse of :func:`matrix_to_entries`, bit-exact (the sign of -0.0 too)."""
    try:
        widths = set(map(len, entries))
    except TypeError as exc:
        raise DflabError(f"entries must be a list of [re, im] pairs: {exc}") from exc
    if len(entries) != dim * dim:
        raise DflabError(
            f"expected {dim * dim} entries for dimension {dim}, got {len(entries)}"
        )
    if widths - {2}:
        raise DflabError(f"entries must be [re, im] pairs, got lengths {sorted(widths)}")
    try:
        # struct reads numbers only, where np.asarray and np.fromiter would
        # parse a string (or a row given as one), and it is faster than both
        packed = struct.Struct(f"{2 * dim * dim}d").pack(*chain.from_iterable(entries))
    except struct.error:
        raise DflabError(_refused_cell(chain.from_iterable(entries))) from None
    flat = np.frombuffer(packed, np.float64).copy()
    if not np.isfinite(flat).all():
        raise DflabError("entries must be finite numbers")
    # a JSON true/false reads as 1.0/0.0, so only rows holding one are typed
    zero_or_one = (flat == 0.0) | (flat == 1.0)
    suspects = np.flatnonzero(zero_or_one[0::2] | zero_or_one[1::2]).tolist()
    if bool in set(map(type, chain.from_iterable(map(entries.__getitem__, suspects)))):
        raise DflabError("entries must be [re, im] number pairs, not booleans")
    # read-only and owning its data, so DecoherenceFunctional keeps it uncopied
    flat.flags.writeable = False
    return flat.view(np.complex128).reshape(dim, dim)


def df_to_dict(D: DecoherenceFunctional) -> dict[str, Any]:
    return {
        "dim": D.dim,
        "labels": list(D.space.labels),
        "factors": (
            [[name, card] for name, card in D.space.factors]
            if D.space.factors is not None
            else None
        ),
        "entries": matrix_to_entries(D.matrix),
    }


def df_from_dict(data: dict[str, Any]) -> DecoherenceFunctional:
    """Raw (unvalidated) DF from the standard file format."""
    try:
        dim = _count(data["dim"], "dim")
        labels = [str(lab) for lab in data["labels"]]
        factors = _factors(data.get("factors"))
        entries = data["entries"]
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise DflabError(f"malformed DF object: {exc}") from exc
    if len(labels) != dim:
        raise DflabError(f"label count {len(labels)} does not match dim {dim}")
    space = make_space(labels, factors)
    matrix = entries_to_matrix(entries, dim)
    return DecoherenceFunctional(space, matrix)


def save_df(D: DecoherenceFunctional, path: str | Path) -> None:
    Path(path).write_text(dump_json(df_to_dict(D)), encoding="utf-8")


def load_df(path: str | Path) -> DecoherenceFunctional:
    return df_from_dict(_read(path))


def behavior_to_dict(behavior: Behavior) -> dict[str, Any]:
    return {
        "m": behavior.settings,
        "d": behavior.outcomes,
        "P": behavior.table,
    }


def behavior_from_dict(data: dict[str, Any]) -> Behavior:
    try:
        m = _count(data["m"], "m")
        d = _count(data["d"], "d")
        rows = data["P"]
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise DflabError(f"malformed behavior object: {exc}") from exc
    try:
        cells = np.asarray(rows, dtype=object)
        # a ragged table leaves lists among the cells
        if not set(map(type, cells.flat)) <= {int, float}:
            raise TypeError("P cells must be numbers")
        table = cells.astype(np.float64)
    except OverflowError:  # a JSON integer beyond the float range
        raise DflabError(BEYOND_FLOAT) from None
    except (TypeError, ValueError) as exc:
        raise DflabError(f"malformed behavior object: {exc}") from exc
    return Behavior(m, d, table)


def save_behavior(behavior: Behavior, path: str | Path) -> None:
    Path(path).write_text(dump_json(behavior_to_dict(behavior)), encoding="utf-8")


def load_behavior(path: str | Path) -> Behavior:
    return behavior_from_dict(_read(path))


def model_to_dict(model: QuantumModel) -> dict[str, Any]:
    return {
        "dim": model.hilbert_dim,
        "rho": matrix_to_entries(model.rho),
        "alice": [
            [matrix_to_entries(P) for P in fam.projectors] for fam in model.alice
        ],
        "bob": [
            [matrix_to_entries(P) for P in fam.projectors] for fam in model.bob
        ],
    }


def model_from_dict(data: dict[str, Any]) -> QuantumModel:
    try:
        dim = _count(data["dim"], "dim")
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise DflabError(f"malformed quantum model object: {exc}") from exc
    try:
        rho = entries_to_matrix(data["rho"], dim)
        alice = tuple(
            ProjectorFamily(
                f"A{x}", tuple(entries_to_matrix(P, dim) for P in fam)
            )
            for x, fam in enumerate(data["alice"])
        )
        bob = tuple(
            ProjectorFamily(
                f"B{y}", tuple(entries_to_matrix(P, dim) for P in fam)
            )
            for y, fam in enumerate(data["bob"])
        )
    except (KeyError, TypeError) as exc:
        raise DflabError(f"malformed quantum model object: {exc}") from exc
    return QuantumModel(dim, rho, alice, bob)


def load_model(path: str | Path) -> QuantumModel:
    return model_from_dict(_read(path))


def _witness_indices(event: Event | None) -> list[int] | None:
    return None if event is None else list(event.indices)


def positivity_report_to_dict(report: PositivityReport) -> dict[str, Any]:
    return {
        "verdict": report.verdict.value,
        "witness": _witness_indices(report.witness),
        "witnessValue": report.witness_value,
        "vectorsChecked": report.vectors_checked,
        "strategy": report.strategy.value,
    }


def spectral_report_to_dict(report: SpectralReport) -> dict[str, Any]:
    return {
        "minEigenvalue": report.min_eigenvalue,
        "minEigenvector": matrix_to_entries(report.min_eigenvector),
        "isSP": report.is_sp,
        "residual": report.residual,
    }


def decoherence_report_to_dict(report: DecoherenceReport) -> dict[str, Any]:
    return {
        "mode": report.mode,
        "verdict": report.verdict,
        "probabilities": (
            None if report.probabilities is None else list(report.probabilities)
        ),
        "maxOffDiagonal": report.max_off_diagonal,
    }


def validation_report_to_dict(report: ValidationReport) -> dict[str, Any]:
    return {
        "hermitian": {"ok": report.hermitian, "maxDeviation": report.hermiticity_deviation},
        "normalization": {
            "ok": report.normalized,
            "value": [
                float(report.normalization_value.real),
                float(report.normalization_value.imag),
            ],
        },
        "weakPositivity": positivity_report_to_dict(report.weak),
        "strongPositivity": (
            None if report.strong is None else spectral_report_to_dict(report.strong)
        ),
        "level": LEVEL_NAMES[report.level],
    }


def composability_report_to_dict(report: ComposabilityReport) -> dict[str, Any]:
    return {
        "n": report.n,
        "strategy": report.strategy.value,
        "verdict": report.verdict.value,
        "witnessBlock": (
            None if report.witness_block is None else list(report.witness_block)
        ),
        "witnessIndices": (
            None if report.witness_indices is None else list(report.witness_indices)
        ),
        "witnessValue": report.witness_value,
    }


def lemma1_report_to_dict(report: Lemma1Report) -> dict[str, Any]:
    return {
        "params": {
            "lambda": report.params.lam,
            "epsilon": report.params.eps,
            "n": report.params.n,
        },
        "nCopyVerdict": positivity_report_to_dict(report.n_copy_verdict),
        "witnessValue": report.witness_value,
        "witnessValueNumeric": report.witness_value_numeric,
        "lemmaHolds": report.lemma_holds,
    }


def lemma2_report_to_dict(report: Lemma2Report) -> dict[str, Any]:
    return {
        "inputDim": report.input_dim,
        "minEigenvalue": report.min_eigenvalue,
        "v": matrix_to_entries(report.v),
        "partner": df_to_dict(report.partner),
        "witness": list(report.witness.indices),
        "lhs": report.lhs,
        "rhs": report.rhs,
        "matched": report.matched,
    }


def pnn_violation_to_dict(violation: PnnViolation | None) -> dict[str, Any]:
    if violation is None:
        return {"found": False, "partner": None, "witness": None, "value": None}
    return {
        "found": True,
        "partner": violation.partner,
        "witness": list(violation.witness.indices),
        "value": violation.value,
    }


def consistency_report_to_dict(report: ConsistencyReport) -> dict[str, Any]:
    return {
        "verdict": report.verdict,
        "worstDeviation": report.worst_deviation,
        "partitions": [
            {
                "kind": check.kind,
                "party": check.party,
                "x": check.x,
                "y": check.y,
                "g": None if check.g is None else list(check.g),
                "decoherence": decoherence_report_to_dict(check.decoherence),
                "behaviorDeviation": check.behavior_deviation,
            }
            for check in report.partitions
        ],
    }


_COMPACT = json.JSONEncoder(
    separators=(",", ":"), sort_keys=True, ensure_ascii=False
).encode


# Rows per joined block of _emit_float_rows: the text of one block is the
# only intermediate besides ``out``, so the peak stays near twice the output.
# Blocks of 1024 rows left the peak RSS of a process that saves dim-256 DFs
# about 1 MB higher in most runs, at the same speed.
_BLOCK_ROWS = 8192


def _emit_float_rows(rows: np.ndarray, level: int, out: list[str]) -> None:
    """Emit a non-empty, finite, 2-D float64 array at nesting ``level``.

    ``repr`` depends only on a float's bits, so each distinct bit pattern
    (``-0.0`` and ``0.0`` are two) is formatted once and its token reused.
    """
    width = rows.shape[1]
    bits, index = np.unique(rows.reshape(-1).view(np.uint64), return_inverse=True)
    tokens = np.array(
        list(map(float.__repr__, bits.view(np.float64).tolist())), dtype=object
    )
    inner = "\n" + "  " * (level + 1)
    item = inner + "  "
    # the separator before each token of a row; a row's first one also
    # closes the row before it
    seps = [inner + "]," + inner + "[" + item] + ["," + item] * (width - 1)
    out.append("[" + inner)
    step = _BLOCK_ROWS * width
    for start in range(0, index.size, step):
        block = tokens[index[start : start + step]].tolist()
        parts = [""] * (2 * len(block))
        parts[0::2] = seps * (len(block) // width)
        parts[1::2] = block
        if start == 0:
            parts[0] = "[" + item
        out.append("".join(parts))
    out.append(inner + "]\n" + "  " * level + "]")


def _emit(obj: Any, level: int, out: list[str]) -> None:
    """Append the indented text of ``obj`` at nesting ``level`` to ``out``."""
    if isinstance(obj, np.ndarray):
        if (
            obj.ndim == 2
            and obj.dtype == np.float64
            and obj.size
            and np.isfinite(obj).all()
        ):
            _emit_float_rows(obj, level, out)
        else:
            _emit(obj.tolist(), level, out)
        return
    if not isinstance(obj, (dict, list, tuple)) or not obj:
        out.append(_COMPACT(obj))
        return
    inner = "\n" + "  " * (level + 1)
    outer = "\n" + "  " * level
    if isinstance(obj, dict):
        sep = "{" + inner
        for key, value in sorted(obj.items()):
            # the key of a one-item dict, coerced and quoted as json does it
            out.append(sep + _COMPACT({key: None})[1:-6] + ": ")
            _emit(value, level + 1, out)
            sep = "," + inner
        out.append(outer + "}")
        return
    sep = "[" + inner
    for value in obj:
        out.append(sep)
        _emit(value, level + 1, out)
        sep = "," + inner
    out.append(outer + "]")


def dump_json(obj: Any) -> str:
    """Canonical JSON text: sorted keys, two-space indent, trailing newline.

    The bytes equal ``json.dumps(obj, indent=2, sort_keys=True,
    ensure_ascii=False, default=np.ndarray.tolist) + "\\n"``.
    """
    out: list[str] = []
    _emit(obj, 0, out)
    out.append("\n")
    return "".join(out)

"""Experiment presets, result persistence, and certificate storage.

An experiment names a list of shapes and the checks to run on each.  The
rows of a shape are a view of its ``pipeline.run_shape`` result: metric,
exact value, optional certificate hash, wall time, and a typed verdict
that decides the exit status.  Rows go to CSV and JSON under the output
directory, and every certificate is stored as a replayable file keyed by
content hash.  Reruns are byte-identical up to the wall-time column.
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import dataclass, replace
from fractions import Fraction
from pathlib import Path

import numpy as np

from .exact_lp import (
    DEFAULT_NODE_BUDGET,
    LpError,
    LpProblem,
    check_farkas,
    check_l1_bound,
    check_witness,
    problem_from_text,
)
from .pipeline import ALL_MODES, PRESET_PIVOT_BUDGET, Verdict, any_failed, run_shape
from .shapes import GroupShape, make_shape
from .threshold_analysis import DEFAULT_INPUT_CAP


@dataclass
class ExperimentSpec:
    name: str
    shapes: list  # list of GroupShape
    modes: tuple = ALL_MODES
    input_cap: int = DEFAULT_INPUT_CAP
    node_budget: int = DEFAULT_NODE_BUDGET
    pivot_budget: int = PRESET_PIVOT_BUDGET
    exponent_table_n: int | None = None  # used by the bound-exponent preset

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "shapes": [s.to_json() for s in self.shapes],
            "modes": list(self.modes),
            "input_cap": self.input_cap,
            "node_budget": self.node_budget,
            "pivot_budget": self.pivot_budget,
            "exponent_table_n": self.exponent_table_n,
        }


@dataclass
class ResultRow:
    experiment: str
    shape: str
    metric: str
    value: str
    certificate: str = ""
    wall_ms: int = 0
    verdict: Verdict | None = None  # not written; decides the exit status

    def as_list(self) -> list[str]:
        return [
            self.experiment,
            self.shape,
            self.metric,
            self.value,
            self.certificate,
            str(self.wall_ms),
        ]


CSV_HEADER = ["experiment", "shape", "metric", "value", "certificate", "wall_ms"]


# ---------------------------------------------------------------------------
# Certificate files
# ---------------------------------------------------------------------------


class CertStore:
    def __init__(self, root: Path):
        self.root = root
        root.mkdir(parents=True, exist_ok=True)

    def put(self, payload: dict) -> str:
        data = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        digest = hashlib.sha256(data.encode()).hexdigest()[:16]
        path = self.root / f"{digest}.json"
        if not path.exists():
            path.write_text(data + "\n")
        return digest


def _vector(item: dict) -> list:
    """The multipliers, each distinct token parsed once (a vector repeats a
    few values, mostly 0), the token "0" as the int 0, which the checkers
    skip at C speed."""
    tokens = item["vector"]
    parsed = {t: 0 if t == "0" else Fraction(t) for t in set(tokens)}
    return list(map(parsed.__getitem__, tokens))


def _check_item(kind: str, item: dict, value) -> bool:
    problem = problem_from_text(item["problem"])
    vector = _vector(item)
    if kind == "farkas":
        return check_farkas(problem, vector)
    if kind == "witness":
        return check_witness(problem, vector)
    if kind == "l1-bound":
        return check_l1_bound(problem, vector, Fraction(value))
    raise ValueError(f"unknown certificate kind {kind!r}")


def _check_batch(obj: dict) -> bool:
    """Each item's Farkas vector over the base LP, parsed once, plus that
    item's one row, parsed under the base's ``vars N`` header.  A row that
    is not exactly one well-formed line fails the batch."""
    base = problem_from_text(obj["problem"])
    if not obj["items"]:
        return False
    for item in obj["items"]:
        row = problem_from_text(f"vars {base.num_vars}\n{item['row']}")
        if len(row.constraints) != 1:
            return False
        rows = np.concatenate((base.constraints, row.constraints))
        problem = LpProblem(base.num_vars, rows, np.concatenate((base.le, row.le)))
        if not check_farkas(problem, _vector(item)):
            return False
    return True


def replay_certificate(path) -> bool:
    """Re-verify a stored certificate with the independent checkers.

    Kinds: ``farkas`` (no solution), ``witness`` (a solution), ``l1-bound``
    (a lower bound on sum |x|), and ``farkas-batch`` (a base LP stored
    once, and one Farkas vector per item over that LP plus the item's one
    row, all of which must check).  A malformed file is rejected (False);
    only an ``OSError`` from reading it is raised.
    """
    data = Path(path).read_bytes()
    try:
        obj = json.loads(data)
        if obj["kind"] == "farkas-batch":
            return _check_batch(obj)
        return _check_item(obj["kind"], obj, obj.get("value"))
    except (ArithmeticError, AttributeError, KeyError, LpError, TypeError, ValueError):
        return False


# ---------------------------------------------------------------------------
# Per-shape rows
# ---------------------------------------------------------------------------


def _run_shape(spec: ExperimentSpec, shape: GroupShape, store: CertStore) -> list[ResultRow]:
    res = run_shape(
        shape,
        spec.modes,
        input_cap=spec.input_cap,
        node_budget=spec.node_budget,
        pivot_budget=spec.pivot_budget,
    )
    tag = shape.describe()
    return [
        ResultRow(
            spec.name,
            tag,
            fd.metric,
            str(fd.value),
            "" if fd.certificate is None else store.put(fd.certificate.payload()),
            0 if fd.seconds is None else int(1000 * fd.seconds),
            fd.verdict,
        )
        for fd in res.findings
    ]


def _exponent_table_rows(spec: ExperimentSpec) -> list[ResultRow]:
    """Compare the bound exponent (k-1)^(n/k) across block sizes k.

    Uses exact integer comparison: (k1-1)^(n/k1) vs (k2-1)^(n/k2) by
    cross-raising to a common power.  With n a multiple of each k the
    entries are exact integers.
    """
    n = spec.exponent_table_n or 105
    rows = []
    values = {}
    for k in (3, 5, 7):
        if n % k:
            continue
        values[k] = (k - 1) ** (n // k)
        rows.append(ResultRow(spec.name, f"k={k}", "bound_exponent", str(values[k])))
    ok = 5 in values and all(values[5] > v for k, v in values.items() if k != 5)
    verdict = Verdict.PASS if ok else Verdict.FAIL
    rows.append(ResultRow(spec.name, f"n={n}", "k5_is_max", verdict.value, verdict=verdict))
    return rows


# ---------------------------------------------------------------------------
# Running experiments
# ---------------------------------------------------------------------------


def run(spec: ExperimentSpec, out_dir) -> tuple[list[ResultRow], int]:
    """Execute an experiment; write CSV, JSON and certificates; return rows
    plus the exit status (nonzero iff an asserted verdict failed)."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    store = CertStore(out / "certs")

    rows: list[ResultRow] = []
    if spec.exponent_table_n is not None:
        rows.extend(_exponent_table_rows(spec))
    for shape in spec.shapes:
        rows.extend(_run_shape(spec, shape, store))

    csv_path = out / f"{spec.name}.csv"
    with csv_path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        for row in rows:
            writer.writerow(row.as_list())
    json_path = out / f"{spec.name}.json"
    json_path.write_text(
        json.dumps(
            {"spec": spec.to_json(), "rows": [r.as_list() for r in rows]},
            indent=2,
        )
        + "\n"
    )
    return rows, (1 if any_failed(r.verdict for r in rows) else 0)


# ---------------------------------------------------------------------------
# Presets
# ---------------------------------------------------------------------------


# every preset, in the order of their pinned digests
_PRESETS = {
    spec.name: spec
    for spec in (
        ExperimentSpec("weak-2-3", [make_shape("weak", (2, 3))]),
        ExperimentSpec("weak-2-2-3", [make_shape("weak", (2, 2, 3))], ("verify-gate", "theorem")),
        ExperimentSpec("weak-4-3", [make_shape("weak", (4, 3))], ("verify-gate", "theorem")),
        ExperimentSpec("strong-3-3", [make_shape("strong", (3, 3))], ("verify-gate", "signdeg")),
        ExperimentSpec(
            "strong-5-3", [make_shape("strong", (5, 3))], ("verify-gate", "signdeg", "minweight-lp", "theorem")
        ),
        ExperimentSpec("gt-lemmas-k6", [make_shape("weak", (k,)) for k in range(2, 7)], ("lemmas",)),
        ExperimentSpec("g-lemmas", [make_shape("strong", (k, 3)) for k in (3, 5)], ("lemmas",)),
        ExperimentSpec("k5-optimal", [], (), exponent_table_n=105),
    )
}
PRESET_NAMES = tuple(_PRESETS)


def preset(name: str) -> ExperimentSpec:
    """A fresh copy of the named preset, free for the caller to change."""
    if name not in _PRESETS:
        raise KeyError(f"unknown preset {name!r}")
    spec = _PRESETS[name]
    return replace(spec, shapes=list(spec.shapes))

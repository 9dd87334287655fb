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

from . import exact_lp, threshold_analysis
from .boolfun import make_hard
from .exact_lp import DEFAULT_NODE_BUDGET, LpError, check_farkas, check_l1_bound, check_witness
from .pipeline import ALL_MODES, Verdict, any_failed, run_shape
from .shapes import GroupShape, make_shape
from .threshold_analysis import build_representation_problem, check_representation_caps, lemma_lps


@dataclass
class ExperimentSpec:
    name: str
    shapes: list  # list of GroupShape
    modes: tuple = ALL_MODES
    node_budget: int = DEFAULT_NODE_BUDGET
    exponent_table_n: int | None = None  # used by the bound-exponent preset

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "shapes": [s.to_json() for s in self.shapes],
            "modes": list(self.modes),
            "input_cap": threshold_analysis.INPUT_CAP,
            "node_budget": self.node_budget,
            "pivot_budget": exact_lp.PIVOT_BUDGET,
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


def _count(value) -> int:
    """An integer field of a certificate: a JSON integer >= 0, so neither a
    bool nor a float that ``int`` would round (2.5 must not read as 2)."""
    if type(value) is not int or value < 0:
        raise ValueError(f"{value!r} is not an integer >= 0")
    return value


def _rational(token) -> Fraction:
    """A rational written as text, such as "183/2"."""
    if type(token) is not str:
        raise TypeError(f"{token!r} is not a rational as text")
    return Fraction(token)


def _vector(multipliers: dict, rows: int) -> list:
    """The dense vector of a sparse multiplier map {row index: value}: each
    index the plain decimal of a row below ``rows``, so "-1" does not reach
    the last row nor "07" the seventh, every other entry the int 0."""
    if type(multipliers) is not dict:
        raise TypeError("multipliers are a map from row index to value")
    vector = [0] * rows
    for key, value in multipliers.items():
        i = int(key)
        if str(i) != key or not 0 <= i < rows:
            raise ValueError(f"no row {key!r} among {rows}")
        vector[i] = _rational(value)
    return vector


def _replay_representation(obj: dict) -> bool:
    """A claim on the degree-d representation LP of a shape's hard function:
    no gate (farkas), a lower bound on the LP weight (l1-bound), or an
    integer gate of weight W (witness).  The caps are checked on the claim
    before the function or its LP is built."""
    kind = obj["kind"]
    if kind not in ("farkas", "l1-bound", "witness"):
        raise ValueError(f"unknown certificate kind {kind!r}")
    shape = make_shape(obj["shape"]["variant"], [_count(k) for k in obj["shape"]["ks"]])
    degree = _count(obj["degree"])
    check_representation_caps(shape.n, degree)
    problem = build_representation_problem(make_hard(shape), degree).problem
    if kind == "witness":
        x = obj["vector"]
        if type(x) is not list or not all(type(v) is int for v in x) or sum(map(abs, x)) != _count(obj["weight"]):
            return False
        return check_witness(problem, x)
    vector = _vector(obj["multipliers"], len(problem.constraints))
    if kind == "farkas":
        return check_farkas(problem, vector)
    return check_l1_bound(problem, vector, _rational(obj["value"]))


def _replay_batch(obj: dict) -> bool:
    """A coefficient lemma at k: one Farkas vector per inequality it
    asserts, matched item for item against ``lemma_lps``, each over the
    base plus that inequality's negated row.  A missing or extra item
    rejects the file; no item replays exactly when the lemma asserts
    nothing."""
    base, negations = lemma_lps(obj["lemma"], _count(obj["k"]))
    items = obj["items"]
    if type(items) is not list or len(items) != len(negations):
        return False
    rows = len(base.constraints) + 1
    return all(check_farkas(base.extended(*row), _vector(m, rows)) for (_, *row), m in zip(negations, items))


def replay_certificate(path) -> bool:
    """Re-verify a stored certificate with the independent checkers, on LPs
    rebuilt from the claim it names.

    Kinds: ``farkas`` (no gate), ``l1-bound`` (a lower bound on sum |x|)
    and ``witness`` (an integer gate of weight W) name a shape and a
    degree; ``farkas-batch`` names a lemma and k.  A malformed file, or one
    whose claim is past a budget, is rejected (False); only an ``OSError``
    from reading it is raised.
    """
    data = Path(path).read_bytes()
    try:
        obj = json.loads(data)
        if obj["kind"] == "farkas-batch":
            return _replay_batch(obj)
        return _replay_representation(obj)
    except (ArithmeticError, AttributeError, KeyError, LpError, TypeError, ValueError):
        return False


# ---------------------------------------------------------------------------
# Per-shape rows
# ---------------------------------------------------------------------------


def _run_shape(spec: ExperimentSpec, shape: GroupShape, store: CertStore, lemma_memo: dict) -> list[ResultRow]:
    res = run_shape(shape, spec.modes, spec.node_budget, lemma_memo)
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
    n = spec.exponent_table_n
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
    plus the exit status (nonzero iff an asserted verdict failed).  The
    shapes share one lemma memo, which lives as long as the call."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    store = CertStore(out / "certs")

    rows: list[ResultRow] = []
    if spec.exponent_table_n is not None:
        rows.extend(_exponent_table_rows(spec))
    lemma_memo: dict = {}  # one per run: a (lemma, k) that several shapes repeat is certified once
    for shape in spec.shapes:
        rows.extend(_run_shape(spec, shape, store, lemma_memo))

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

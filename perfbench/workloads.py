"""The four benchmark workloads and the verdicts each pass must reproduce.

A workload is an ``ExperimentSpec`` handed to ``harness.run``.  The seed
only permutes the order of shapes inside the spec; no verdict depends on
it.  Every expected value below is owned by the benchmark, so a change to
the library cannot move the goal posts.
"""

from __future__ import annotations

import csv
import json
import random
from fractions import Fraction
from pathlib import Path

# Node budget of the branch-and-bound workload.  At 150 nodes strong(3,2)
# ends SKIPPED with bounds [6, 22] after about 4 s on a 2-core x86 host.
BNB_NODE_BUDGET = 150

WORKLOADS = ("preset-weak23", "bnb-strong", "lemma-sweep", "gate-sweep")

# Exact values keyed by (variant, ks).  Gate weights follow the witness-gate
# formula; the weak(2,3) values are the paper's degree-2 instance.
GATE_WEIGHT = {
    ("weak", (2, 3)): "504",
    ("weak", (2, 2, 3)): "65520",
    ("weak", (4, 3)): "32760",
    ("strong", (5, 3)): "229376",
    ("weak", (3, 3, 3)): "2147483632",
    ("weak", (2, 2, 2, 3)): "536870880",
}
SIGN_DEGREE = {("weak", (2, 3)): 2}
LP_WEIGHT = {("weak", (2, 3)): "183/2"}
EXACT_WEIGHT = {("weak", (2, 3)): "92"}
# Budget-limited exact weights: SKIPPED, or an exact W inside these bounds
# whose gate sign-represents the function.
EXACT_WEIGHT_BOUNDS = {("strong", (3, 2)): (6, 22)}

PASSING = frozenset({"PASS", "CERTIFIED"})


def build_spec(workload: str, seed: int, small: bool = False):
    """The workload's spec with its shapes permuted by ``seed``.

    ``small`` gives a reduced variant that runs in about a second, for the
    self-test; it keeps every layer of the full workload in play.
    """
    from ptflab import harness
    from ptflab.shapes import make_shape

    if workload == "preset-weak23":
        spec = harness.preset("weak-2-3")
        if small:
            spec.modes = ("verify-gate", "lemmas", "theorem")
    elif workload == "bnb-strong":
        spec = harness.ExperimentSpec(
            "bnb-strong",
            [make_shape("strong", (3, 2))],
            modes=("minweight-exact",),
            node_budget=5 if small else BNB_NODE_BUDGET,
        )
    elif workload == "lemma-sweep":
        weak_ks = range(2, 4) if small else range(2, 8)
        strong_ks = (3,) if small else (3, 5, 7, 9)
        spec = harness.ExperimentSpec(
            "lemma-sweep",
            [make_shape("weak", (k,)) for k in weak_ks]
            + [make_shape("strong", (k, 3)) for k in strong_ks],
            modes=("lemmas",),
        )
    elif workload == "gate-sweep":
        shapes = [
            make_shape("weak", (2, 2, 3)),
            make_shape("weak", (4, 3)),
            make_shape("strong", (5, 3)),
        ]
        if not small:
            shapes += [make_shape("weak", (3, 3, 3)), make_shape("weak", (2, 2, 2, 3))]
        spec = harness.ExperimentSpec("gate-sweep", shapes, modes=("verify-gate", "theorem"))
    else:
        raise KeyError(f"unknown workload {workload!r}")
    spec.shapes = list(spec.shapes)
    random.Random(seed).shuffle(spec.shapes)
    return spec


def _lemma_plan(shape) -> list[tuple[str, int]]:
    plan = [("gt_exp", shape.ks[-1]), ("gt_step", shape.ks[-1])]
    if shape.variant.value == "strong":
        for k in sorted(set(shape.ks[:-1])):
            plan += [("g1_pos", k), ("g1_mono", k), ("g0_all", k)]
    return plan


def expected_verdicts(spec) -> dict:
    """(shape tag, metric) -> expected value: a string, a set of accepted
    strings, or a callable ``check(row, out_dir) -> bool``."""
    table: dict = {}
    for shape in spec.shapes:
        key = (shape.variant.value, tuple(shape.ks))
        tag = shape.describe()
        modes = spec.modes
        if "verify-gate" in modes:
            table[tag, "verify_gate"] = "PASS"
            table[tag, "gate_weight"] = GATE_WEIGHT[key]
            if shape.variant.value == "weak":
                table[tag, "gate_weight_formula"] = "PASS"
            table[tag, "basis_change"] = "PASS"
        if "signdeg" in modes:
            for dd in range(SIGN_DEGREE[key]):
                table[tag, f"signdeg_infeasible_d{dd}"] = PASSING
            table[tag, "sign_degree"] = str(SIGN_DEGREE[key])
        if "minweight-lp" in modes:
            table[tag, "minweight_lp"] = LP_WEIGHT[key]
        if "minweight-exact" in modes:
            if key in EXACT_WEIGHT:
                table[tag, "minweight_exact"] = EXACT_WEIGHT[key]
                if "theorem" in modes:
                    table[tag, "theorem_vs_exact"] = PASSING
                    if not shape.theorem_violations():
                        table[tag, "domination_chain"] = PASSING
            else:
                table[tag, "minweight_exact"] = _bounded_exact_check(shape, *EXACT_WEIGHT_BOUNDS[key])
        if "lemmas" in modes:
            for lemma, k in _lemma_plan(shape):
                table[tag, f"lemma_{lemma}_k{k}"] = PASSING
    return table


def _bounded_exact_check(shape, low: int, high: int):
    def check(row: dict, out_dir: Path) -> bool:
        if row["value"] == "SKIPPED":
            return True
        weight = int(row["value"])
        if not low <= weight <= high:
            return False
        return _gate_in_certificate_represents(shape, weight, out_dir / "certs" / f"{row['certificate']}.json")

    return check


def _gate_in_certificate_represents(shape, weight: int, cert_path: Path) -> bool:
    """Rebuild the integer gate stored in a witness certificate and check it
    on every input of the hard function."""
    from ptflab.boolfun import make_hard
    from ptflab.threshold_analysis import build_representation_problem, check_sign_representation

    vector = [Fraction(v) for v in json.loads(cert_path.read_text())["vector"]]
    f = make_hard(shape)
    gate = build_representation_problem(f, shape.d, shape=shape).witness_polynomial(vector)
    return gate.weight == weight and check_sign_representation(gate, f) is None


def check_pass(spec, out_dir: Path) -> tuple[int, int, list[str]]:
    """Compare the CSV a pass wrote with the expected verdicts.

    Returns (attempted, failed, problems).  Missing rows, wrong values and
    any other row reading FAIL count as failed verdicts.
    """
    table = expected_verdicts(spec)
    with (out_dir / f"{spec.name}.csv").open(newline="") as fh:
        rows = {(r["shape"], r["metric"]): r for r in csv.DictReader(fh)}
    attempted, failed, problems = 0, 0, []
    for (tag, metric), want in table.items():
        attempted += 1
        row = rows.get((tag, metric))
        if row is None:
            ok = False
        elif callable(want):
            try:
                ok = want(row, out_dir)
            except (ValueError, KeyError, OSError) as exc:
                problems.append(f"{tag} {metric}: check raised {exc!r}")
                ok = False
        elif isinstance(want, frozenset):
            ok = row["value"] in want
        else:
            ok = row["value"] == want
        if not ok:
            failed += 1
            got = None if row is None else row["value"]
            problems.append(f"{tag} {metric}: got {got!r}")
    for key, row in rows.items():
        if key not in table and row["value"].startswith("FAIL"):
            attempted += 1
            failed += 1
            problems.append(f"{key[0]} {key[1]}: got {row['value']!r}")
    return attempted, failed, problems


def verdict_count(spec) -> int:
    return len(expected_verdicts(spec))

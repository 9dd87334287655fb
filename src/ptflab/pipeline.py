"""One pipeline from a group shape to its verdicts.

``run_shape`` computes what the requested modes ask for and nothing more:
the hard function, its witness gate, and the representation LPs, each
built and solved once.  It returns one ``ShapeResult``: every verdict in
order as ``Finding`` records, with the values and certificates behind them,
and ``verdicts`` and ``ok`` to read them by CSV metric name.  The harness
writes the findings as CSV rows and certificate files.  Running out of any
budget (pivots, branch-and-bound nodes, input cap) turns a finding into
SKIPPED plus a ``<metric>_note`` naming the budget.
"""

from __future__ import annotations

import contextlib
import functools
import time
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction

import numpy as np

from .boolfun import make_hard
from .exact_lp import DEFAULT_NODE_BUDGET, BudgetError, LpProblem, _format_rows, problem_to_text
from .polynomial import symmetric_coefficient, symmetrize, to_uv, witness_gate
from .shapes import GroupShape, Variant
from .threshold_analysis import (
    DEFAULT_INPUT_CAP,
    HypothesisError,
    RepresentationLadder,
    certify_coefficient_lemma,
    check_input_cap,
    check_sign_representation,
    theorem_bound,
)
from .tuple_order import OrderContext, OrderError, dominance_chain

ALL_MODES = ("verify-gate", "signdeg", "minweight-lp", "minweight-exact", "lemmas", "theorem")
# the pivot budget of a preset's LPs; every results JSON records it
PRESET_PIVOT_BUDGET = 400_000


class Verdict(str, Enum):
    PASS = "PASS"
    CERTIFIED = "CERTIFIED"
    SKIPPED = "SKIPPED"
    FAIL = "FAIL"

    def __str__(self) -> str:
        return self.value


def any_failed(verdicts) -> bool:
    """The failure predicate of exit statuses and ``ShapeResult.ok``."""
    return any(v is not None and Verdict(v) is Verdict.FAIL for v in verdicts)


def _passed(ok: bool, good: Verdict = Verdict.PASS) -> Verdict:
    return good if ok else Verdict.FAIL


@dataclass(frozen=True)
class Certificate:
    """A stored proof of one finding: LPs with exact vectors to re-check."""

    kind: str  # farkas | witness | l1-bound | farkas-batch
    claim: str
    items: tuple  # (LpProblem, vector) pairs; exactly one unless farkas-batch
    value: Fraction | None = None  # the bound an l1-bound certificate proves
    base: LpProblem | None = None  # the LP a farkas-batch's problems each extend by one row

    def payload(self) -> dict:
        def vector(values) -> list:
            # most multipliers are the int 0, which tests false without a
            # Python call; every zero is written as the one string "0" (a
            # str(0) per zero would be a new object each)
            return [str(v) if v else "0" for v in values]

        out = {"kind": self.kind, "claim": self.claim}
        if self.kind == "farkas-batch":
            # the base once, then each item's last row: base text plus that
            # line is the text of the item's problem; the rows are formatted
            # in one call, line by line, so each line is that row's own
            out["problem"] = problem_to_text(self.base)
            problems = [p for p, _ in self.items] or [LpProblem(self.base.num_vars)]  # no item: no row
            last = np.concatenate([p.constraints[-1:] for p in problems])
            rows = _format_rows(last, np.concatenate([p.le[-1:] for p in problems]))
            out["items"] = [{"row": row, "vector": vector(lam)} for row, (_, lam) in zip(rows, self.items)]
            return out
        problem, values = self.items[0]
        out.update(problem=problem_to_text(problem), vector=vector(values))
        if self.value is not None:
            out["value"] = str(self.value)
        return out


@dataclass
class Finding:
    metric: str
    value: object
    verdict: Verdict | None = None  # None on data rows
    certificate: Certificate | None = None
    seconds: float | None = None  # wall time of the step, on timed rows


@dataclass
class ShapeResult:
    shape: GroupShape
    findings: list = field(default_factory=list)
    gate_weight: int | None = None
    sign_degree: int | None = None
    lp_weight: Fraction | None = None
    exact_weight: int | None = None
    theorem_value: int | None = None

    @property
    def verdicts(self) -> dict:
        """Metric -> verdict of every finding that has one, in finding order."""
        return {fd.metric: fd.verdict for fd in self.findings if fd.verdict is not None}

    @property
    def ok(self) -> bool:
        return not any_failed(self.verdicts.values())

    def add(self, metric, value, verdict=None, certificate=None, started=None) -> None:
        seconds = None if started is None else time.monotonic() - started
        self.findings.append(Finding(metric, value, verdict, certificate, seconds))

    def check(self, metric: str, ok: bool) -> None:
        self.add(metric, "PASS" if ok else "FAIL", _passed(ok))

    @contextlib.contextmanager
    def step(self, metric: str):
        """Time a step; a budget running out inside it becomes SKIPPED."""
        started = time.monotonic()
        try:
            yield started
        except BudgetError as exc:
            self.add(metric, "SKIPPED", Verdict.SKIPPED, started=started)
            self.add(f"{metric}_note", str(exc))


def lemma_plan(shape: GroupShape) -> list[tuple[str, int]]:
    plan = [("gt_exp", shape.ks[-1]), ("gt_step", shape.ks[-1])]
    if shape.variant is Variant.STRONG:
        for k in sorted(set(shape.ks[:-1])):
            plan += [("g1_pos", k), ("g1_mono", k), ("g0_all", k)]
    return plan


def run_shape(
    shape: GroupShape,
    modes=ALL_MODES,
    input_cap: int = DEFAULT_INPUT_CAP,
    node_budget: int = DEFAULT_NODE_BUDGET,
    pivot_budget: int = PRESET_PIVOT_BUDGET,
) -> ShapeResult:
    """Every verdict the modes ask for on one shape, in CSV row order."""
    res = ShapeResult(shape)
    tag = shape.describe()
    d = shape.d

    @functools.cache
    def hard():
        check_input_cap(shape.n, input_cap)
        return make_hard(shape)

    gate = functools.cache(lambda: witness_gate(shape))
    ladder = functools.cache(
        lambda: RepresentationLadder(hard(), shape, input_cap=input_cap, max_pivots=pivot_budget)
    )

    if "verify-gate" in modes:
        with res.step("verify_gate") as t0:
            f = hard()  # the input cap, before any gate is built
            g = gate()
            res.gate_weight = g.weight
            cx = check_sign_representation(g, f, input_cap=input_cap)
            value = "PASS" if cx is None else f"FAIL@{cx.index}"
            res.add("verify_gate", value, _passed(cx is None), started=t0)
            res.add("gate_weight", g.weight)
            if shape.variant is Variant.WEAK:
                res.check("gate_weight_formula", g.weight == (1 << d) * ((1 << (shape.size_K + 1)) - 2))
            cap = (1 << d) if shape.variant is Variant.WEAK else shape.n**d
            res.check("basis_change", to_uv(g).weight <= cap * g.weight)

    if "signdeg" in modes:
        with res.step("sign_degree") as t0:
            for dd in range(d + 1):
                prob, out = ladder().solve(dd)
                if out.status != "infeasible":
                    res.sign_degree = dd
                    break
                # the solver re-checked the Farkas vector before returning it
                cert = Certificate("farkas", f"{tag}: no degree-{dd} gate", ((prob.problem, out.farkas),))
                res.add(f"signdeg_infeasible_d{dd}", "CERTIFIED", Verdict.CERTIFIED, cert)
            ok = res.sign_degree == d
            value = res.sign_degree if ok else f"FAIL({res.sign_degree})"
            res.add("sign_degree", value, _passed(ok), started=t0)

    if "minweight-lp" in modes:
        with res.step("minweight_lp") as t0:
            prob, out = ladder().solve(d)
            res.lp_weight = out.value
            cert = verdict = None
            if out.status == "optimal":
                claim = f"{tag}: degree-{d} weight lower bound"
                cert = Certificate("l1-bound", claim, ((prob.problem, out.dual),), out.value)
                verdict = Verdict.CERTIFIED
            res.add("minweight_lp", out.value, verdict, cert, started=t0)

    exact_witness = None
    if "minweight-exact" in modes:
        with res.step("minweight_exact") as t0:
            ex = ladder().exact_weight(d, node_budget, incumbent=gate())
            res.exact_weight, exact_witness = ex.value, ex.witness
            cert = None
            if ex.value is not None:
                prob = ladder().solve(d)[0]
                claim = f"{tag}: integer gate of weight {ex.value}"
                cert = Certificate("witness", claim, ((prob.problem, ex.ilp.witness),))
            res.add("minweight_exact", ex.value, None, cert, started=t0)
            res.add("bb_nodes", ex.ilp.nodes)
    ladder.cache_clear()  # no step after this one solves an LP of f

    if "theorem" in modes:
        try:
            res.theorem_value = theorem_bound(shape)
            res.add("theorem_bound", res.theorem_value)
            if res.exact_weight is not None:
                res.check("theorem_vs_exact", res.theorem_value <= res.exact_weight)
            elif res.lp_weight is not None:
                res.add("theorem_vs_lp", f"lp={res.lp_weight},bound={res.theorem_value}")
        except HypothesisError as exc:
            res.add("theorem_bound", f"not asserted ({exc})")
        if exact_witness is not None and not shape.theorem_violations():
            try:
                chain = dominance_chain(OrderContext(shape), 1)
                q = symmetrize(to_uv(exact_witness))
                w_a = symmetric_coefficient(q, chain.alpha)
                w_b = symmetric_coefficient(q, chain.beta)
                ok = w_a > 0 and w_b >= chain.factor * w_a
                detail = f"w_a={w_a},w_b={w_b},factor={chain.factor}"
            except OrderError as exc:
                ok, detail = False, f"chain replay failed: {exc}"
            res.add("domination_chain", "PASS" if ok else f"FAIL({detail})", _passed(ok))

    if "lemmas" in modes:
        for lemma, k in lemma_plan(shape):
            metric = f"lemma_{lemma}_k{k}"
            with res.step(metric) as t0:
                cr = certify_coefficient_lemma(lemma, k, max_pivots=pivot_budget, input_cap=input_cap)
                ok = cr.status == "CERTIFIED"
                cert = None
                if ok:
                    items = tuple((c.problem, c.farkas) for c in cr.checks)
                    cert = Certificate("farkas-batch", f"{lemma} k={k}", items, base=cr.base)
                res.add(metric, cr.status, _passed(ok, Verdict.CERTIFIED), cert, started=t0)

    return res


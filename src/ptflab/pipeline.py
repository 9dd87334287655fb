"""One pipeline from a group shape to its verdicts.

``run_shape`` computes what the requested modes ask for and nothing more:
the hard function, its witness gate, and the representation LPs, each
built and solved once, and the coefficient lemmas of its plan, certified
by ``threshold_analysis.certify_lemmas``: one base LP and one walk per
(base, k), for every lemma on that base.  A lemma memo shared by the
shapes of one run (``harness.run`` passes one) certifies a (lemma, k)
that several shapes repeat once per run.  It returns one
``ShapeResult``: every verdict in order as ``Finding`` records, with the
values and certificates behind them, and ``verdicts`` and ``ok`` to read
them by CSV metric name.  The harness writes the findings as CSV rows
and certificate files.  Running out of any budget (branch-and-bound
nodes, the one a caller sets, or a module constant:
``threshold_analysis.INPUT_CAP`` and ``LP_ENTRY_CAP``, ``exact_lp.PIVOT_BUDGET``)
turns a finding into SKIPPED plus a ``<metric>_note`` naming the budget;
a lemma's budget error skips every lemma on the same base and k.
"""

from __future__ import annotations

import contextlib
import functools
import time
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from itertools import compress

from .boolfun import make_hard
from .exact_lp import DEFAULT_NODE_BUDGET, BudgetError
from .polynomial import symmetric_coefficient, symmetrize, to_uv, witness_gate
from .shapes import GroupShape, Variant
from .threshold_analysis import (
    HypothesisError,
    RepresentationLadder,
    certify_lemmas,
    check_input_cap,
    check_sign_representation,
    theorem_bound,
)
from .tuple_order import OrderContext, OrderError, dominance_chain

ALL_MODES = ("verify-gate", "signdeg", "minweight-lp", "minweight-exact", "lemmas", "theorem")


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


def _sparse(vector) -> dict:
    """The nonzero entries of a multiplier vector, {row index: value}, as
    JSON text; most multipliers are the int 0, which ``compress`` skips at C
    speed."""
    return {str(i): str(vector[i]) for i in compress(range(len(vector)), vector)}


@dataclass(frozen=True)
class Certificate:
    """A stored proof of one finding: the claim that determines its LPs (a
    shape and degree, or a lemma and k) and the exact vectors that replay
    checks on the LPs it rebuilds from that claim."""

    kind: str  # farkas | l1-bound | witness | farkas-batch
    vectors: tuple  # one per LP: exactly one unless farkas-batch
    shape: GroupShape | None = None  # with degree: a representation LP
    degree: int | None = None
    lemma: str | None = None  # with k: a lemma's negated inequalities
    k: int | None = None
    value: Fraction | int | None = None  # the l1-bound's bound, or the witness's weight W

    def payload(self) -> dict:
        """The JSON object of the certificate's file, which
        ``harness.replay_certificate`` reads: the claim, and each vector of
        multipliers as a sparse map (a witness's gate as a dense vector)."""
        if self.kind == "farkas-batch":
            return {"kind": self.kind, "lemma": self.lemma, "k": self.k, "items": list(map(_sparse, self.vectors))}
        (vector,) = self.vectors
        out = {"kind": self.kind, "shape": self.shape.to_json(), "degree": self.degree}
        if self.kind == "witness":
            out.update(vector=[int(v) for v in vector], weight=self.value)
            return out
        out["multipliers"] = _sparse(vector)
        if self.kind == "l1-bound":
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


def _lemma_verdict(got):
    """What a lemma memo keeps of a ``certify_lemmas`` result: its status
    and certificate (None unless CERTIFIED), or its budget error."""
    if isinstance(got, BudgetError):
        return got
    cert = None
    if got.status == "CERTIFIED":
        cert = Certificate("farkas-batch", tuple(c.farkas for c in got.checks), lemma=got.lemma, k=got.k)
    return got.status, cert


def run_shape(
    shape: GroupShape, modes=ALL_MODES, node_budget: int = DEFAULT_NODE_BUDGET, lemma_memo: dict | None = None
) -> ShapeResult:
    """Every verdict the modes ask for on one shape, in CSV row order.

    ``lemma_memo`` maps (lemma, k) to the (status, certificate) of a lemma
    already certified, or to its budget error; the lemmas of the shape's
    plan that it lacks are certified in one ``certify_lemmas`` call and
    added to it.  Without one, the call shares nothing with any other."""
    res = ShapeResult(shape)
    d = shape.d

    @functools.cache
    def hard():
        check_input_cap(shape.n)
        return make_hard(shape)

    gate = functools.cache(lambda: witness_gate(shape))
    ladder = functools.cache(lambda: RepresentationLadder(hard(), shape))

    if "verify-gate" in modes:
        with res.step("verify_gate") as t0:
            f = hard()  # the input cap, before any gate is built
            g = gate()
            res.gate_weight = g.weight
            cx = check_sign_representation(g, f)
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
                out = ladder().solve(dd)[1]
                if out.status != "infeasible":
                    res.sign_degree = dd
                    break
                # the solver re-checked the Farkas vector before returning it
                cert = Certificate("farkas", (out.farkas,), shape, dd)
                res.add(f"signdeg_infeasible_d{dd}", "CERTIFIED", Verdict.CERTIFIED, cert)
            ok = res.sign_degree == d
            value = res.sign_degree if ok else f"FAIL({res.sign_degree})"
            res.add("sign_degree", value, _passed(ok), started=t0)

    if "minweight-lp" in modes:
        with res.step("minweight_lp") as t0:
            out = ladder().solve(d)[1]
            res.lp_weight = out.value
            cert = verdict = None
            if out.status == "optimal":
                cert = Certificate("l1-bound", (out.dual,), shape, d, value=out.value)
                verdict = Verdict.CERTIFIED
            res.add("minweight_lp", out.value, verdict, cert, started=t0)

    exact_witness = None
    if "minweight-exact" in modes:
        with res.step("minweight_exact") as t0:
            ex = ladder().exact_weight(d, node_budget, incumbent=gate())
            res.exact_weight, exact_witness = ex.value, ex.witness
            cert = None
            if ex.value is not None:
                cert = Certificate("witness", (ex.ilp.witness,), shape, d, value=ex.value)
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
        plan = lemma_plan(shape)
        memo = {} if lemma_memo is None else lemma_memo
        for lemma, k in plan:
            metric = f"lemma_{lemma}_k{k}"
            with res.step(metric) as t0:
                if (lemma, k) not in memo:  # the first row not yet certified carries the plan's rest
                    todo = [pair for pair in plan if pair not in memo]
                    memo.update(zip(todo, map(_lemma_verdict, certify_lemmas(todo))))
                got = memo[lemma, k]
                if isinstance(got, BudgetError):
                    raise BudgetError(*got.args)  # a copy: the memo's error keeps no traceback
                status, cert = got
                res.add(metric, status, _passed(status == "CERTIFIED", Verdict.CERTIFIED), cert, started=t0)

    return res


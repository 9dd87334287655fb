"""Top-level acceptance checks.

Each test exercises one headline guarantee end to end at its stated time
budget and prints a one-line verdict.  Everything here is exact: witness
checks run over all 2^n inputs, LP certificates are re-verified by row
combination, and integer weights come from branch and bound with exact
rational relaxations.
"""

import itertools
import time

import pytest

from ptflab import (
    OrderContext,
    RepresentationLadder,
    check_farkas,
    check_sign_representation,
    certify_coefficient_lemma,
    compare,
    dominance_chain,
    enumerate_ordered,
    make_hard,
    make_shape,
    oracle_compare,
    preset,
    run,
    symmetric_coefficient,
    symmetrize,
    theorem_bound,
    to_uv,
    witness_gate,
)
from csv_reference import rows_without_timing
from shape_reference import all_tuples

WEAK_SHAPES = [make_shape("weak", ks) for ks in [(2, 3), (2, 2, 3), (4, 3)]]
STRONG_SHAPES = [make_shape("strong", ks) for ks in [(3, 3), (5, 3)]]


def report(name: str, ok: bool, detail: str = "") -> None:
    print(f"acceptance {name}: {'PASS' if ok else 'FAIL'}" + (f" ({detail})" if detail else ""))
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def gates():
    return {s.describe(): witness_gate(s) for s in WEAK_SHAPES + STRONG_SHAPES}


def test_criterion_1_weak_gates(gates):
    for shape in WEAK_SHAPES:
        t0 = time.monotonic()
        cx = check_sign_representation(gates[shape.describe()], make_hard(shape))
        dt = time.monotonic() - t0
        report(
            f"1 witness gate {shape.describe()}",
            cx is None and dt < 5.0,
            f"all 2^{shape.n} inputs in {dt:.2f}s",
        )


def test_criterion_2_strong_gates(gates):
    for shape in STRONG_SHAPES:
        t0 = time.monotonic()
        cx = check_sign_representation(gates[shape.describe()], make_hard(shape))
        dt = time.monotonic() - t0
        report(
            f"2 witness gate {shape.describe()}",
            cx is None and dt < 5.0,
            f"all 2^{shape.n} inputs in {dt:.2f}s",
        )


def test_criterion_3_sign_degree_exactness():
    for shape in (make_shape("weak", (2, 3)), make_shape("strong", (3, 3))):
        t0 = time.monotonic()
        ladder = RepresentationLadder(make_hard(shape))
        # the sign degree: the first degree whose LP is not infeasible
        value = next(d for d in range(shape.d + 1) if ladder.solve(d)[1].status != "infeasible")
        dt = time.monotonic() - t0
        prob, out = ladder.solve(shape.d - 1)
        certified = out.status == "infeasible" and check_farkas(prob.problem, out.farkas)
        report(
            f"3 sign degree {shape.describe()}",
            value == 2 and certified and dt < 60.0,
            f"degree {value}, degree-1 Farkas verified, {dt:.1f}s",
        )


def test_criterion_4_coefficient_lemmas():
    t0 = time.monotonic()
    ok = True
    detail = []
    for k in range(2, 7):
        for lemma in ("gt_exp", "gt_step"):
            res = certify_coefficient_lemma(lemma, k)
            ok = ok and res.status == "CERTIFIED"
            ok = ok and all(check_farkas(c.problem, c.farkas) for c in res.checks)
    for k in (3, 5):
        for lemma in ("g1_pos", "g1_mono", "g0_all"):
            res = certify_coefficient_lemma(lemma, k)
            ok = ok and res.status == "CERTIFIED"
            ok = ok and all(check_farkas(c.problem, c.farkas) for c in res.checks)
    dt = time.monotonic() - t0
    report("4 coefficient lemmas", ok and dt < 60.0, f"all CERTIFIED in {dt:.1f}s")


def test_criterion_5_weight_theorem_instance(gates):
    shape = make_shape("weak", (2, 3))
    t0 = time.monotonic()
    f = make_hard(shape)
    res = RepresentationLadder(f, shape).exact_weight(2, node_budget=5000, incumbent=gates[shape.describe()])
    dt = time.monotonic() - t0
    bound = theorem_bound(shape)
    chain = dominance_chain(OrderContext(shape), 1)
    q = symmetrize(to_uv(res.witness))
    w_a = symmetric_coefficient(q, chain.alpha)
    w_b = symmetric_coefficient(q, chain.beta)
    factor = 2 ** ((shape.ks[-1] - 2) * shape.ks[0])
    ok = (
        bound == 1
        and res.value >= bound
        and chain.factor == factor == 4
        and w_a > 0
        and w_b >= factor * w_a
        and dt < 600.0
    )
    report(
        "5 weight theorem weak(2,3)",
        ok,
        f"W(f,2)={res.value} >= {bound}; w_{chain.beta}={w_b} >= {factor}*w_{chain.alpha}={factor * w_a}; {dt:.1f}s",
    )


def test_criterion_6_basis_change_bounds(gates):
    for shape in WEAK_SHAPES + STRONG_SHAPES:
        gate = gates[shape.describe()]
        up = to_uv(gate)
        cap = (1 << shape.d) if shape.variant.value == "weak" else shape.n**shape.d
        report(
            f"6 basis change {shape.describe()}",
            up.weight <= cap * gate.weight,
            f"W'={up.weight} <= {cap}*{gate.weight}",
        )


def test_criterion_7_ordering_integrity():
    for shape in WEAK_SHAPES + STRONG_SHAPES:
        ctx = OrderContext(shape)
        K = all_tuples(shape)
        assert len(K) <= 2000
        ok = True
        for a, b in itertools.product(K, repeat=2):
            cab = compare(ctx, a, b)
            ok = ok and cab == oracle_compare(ctx, a, b) == -compare(ctx, b, a)
            ok = ok and ((cab == 0) == (a == b))
        for a, b, c in itertools.product(K, repeat=3):
            if compare(ctx, a, b) <= 0 and compare(ctx, b, c) <= 0:
                ok = ok and compare(ctx, a, c) <= 0
        report(f"7 ordering {shape.describe()}", ok, f"|K|={len(K)} pairs and triples")
    # the two-group enumeration snakes through the grid
    shape = make_shape("weak", (4, 3))
    seq = enumerate_ordered(OrderContext(shape))
    snake_ok = True
    for col in range(1, 5):
        part = [b for a, b in seq if a == col]
        want = [1, 2, 3] if col % 2 else [3, 2, 1]
        snake_ok = snake_ok and part == want
    report("7 snake pattern weak(4,3)", snake_ok)


def test_criterion_8_gate_weight_formula(gates):
    for shape in WEAK_SHAPES:
        gate = gates[shape.describe()]
        expected = (1 << shape.d) * ((1 << (shape.size_K + 1)) - 2)
        report(
            f"8 gate weight {shape.describe()}",
            gate.weight == expected,
            f"{gate.weight} == 2^{shape.d}*(2^{shape.size_K + 1}-2)",
        )


def test_criterion_9_reproducibility(tmp_path):
    spec = preset("weak-2-3")
    run(spec, tmp_path / "first")
    run(spec, tmp_path / "second")
    a = rows_without_timing((tmp_path / "first" / "weak-2-3.csv").read_text())
    b = rows_without_timing((tmp_path / "second" / "weak-2-3.csv").read_text())
    report("9 reproducibility weak-2-3", a == b, f"{len(a.splitlines())} rows identical")

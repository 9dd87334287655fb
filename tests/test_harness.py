"""Experiment harness: presets, persistence, determinism, certificates,
and the command-line interface."""

import dataclasses
import hashlib
import inspect
import json
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from ptflab import (
    BudgetError,
    CertifyResult,
    ExperimentSpec,
    certify_coefficient_lemma,
    make_shape,
    preset,
    problem_to_text,
    replay_certificate,
    run,
)
from ptflab import exact_lp, pipeline, threshold_analysis
from ptflab.cli import main as cli_main
from ptflab.exact_lp import LpProblem, _format_rows
from ptflab.harness import ALL_MODES, PRESET_NAMES
from ptflab.pipeline import Certificate
from csv_reference import rows_without_timing


def test_preset_lookup():
    spec = preset("weak-2-3")
    assert [s.ks for s in spec.shapes] == [(2, 3)]
    assert set(spec.modes) == {
        "verify-gate",
        "signdeg",
        "minweight-lp",
        "minweight-exact",
        "lemmas",
        "theorem",
    }
    spec = preset("strong-3-3")
    assert spec.modes == ("verify-gate", "signdeg")
    with pytest.raises(KeyError):
        preset("nope")


def test_spec_to_json_writes_every_field():
    # the spec a results JSON records; no key of an older spec (workers) comes back
    assert preset("strong-3-3").to_json() == {
        "name": "strong-3-3",
        "shapes": [{"variant": "strong", "ks": [3, 3]}],
        "modes": ["verify-gate", "signdeg"],
        "input_cap": 24,
        "node_budget": 2000,
        "pivot_budget": 400_000,
        "exponent_table_n": None,
    }


def test_pivot_budget_defaults_are_their_named_constants():
    # every results JSON records the spec's pivot_budget: the values must not move
    assert (exact_lp.DEFAULT_PIVOT_CAP, pipeline.PRESET_PIVOT_BUDGET) == (200_000, 400_000)
    solver = [
        exact_lp.min_l1, exact_lp.solve_extensions, exact_lp.ilp_min, exact_lp._DualL1.optimize,
        threshold_analysis.certify_coefficient_lemma,
    ]
    for f in solver:
        assert inspect.signature(f).parameters["max_pivots"].default == exact_lp.DEFAULT_PIVOT_CAP, f
    ladder = {f.name: f.default for f in dataclasses.fields(threshold_analysis.RepresentationLadder)}
    assert ladder["max_pivots"] == exact_lp.DEFAULT_PIVOT_CAP
    preset_budget = pipeline.PRESET_PIVOT_BUDGET
    assert inspect.signature(pipeline.run_shape).parameters["pivot_budget"].default == preset_budget
    assert ExperimentSpec("x", []).pivot_budget == preset_budget


def test_empty_shape_list_is_trivially_green(tmp_path):
    spec = ExperimentSpec("empty", [], modes=("verify-gate",))
    rows, status = run(spec, tmp_path)
    assert rows == []
    assert status == 0
    assert (tmp_path / "empty.csv").exists()


def test_gt_lemma_preset_certifies(tmp_path):
    spec = preset("gt-lemmas-k6")
    rows, status = run(spec, tmp_path)
    assert status == 0
    lemma_rows = [r for r in rows if r.metric.startswith("lemma_")]
    assert len(lemma_rows) == 10  # gt_exp and gt_step for k = 2..6
    assert all(r.value == "CERTIFIED" for r in lemma_rows)
    certs = list((tmp_path / "certs").glob("*.json"))
    assert certs


def test_k5_preset_rows(tmp_path):
    rows, status = run(preset("k5-optimal"), tmp_path)
    assert status == 0
    by_metric = {(r.shape, r.metric): r.value for r in rows}
    assert by_metric[("k=3", "bound_exponent")] == str(2**35)
    assert by_metric[("k=5", "bound_exponent")] == str(4**21)
    assert by_metric[("k=7", "bound_exponent")] == str(6**15)
    assert by_metric[("n=105", "k5_is_max")] == "PASS"


def test_certificates_replay_and_detect_corruption(tmp_path):
    # every mode on the one-group comparator stores all four certificate kinds
    spec = ExperimentSpec("all-kinds", [make_shape("weak", (3,))], modes=ALL_MODES)
    rows, status = run(spec, tmp_path)
    assert status == 0
    certs = sorted((tmp_path / "certs").glob("*.json"))
    by_kind = {}
    for path in certs:
        assert replay_certificate(path)
        by_kind.setdefault(json.loads(path.read_text())["kind"], path)
    assert set(by_kind) == {"farkas", "l1-bound", "witness", "farkas-batch"}
    for kind, path in by_kind.items():
        blob = json.loads(path.read_text())
        vector = blob["items"][0]["vector"] if kind == "farkas-batch" else blob["vector"]
        vector[0] = "9999"
        bad = tmp_path / f"bad-{kind}.json"
        bad.write_text(json.dumps(blob))
        assert not replay_certificate(bad), kind


# x0 >= 0 with x = [0] (a witness), and the same row with dual [0] proving
# sum |x| >= 0 (an l1-bound); the base x0 >= 1 plus the row x0 <= 0, which
# their sum contradicts (a farkas-batch); each body below breaks one of them
WITNESS = {"kind": "witness", "problem": "vars 1\n1 >= 0\n", "vector": ["0"]}
L1_BOUND = {"kind": "l1-bound", "problem": "vars 1\n1 >= 0\n", "vector": ["0"], "value": "0"}
BATCH = {"kind": "farkas-batch", "problem": "vars 1\n1 >= 1\n", "items": [{"row": "1 <= 0", "vector": ["1", "1"]}]}


def _batch_item(row, vector):
    return {**BATCH, "items": [{"row": row, "vector": vector}]}


def _without(obj, key):
    return {k: v for k, v in obj.items() if k != key}


@pytest.mark.parametrize(
    "body",
    [
        pytest.param("{not json", id="not json"),
        pytest.param(b"\xff\xfe{", id="not text"),
        pytest.param("[]", id="json list"),
        pytest.param(json.dumps(_without(WITNESS, "kind")), id="missing kind"),
        pytest.param(json.dumps({**WITNESS, "kind": "proof"}), id="unknown kind"),
        pytest.param(json.dumps({**BATCH, "items": "abc"}), id="items a string"),
        pytest.param(json.dumps({**BATCH, "items": WITNESS}), id="items a dict"),
        pytest.param(json.dumps(_without(BATCH, "problem")), id="batch without problem"),
        pytest.param(json.dumps({**BATCH, "items": []}), id="batch items empty"),
        # the second line would make the vector, for three rows, a valid one
        pytest.param(json.dumps(_batch_item("1 <= 0\n1 >= 1", ["1", "1", "0"])), id="batch row of two lines"),
        pytest.param(json.dumps(_batch_item("<= 0", ["1", "1"])), id="batch row one coefficient short"),
        pytest.param(json.dumps(_batch_item("1 <= 0", ["1", "1", "0"])), id="batch vector one entry too long"),
        pytest.param(json.dumps({**WITNESS, "problem": ""}), id="empty problem"),
        pytest.param(json.dumps({**WITNESS, "problem": "vars 1\n1 = 0\n"}), id="malformed problem"),
        pytest.param(json.dumps({**WITNESS, "vector": ["x"]}), id="vector entry x"),
        pytest.param(json.dumps({**WITNESS, "vector": ["1/0"]}), id="vector entry 1/0"),
        pytest.param(json.dumps(_without(L1_BOUND, "value")), id="l1-bound without value"),
    ],
)
def test_malformed_certificate_files_are_rejected(tmp_path, body):
    path = tmp_path / "cert.json"
    path.write_bytes(body if isinstance(body, bytes) else body.encode())
    assert replay_certificate(path) is False


def test_replay_accepts_well_formed_bodies_and_raises_on_unreadable_files(tmp_path):
    for obj in (WITNESS, L1_BOUND, BATCH):
        path = tmp_path / f"{obj['kind']}.json"
        path.write_text(json.dumps(obj))
        assert replay_certificate(path) is True
    with pytest.raises(OSError):
        replay_certificate(tmp_path / "missing.json")


@pytest.mark.parametrize(
    "obj",
    [
        pytest.param({"kind": "farkas", "problem": "vars 10000000\n", "vector": []}, id="farkas"),
        pytest.param(
            {"kind": "l1-bound", "problem": "vars 10000000\n", "vector": [], "value": "1"}, id="l1-bound"
        ),
        pytest.param({"kind": "witness", "problem": "vars 10000000\n", "vector": []}, id="witness"),
        pytest.param(
            {"kind": "farkas-batch", "problem": "vars 10000000\n", "items": [{"row": "1 >= 0", "vector": []}]},
            id="farkas-batch",
        ),
    ],
)
def test_replay_memory_is_bounded_by_the_file_not_its_vars_header(tmp_path, obj):
    # a 62-byte file must not make the checkers allocate one slot per declared variable
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(obj))
    tracemalloc.start()
    try:
        assert replay_certificate(path) is False
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


@pytest.mark.parametrize("lemma, k", [("gt_exp", 4), ("g0_all", 5), ("g1_pos", 5)])
def test_farkas_batch_stores_its_base_once(tmp_path, lemma, k):
    # base text plus an item's row line is the text of that item's LP, byte
    # for byte; each item replays on its own, and a flipped row does not
    res = certify_coefficient_lemma(lemma, k)
    items = tuple((c.problem, c.farkas) for c in res.checks)
    payload = Certificate("farkas-batch", f"{lemma} k={k}", items, base=res.base).payload()
    assert len(payload["items"]) == len(res.checks)
    for item, check in zip(payload["items"], res.checks):
        assert payload["problem"] + item["row"] + "\n" == problem_to_text(check.problem)
    path = tmp_path / "batch.json"
    for batch in [payload] + [{**payload, "items": [item]} for item in payload["items"]]:
        path.write_text(json.dumps(batch))
        assert replay_certificate(path)
    tokens = payload["items"][-1]["row"].split()
    assert int(tokens[-3]) != 0  # the last coefficient; flipping it changes the row
    tokens[-3] = str(-int(tokens[-3]))
    payload["items"][-1]["row"] = " ".join(tokens)
    path.write_text(json.dumps(payload))
    assert not replay_certificate(path)


def test_farkas_batch_payload_matches_the_per_row_formatting():
    # all items' rows go through one _format_rows call; each line must be
    # the one its row gives alone, a <= row, rows past 2^62 and an int64
    # row among them, and every zero multiplier, int or Fraction, is "0"
    base = LpProblem(2)
    base.add({0: 1}, ">=", 1)
    rows = [({0: 1, 1: -2}, "<=", -3), ({1: 2**70}, ">=", -(2**63)), ({}, ">=", 1), ({0: -1}, "<=", 0)]
    problems = [base.extended(*row) for row in rows]
    assert [p.constraints.dtype for p in problems] == [np.int64, object, np.int64, np.int64]
    vectors = [[0, Fraction(1, 2)], [Fraction(0), 3], [0, Fraction(0)], [2**70, 0]]
    payload = Certificate("farkas-batch", "mixed", tuple(zip(problems, vectors)), base=base).payload()
    assert payload["items"] == [
        {"row": _format_rows(p.constraints[-1:], p.le[-1:])[0], "vector": [str(v) if v.numerator else "0" for v in lam]}
        for p, lam in zip(problems, vectors)
    ]
    assert [item["row"] for item in payload["items"]] == ["1 -2 <= -3", f"0 {2**70} >= {-(2**63)}", "0 0 >= 1", "-1 0 <= 0"]
    assert [item["vector"] for item in payload["items"]] == [["0", "1/2"], ["0", "3"], ["0", "0"], [str(2**70), "0"]]
    # g1_mono at k = 2 asserts no inequality: a batch of no items
    assert Certificate("farkas-batch", "none", (), base=base).payload()["items"] == []


# sha256[:16] of each preset's CSV without the wall-time column, in
# PRESET_NAMES order; a change that keeps the results leaves these alone
PRESET_DIGESTS = (
    "458480fac6c3758d",
    "cfdba31bc2fa4793",
    "567655421e3120d5",
    "a9dbe3a2582dbb6c",
    "53a6879404c7f845",
    "198ea61a58f45d0d",
    "e65bc46d6e39b44c",
    "7cc42e5deb6fed9f",
)


def test_preset_results_are_pinned_and_replay(tmp_path):
    digests = []
    for name in PRESET_NAMES:
        _, status = run(preset(name), tmp_path / name)
        assert status == 0, name
        csv_text = (tmp_path / name / f"{name}.csv").read_text()
        digests.append(hashlib.sha256(rows_without_timing(csv_text).encode()).hexdigest()[:16])
    assert tuple(digests) == PRESET_DIGESTS
    certs = sorted(tmp_path.glob("*/certs/*.json"))
    assert len(certs) == 29
    assert all(replay_certificate(path) for path in certs)


def test_budget_marks_skipped_not_fail(tmp_path):
    spec = ExperimentSpec(
        "tight",
        [make_shape("weak", (2, 3))],
        modes=("minweight-exact",),
        node_budget=0,
    )
    rows, status = run(spec, tmp_path)
    values = {r.metric: r.value for r in rows}
    assert values["minweight_exact"] == "SKIPPED"
    assert status == 0


def test_every_budget_ends_skipped_not_crash(tmp_path):
    shape = make_shape("weak", (2, 3))
    pivots = ExperimentSpec("pivots", [shape], modes=ALL_MODES, pivot_budget=50)
    inputs = ExperimentSpec("inputs", [shape], modes=ALL_MODES, input_cap=8)
    for spec, budget in ((pivots, "pivot budget 50"), (inputs, "input cap 8")):
        rows, status = run(spec, tmp_path / spec.name)
        assert status == 0
        values = {r.metric: r.value for r in rows}
        for metric in ("sign_degree", "minweight_lp", "minweight_exact"):
            assert values[metric] == "SKIPPED", (spec.name, metric)
            assert budget in values[f"{metric}_note"]
    assert values["verify_gate"] == "SKIPPED"
    assert "input cap 8" in values["verify_gate_note"]
    assert values["lemma_gt_exp_k3"] == "CERTIFIED"  # lemmas need no truth table


def test_a_gate_on_more_than_64_tuples_verifies():
    # strong(5,5,3): n = 16 and |K| = 75, so coefficients reach 2^75
    res = pipeline.run_shape(make_shape("strong", (5, 5, 3)), ("verify-gate", "theorem"))
    values = {fd.metric: fd.value for fd in res.findings}
    assert values["verify_gate"] == "PASS"
    assert values["theorem_bound"] == 16


def test_the_input_cap_skips_a_shape_before_its_gate_is_built(monkeypatch):
    def refuse(shape):
        raise AssertionError("witness_gate called past the input cap")

    monkeypatch.setattr("ptflab.pipeline.witness_gate", refuse)
    res = pipeline.run_shape(make_shape("weak", (9, 9)), ("verify-gate",))  # n = 36
    values = {fd.metric: fd.value for fd in res.findings}
    assert values["verify_gate"] == "SKIPPED"
    assert "n = 36 exceeds the input cap 24" in values["verify_gate_note"]


def test_a_report_past_the_input_cap_has_no_gate_weight():
    modes = ("verify-gate", "signdeg", "minweight-lp", "theorem")
    res = pipeline.run_shape(make_shape("weak", (6, 7)), modes)  # n = 26
    assert res.verdicts["verify_gate"] == "SKIPPED"
    assert res.gate_weight is None
    assert res.ok  # SKIPPED is not a failure


def test_lemma_lps_honour_the_input_cap(monkeypatch):
    def refuse(values, k):
        raise AssertionError("_product_rows called past the input cap")

    monkeypatch.setattr(threshold_analysis, "_product_rows", refuse)
    res = pipeline.run_shape(make_shape("weak", (5,)), ("lemmas", "verify-gate"), input_cap=8)
    values = {fd.metric: fd.value for fd in res.findings}
    for metric in ("verify_gate", "lemma_gt_exp_k5", "lemma_gt_step_k5"):  # the comparator's 2k inputs
        assert res.verdicts[metric] == "SKIPPED"
        assert values[f"{metric}_note"] == "n = 10 exceeds the input cap 8"


def test_violated_lemma_fails_the_run(tmp_path, monkeypatch):
    def violated(lemma, k, max_pivots=0, input_cap=0):
        return CertifyResult(lemma, k, "VIOLATED", [])

    monkeypatch.setattr("ptflab.pipeline.certify_coefficient_lemma", violated)
    rows, status = run(preset("gt-lemmas-k6"), tmp_path)
    assert {r.value for r in rows} == {"VIOLATED"}
    assert status == 1
    assert not pipeline.run_shape(make_shape("weak", (3,)), ("lemmas",)).ok


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def test_cli_order_snake(capsys):
    assert cli_main(["order", "weak", "2,2"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "rank,a1,a2"
    assert out[1:] == ["1,1,1", "2,1,2", "3,2,2", "4,2,1"]


def test_cli_build_signdeg_minweight_round_trip(tmp_path, capsys):
    fn_path = tmp_path / "gt2.json"
    assert cli_main(["build", "weak", "2", "--out", str(fn_path)]) == 0
    assert cli_main(["signdeg", str(fn_path), "--dmax", "2"]) == 0
    out = capsys.readouterr().out
    assert "sign degree = 1" in out
    gate_path = tmp_path / "gate.json"
    assert cli_main(
        ["minweight", str(fn_path), "--degree", "1", "--exact", "--out", str(gate_path)]
    ) == 0
    out = capsys.readouterr().out
    assert "6" in out
    payload = json.loads(gate_path.read_text())
    assert payload["weight"] == "6"


def test_cli_verify_gate(capsys):
    assert cli_main(["verify-gate", "2,3"]) == 0
    assert "PASS" in capsys.readouterr().out
    assert cli_main(["verify-gate", "3,3", "--variant", "strong"]) == 0


def test_cli_check_lemma(capsys):
    assert cli_main(["check-lemma", "gt_step", "--k", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == ["CERTIFIED: w2 >= w1", "CERTIFIED: w3 >= w2", "CERTIFIED: gt_step at k=3"]


def test_cli_reproduce(tmp_path, capsys):
    assert cli_main(["reproduce", "strong-3-3", "--out", str(tmp_path)]) == 0
    assert (tmp_path / "strong-3-3.csv").exists()
    out = capsys.readouterr().out
    assert "verify_gate,PASS" in out.replace(" ", "")


def test_cli_checks_the_input_cap_before_building(tmp_path, monkeypatch, capsys):
    def refuse(shape):
        raise AssertionError("make_hard called past the input cap")

    monkeypatch.setattr("ptflab.cli.make_hard", refuse)
    for argv in (["build", "weak", "6,7"], ["verify-gate", "6,7"]):  # n = 26
        assert cli_main(argv) == 2
        assert capsys.readouterr().out.startswith("SKIPPED: n = 26 exceeds the input cap")
    fn_path = tmp_path / "wide.json"  # constant 0 on 25 inputs
    fn_path.write_text(json.dumps({"n": 25, "convention": "zero-one", "table_hex": "00"}))
    assert cli_main(["signdeg", str(fn_path), "--dmax", "1"]) == 2
    assert capsys.readouterr().out.startswith("SKIPPED: n = 25 exceeds the input cap")


def test_cli_reproduce_takes_a_node_budget_of_0_and_refuses_a_negative_one(tmp_path, capsys):
    assert cli_main(["reproduce", "weak-2-3", "--budget-nodes", "0", "--out", str(tmp_path)]) == 0
    assert "budget exhausted after 0 nodes" in capsys.readouterr().out
    # one node: the bounds are the integer ceiling of the root relaxation 183/2 and the best gate
    assert cli_main(["reproduce", "weak-2-3", "--budget-nodes", "1", "--out", str(tmp_path)]) == 0
    assert "after 1 nodes (bounds [92, 366])" in capsys.readouterr().out
    with pytest.raises(SystemExit) as stopped:
        cli_main(["reproduce", "weak-2-3", "--budget-nodes", "-1", "--out", str(tmp_path)])
    assert stopped.value.code == 2
    assert "a node budget is at least 0, not -1" in capsys.readouterr().err
    with pytest.raises(SystemExit) as stopped:
        cli_main(["reproduce", "weak-2-3", "--budget-nodes", "x", "--out", str(tmp_path)])
    assert stopped.value.code == 2
    assert "argument --budget-nodes: a node budget is an integer, not 'x'" in capsys.readouterr().err


def test_cli_check_lemma_reports_errors_and_budgets_in_one_line(monkeypatch, capsys):
    assert cli_main(["check-lemma", "gt_exp", "--k", "1"]) == 2
    assert capsys.readouterr().out == "ERROR: need k >= 2\n"

    def refuse(values, k):
        raise AssertionError("_product_rows called past the input cap")

    with monkeypatch.context() as mp:
        mp.setattr(threshold_analysis, "_product_rows", refuse)
        assert cli_main(["check-lemma", "gt_exp", "--k", "13"]) == 2  # the comparator has 26 inputs
    assert capsys.readouterr().out == "SKIPPED: n = 26 exceeds the input cap 24\n"

    def out_of_pivots(lemma, k):
        raise BudgetError("pivot budget 5 exhausted")

    monkeypatch.setattr("ptflab.cli.certify_coefficient_lemma", out_of_pivots)
    assert cli_main(["check-lemma", "gt_exp", "--k", "4"]) == 2
    assert capsys.readouterr().out == "SKIPPED: pivot budget 5 exhausted\n"


def test_cli_reports_bad_input_in_one_line(tmp_path, capsys):
    bad_table = tmp_path / "bad.json"
    bad_table.write_text(json.dumps({"n": 1, "convention": "zero-one", "table_hex": "ff"}))
    missing, no_table, not_json, bad_convention = (tmp_path / name for name in ("a", "b", "c", "d"))
    no_table.write_text(json.dumps({"n": 2}))
    not_json.write_text("n = 2")
    bad_convention.write_text(json.dumps({"n": 1, "convention": "nope", "table_hex": "01"}))
    for argv, why in [
        (["build", "weak", "0,3"], "weak shape needs every k_i >= 1, got (0, 3)"),
        (["order", "strong", "1,3"], "strong shape needs every k_i >= 2, got (1, 3)"),
        (["order", "weak", "1000,1001"], "|K| = 1001000 exceeds enumeration cap 1000000"),
        (["signdeg", str(bad_table), "--dmax", "1"], "table does not fit 2^1 bits"),
        (["signdeg", str(missing), "--dmax", "1"], f"cannot read {missing}: No such file or directory"),
        (["minweight", str(no_table), "--degree", "1"], f"{no_table} has no field 'table_hex'"),
        (
            ["signdeg", str(not_json), "--dmax", "1"],
            f"{not_json} is not a truth table: Expecting value: line 1 column 1 (char 0)",
        ),
        (
            ["minweight", str(bad_convention), "--degree", "1"],
            f"{bad_convention} is not a truth table: 'nope' is not a valid Convention",
        ),
    ]:
        assert cli_main(argv) == 2
        assert capsys.readouterr().out == f"ERROR: {why}\n"
    for argv, why in [
        (["verify-gate", "2,x"], "argument ks: group sizes are comma-separated integers, not '2,x'"),
        (["minweight", str(bad_table), "--degree", "-1"], "argument --degree: a degree is at least 0, not -1"),
        (["signdeg", str(bad_table), "--dmax", "-1"], "argument --dmax: a degree is at least 0, not -1"),
        (["signdeg", str(bad_table), "--dmax", "two"], "argument --dmax: a degree is an integer, not 'two'"),
        (["minweight", str(bad_table), "--degree", "2", "--out", str(tmp_path / "g.json")], "argument --out: needs --exact"),
    ]:
        with pytest.raises(SystemExit) as stopped:
            cli_main(argv)
        assert stopped.value.code == 2
        assert why in capsys.readouterr().err
    assert not (tmp_path / "g.json").exists()


def test_cli_verify_gate_past_64_tuples(capsys):
    assert cli_main(["verify-gate", "5,5,3", "--variant", "strong"]) == 0
    assert capsys.readouterr().out.startswith("PASS ")


def test_cli_budget_stop_with_no_integer_gate_gives_its_lower_bound(tmp_path, capsys):
    fn_path = tmp_path / "w23.json"
    assert cli_main(["build", "weak", "2,3", "--out", str(fn_path)]) == 0
    argv = ["minweight", str(fn_path), "--degree", "2", "--exact", "--budget-nodes", "0"]
    assert cli_main(argv) == 2
    assert capsys.readouterr().out == (
        "SKIPPED: branch-and-bound budget exhausted after 0 nodes (lower bound 92, no integer gate found)\n"
    )


def test_cli_lemma_choices_are_the_lemma_table(capsys):
    with pytest.raises(SystemExit):
        cli_main(["check-lemma", "--help"])
    assert "{gt_exp,gt_step,g1_pos,g1_mono,g0_all}" in capsys.readouterr().out

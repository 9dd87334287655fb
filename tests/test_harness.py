"""Experiment harness: presets, persistence, determinism, certificates,
and the command-line interface."""

import dataclasses
import hashlib
import importlib
import inspect
import json
import pkgutil
import tracemalloc
from fractions import Fraction

import pytest

import ptflab
from ptflab import (
    BoolFun,
    BudgetError,
    CertifyResult,
    Convention,
    ExperimentSpec,
    certify_coefficient_lemma,
    make_shape,
    preset,
    replay_certificate,
    run,
)
from ptflab import exact_lp, pipeline, threshold_analysis
from ptflab.cli import main as cli_main
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
    # every results JSON records both: the values must not move
    assert (exact_lp.PIVOT_BUDGET, threshold_analysis.INPUT_CAP) == (400_000, 24)
    assert threshold_analysis.LP_ENTRY_CAP == 1 << 27


def test_no_layer_takes_a_budget_that_is_a_module_constant():
    # the input cap and the pivot budget are read where they are spent
    constants = {"input_cap", "max_pivots", "pivot_budget"}
    for info in pkgutil.iter_modules(ptflab.__path__):
        module = importlib.import_module(f"ptflab.{info.name}")
        for name, obj in vars(module).items():
            if getattr(obj, "__module__", None) != module.__name__:
                continue  # imported from elsewhere
            callables = [obj] if inspect.isfunction(obj) else []
            if inspect.isclass(obj):
                callables = [f for f in vars(obj).values() if inspect.isfunction(f)]
                if dataclasses.is_dataclass(obj):
                    assert not constants & {f.name for f in dataclasses.fields(obj)}, name
            for f in callables:
                assert not constants & set(inspect.signature(f).parameters), f"{module.__name__}.{f.__qualname__}"


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


def test_exponent_table_runs_the_n_it_records(tmp_path):
    # n = 0 is a multiple of every k, and every (k-1)^0 is 1: no k wins
    rows, status = run(ExperimentSpec("n0", [], (), exponent_table_n=0), tmp_path)
    assert [(r.shape, r.metric, r.value) for r in rows] == [
        *((f"k={k}", "bound_exponent", "1") for k in (3, 5, 7)),
        ("n=0", "k5_is_max", "FAIL"),
    ]
    assert status == 1
    assert json.loads((tmp_path / "n0.json").read_text())["spec"]["exponent_table_n"] == 0


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
        if kind == "witness":  # a sign flipped: the same weight, another gate
            i = next(i for i, v in enumerate(blob["vector"]) if v)
            blob["vector"][i] *= -1
        else:
            multipliers = blob["items"][0] if kind == "farkas-batch" else blob["multipliers"]
            multipliers[min(multipliers)] = "9999"
        bad = tmp_path / f"bad-{kind}.json"
        bad.write_text(json.dumps(blob))
        assert not replay_certificate(bad), kind


# the certificates of weak(1), the comparator x > y on two inputs: no
# degree-0 gate, LP weight 2 at degree 1 and the gate x - y of weight 2;
# and gt_step at k = 2, one negated inequality over the 9 rows of the
# comparator's base LP; each body below breaks one of them
FARKAS = {"kind": "farkas", "shape": {"variant": "weak", "ks": [1]}, "degree": 0, "multipliers": {"0": "1", "1": "1"}}
L1_BOUND = {**FARKAS, "kind": "l1-bound", "degree": 1, "multipliers": {"2": "2", "3": "1"}, "value": "2"}
WITNESS = {"kind": "witness", "shape": FARKAS["shape"], "degree": 1, "vector": [0, 1, -1], "weight": 2}
BATCH = {"kind": "farkas-batch", "lemma": "gt_step", "k": 2, "items": [{"6": "1", "9": "1"}]}


def _without(obj, key):
    return {k: v for k, v in obj.items() if k != key}


@pytest.mark.parametrize(
    "body",
    [
        pytest.param("{not json", id="not json"),
        pytest.param(b"\xff\xfe{", id="not text"),
        pytest.param("[]", id="json list"),
        pytest.param(json.dumps(_without(WITNESS, "kind")), id="missing kind"),
        pytest.param(json.dumps({**FARKAS, "kind": "proof"}), id="unknown kind"),
        pytest.param(json.dumps({**BATCH, "items": "abc"}), id="items a string"),
        pytest.param(json.dumps({**BATCH, "items": BATCH["items"][0]}), id="items a dict"),
        pytest.param(json.dumps(_without(BATCH, "lemma")), id="batch without lemma"),
        pytest.param(json.dumps({**BATCH, "lemma": "gt_all"}), id="batch unknown lemma"),
        # gt_step at k = 2 asserts one inequality: one item, no fewer and no more
        pytest.param(json.dumps({**BATCH, "items": []}), id="batch items empty"),
        pytest.param(json.dumps({**BATCH, "items": BATCH["items"] * 2}), id="batch item extra"),
        pytest.param(json.dumps({**BATCH, "items": [{"6": "1", "10": "1"}]}), id="batch multiplier past the last row"),
        pytest.param(json.dumps({**BATCH, "k": 2.0}), id="batch k 2.0"),
        pytest.param(json.dumps({**BATCH, "k": 1}), id="batch k 1"),
        pytest.param(json.dumps(_without(FARKAS, "shape")), id="missing shape"),
        pytest.param(json.dumps({**FARKAS, "shape": {"variant": "medium", "ks": [1]}}), id="malformed shape"),
        # int() would read [1.5] and [true] as [1], the shape the multipliers are for
        pytest.param(json.dumps({**FARKAS, "shape": {"variant": "weak", "ks": [1.5]}}), id="ks 1.5"),
        pytest.param(json.dumps({**FARKAS, "shape": {"variant": "weak", "ks": [True]}}), id="ks true"),
        pytest.param(json.dumps({**L1_BOUND, "degree": 1.0}), id="degree 1.0"),
        pytest.param(json.dumps({**L1_BOUND, "degree": True}), id="degree true"),
        pytest.param(json.dumps({**FARKAS, "degree": -1}), id="degree -1"),
        # a gate of degree 2 exists, and no monomial has a degree past n = 2
        pytest.param(json.dumps({**FARKAS, "degree": 10**9}), id="degree 10^9"),
        # the degree-0 LP has two rows: "-1" must not reach the last one
        pytest.param(json.dumps({**FARKAS, "multipliers": {"0": "1", "-1": "1"}}), id="multiplier row -1"),
        pytest.param(json.dumps({**FARKAS, "multipliers": {"0": "1", "01": "1"}}), id="multiplier row 01"),
        pytest.param(json.dumps({**FARKAS, "multipliers": {"0": "1", "2": "1"}}), id="multiplier row past the last"),
        pytest.param(json.dumps({**FARKAS, "multipliers": ["1", "1"]}), id="multipliers a list"),
        pytest.param(json.dumps({**FARKAS, "multipliers": {"0": "x", "1": "1"}}), id="vector entry x"),
        pytest.param(json.dumps({**FARKAS, "multipliers": {"0": "1/0", "1": "1"}}), id="vector entry 1/0"),
        pytest.param(json.dumps({**FARKAS, "multipliers": {"0": 1, "1": 1}}), id="vector entry a number"),
        pytest.param(json.dumps(_without(L1_BOUND, "value")), id="l1-bound without value"),
        pytest.param(json.dumps({**L1_BOUND, "value": "3"}), id="l1-bound value changed"),
        pytest.param(json.dumps({**WITNESS, "weight": 3}), id="witness weight not its sum"),
        pytest.param(json.dumps({**WITNESS, "vector": [0, 1.0, -1]}), id="witness entry 1.0"),
        pytest.param(json.dumps({**WITNESS, "vector": [0, "1", -1]}), id="witness entry text"),
        pytest.param(json.dumps({**WITNESS, "vector": [0, 1]}), id="witness one entry short"),
    ],
)
def test_malformed_certificate_files_are_rejected(tmp_path, body):
    path = tmp_path / "cert.json"
    path.write_bytes(body if isinstance(body, bytes) else body.encode())
    assert replay_certificate(path) is False


def test_replay_accepts_well_formed_bodies_and_raises_on_unreadable_files(tmp_path):
    for obj in (FARKAS, L1_BOUND, WITNESS, BATCH):
        path = tmp_path / f"{obj['kind']}.json"
        path.write_text(json.dumps(obj))
        assert replay_certificate(path) is True
    with pytest.raises(OSError):
        replay_certificate(tmp_path / "missing.json")


@pytest.fixture(scope="module")
def weak23_certificates():
    """The payload of each representation certificate of weak(2,3), by metric."""
    res = pipeline.run_shape(make_shape("weak", (2, 3)), ("signdeg", "minweight-lp", "minweight-exact"))
    return {fd.metric: fd.certificate.payload() for fd in res.findings if fd.certificate is not None}


def _move_a_multiplier(obj):
    multipliers = dict(obj["multipliers"])
    row = min(multipliers, key=int)
    free = next(i for i in range(int(row) + 1, 10**6) if str(i) not in multipliers)
    multipliers[str(free)] = multipliers.pop(row)
    return {**obj, "multipliers": multipliers}


WEAK32 = {"variant": "weak", "ks": [3, 2]}  # n = 10 too, so its LPs have the same sizes
WEAK_2_5_3 = {"variant": "weak", "ks": [2.5, 3]}  # int() would read it as weak(2,3)


@pytest.mark.parametrize(
    "metric, change",
    [
        pytest.param(metric, change, id=f"{metric} {name}")
        for metric in ("signdeg_infeasible_d1", "minweight_lp", "minweight_exact")
        for name, change in (
            ("relabelled weak(3,2)", lambda obj: {**obj, "shape": WEAK32}),
            ("at degree 1 more", lambda obj: {**obj, "degree": obj["degree"] + 1}),
        )
    ]
    + [
        # (the degree-1 LP is infeasible, so the l1-bound's multipliers, read
        # on its rows, still prove a true claim: every feasible x weighs 183/2)
        pytest.param("signdeg_infeasible_d1", lambda obj: {**obj, "degree": 0}, id="farkas at degree 0"),
        pytest.param("minweight_exact", lambda obj: {**obj, "degree": 1}, id="witness at degree 1"),
        pytest.param("signdeg_infeasible_d1", lambda obj: {**obj, "shape": WEAK_2_5_3}, id="ks 2.5"),
        pytest.param("signdeg_infeasible_d1", _move_a_multiplier, id="farkas multiplier moved"),
        pytest.param("minweight_lp", _move_a_multiplier, id="l1-bound multiplier moved"),
        pytest.param("minweight_lp", lambda obj: {**obj, "value": "92"}, id="l1-bound value 92"),
        pytest.param("minweight_lp", lambda obj: {**obj, "value": "91"}, id="l1-bound value 91"),
        pytest.param("minweight_exact", lambda obj: {**obj, "weight": 93}, id="witness weight 93"),
    ],
)
def test_replay_binds_each_certificate_to_its_claim(tmp_path, weak23_certificates, metric, change):
    obj = weak23_certificates[metric]
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(obj))
    assert replay_certificate(path)
    path.write_text(json.dumps(change(obj)))
    assert not replay_certificate(path)


def test_weak23_certificates_are_small(tmp_path, weak23_certificates):
    # a claim and the nonzero multipliers, not an LP of 1024 rows
    assert weak23_certificates["minweight_lp"]["value"] == "183/2"
    assert len(weak23_certificates["minweight_lp"]["multipliers"]) == 55
    for obj in weak23_certificates.values():
        assert len(json.dumps(obj)) < 4096


@pytest.mark.parametrize(
    "obj",
    [
        # weak(6,6) has n = 24, inside the input cap; its degree-2 LP, 2^24 x 302, is past the LP entry cap
        pytest.param({**FARKAS, "shape": {"variant": "weak", "ks": [6, 6]}, "degree": 2}, id="farkas"),
        pytest.param({**L1_BOUND, "shape": {"variant": "weak", "ks": [6, 6]}, "degree": 2}, id="l1-bound"),
        pytest.param({**WITNESS, "shape": {"variant": "weak", "ks": [6, 6]}, "degree": 2}, id="witness"),
        pytest.param({**FARKAS, "shape": {"variant": "weak", "ks": [6, 7]}}, id="farkas past the input cap"),
        pytest.param({**FARKAS, "shape": {"variant": "weak", "ks": [6, 6]}, "degree": 10**9}, id="degree 10^9"),
        # g0 at k = 24 is inside the input cap, but its LP would be 2^24 x 25
        pytest.param({**BATCH, "lemma": "g0_all", "k": 24}, id="farkas-batch"),
        pytest.param({**BATCH, "k": 13}, id="farkas-batch past the input cap"),
    ],
)
def test_replay_checks_the_budgets_before_building_an_lp(tmp_path, monkeypatch, obj):
    # a file of a hundred bytes must not make replay build a hard function or its LP
    def refuse(*args):
        raise AssertionError("built past a budget")

    monkeypatch.setattr("ptflab.harness.make_hard", refuse)
    monkeypatch.setattr(threshold_analysis, "_product_rows", refuse)
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
def test_farkas_batch_replays_item_for_item(tmp_path, lemma, k):
    # one sparse map per negated inequality, in order; a missing, extra or
    # reordered item, or a multiplier moved to the negated row, is rejected
    res = certify_coefficient_lemma(lemma, k)
    farkas = tuple(c.farkas for c in res.checks)
    payload = Certificate("farkas-batch", farkas, lemma=lemma, k=k).payload()
    assert payload == {"kind": "farkas-batch", "lemma": lemma, "k": k, "items": payload["items"]}
    for item, lam in zip(payload["items"], farkas, strict=True):
        assert item == {str(i): str(v) for i, v in enumerate(lam) if v}
    path = tmp_path / "batch.json"
    path.write_text(json.dumps(payload))
    assert replay_certificate(path)
    items = payload["items"]
    last = len(res.checks[0].problem.constraints) - 1  # each item's negated row
    moved = {**items[0], str(last - 1): items[0][str(last)]}
    del moved[str(last)]
    for bad in (items[:-1], items + items[-1:], items[::-1], [moved, *items[1:]]):
        path.write_text(json.dumps({**payload, "items": bad}))
        assert not replay_certificate(path)


def test_payload_writes_the_claim_and_only_the_nonzero_multipliers():
    shape = make_shape("weak", (1,))
    vector = [0, Fraction(1, 2), Fraction(0), 2**70]
    assert Certificate("farkas", (vector,), shape, 1).payload() == {
        "kind": "farkas",
        "shape": {"variant": "weak", "ks": [1]},
        "degree": 1,
        "multipliers": {"1": "1/2", "3": str(2**70)},
    }
    assert Certificate("l1-bound", (vector,), shape, 1, value=Fraction(7, 2)).payload()["value"] == "7/2"
    # g1_mono at k = 2 asserts no inequality: a batch of no items
    assert Certificate("farkas-batch", (), lemma="g1_mono", k=2).payload() == {
        "kind": "farkas-batch", "lemma": "g1_mono", "k": 2, "items": []
    }


def test_every_lemma_certificate_of_strong_2_3_replays(tmp_path):
    # g1_mono asserts nothing at k = 2: its CERTIFIED row stores an empty batch, which replays
    rows, status = run(ExperimentSpec("s23", [make_shape("strong", (2, 3))], ("lemmas",)), tmp_path)
    assert status == 0
    assert {r.metric: r.value for r in rows}["lemma_g1_mono_k2"] == "CERTIFIED"
    certs = sorted((tmp_path / "certs").glob("*.json"))
    assert len(certs) == len(rows) == 5
    items = {json.loads(path.read_text())["lemma"]: json.loads(path.read_text())["items"] for path in certs}
    assert items["g1_mono"] == []
    assert all(replay_certificate(path) for path in certs)


# sha256[:16] of each preset's CSV without the wall-time column, in
# PRESET_NAMES order; a change that keeps the results leaves these alone
PRESET_DIGESTS = (
    "36dd213c91b5e5bc",
    "cfdba31bc2fa4793",
    "567655421e3120d5",
    "d833a039e2659e18",
    "ae37546b534ebe93",
    "a66b621734f4e108",
    "eb177e3f2c3cf1f9",
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
    for module, constant, key, value in (
        (exact_lp, "PIVOT_BUDGET", "pivot_budget", 50),
        (threshold_analysis, "INPUT_CAP", "input_cap", 8),
    ):
        spec = ExperimentSpec(key, [shape], modes=ALL_MODES)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(module, constant, value)
            rows, status = run(spec, tmp_path)
        assert status == 0
        # the results JSON records the budget the run spent under
        assert json.loads((tmp_path / f"{key}.json").read_text())["spec"][key] == value
        values = {r.metric: r.value for r in rows}
        for metric in ("sign_degree", "minweight_lp", "minweight_exact"):
            assert values[metric] == "SKIPPED", (spec.name, metric)
            assert f"{key.replace('_', ' ')} {value}" in values[f"{metric}_note"]
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
    monkeypatch.setattr(threshold_analysis, "INPUT_CAP", 8)
    res = pipeline.run_shape(make_shape("weak", (5,)), ("lemmas", "verify-gate"))
    values = {fd.metric: fd.value for fd in res.findings}
    for metric in ("verify_gate", "lemma_gt_exp_k5", "lemma_gt_step_k5"):  # the comparator's 2k inputs
        assert res.verdicts[metric] == "SKIPPED"
        assert values[f"{metric}_note"] == "n = 10 exceeds the input cap 8"


def test_lemma_lps_past_the_lp_entry_cap_skip_before_any_row_is_built(monkeypatch, capsys):
    # g0 at k = 24 is inside the input cap, but its LP would be 2^24 x 25
    def refuse(values, k):
        raise AssertionError("_product_rows called past the LP entry cap")

    monkeypatch.setattr(threshold_analysis, "_product_rows", refuse)
    assert cli_main(["check-lemma", "g0_all", "--k", "24"]) == 2
    assert capsys.readouterr().out == "SKIPPED: a 16777216 x 25 LP exceeds the LP entry cap 134217728\n"
    monkeypatch.setattr(threshold_analysis, "LP_ENTRY_CAP", 3**5 * 6 - 1)  # the comparator at k = 5
    res = pipeline.run_shape(make_shape("weak", (5,)), ("lemmas",))
    values = {fd.metric: fd.value for fd in res.findings}
    for metric in ("lemma_gt_exp_k5", "lemma_gt_step_k5"):
        assert res.verdicts[metric] == "SKIPPED"
        assert values[f"{metric}_note"] == "a 243 x 6 LP exceeds the LP entry cap 1457"


def test_representation_lps_past_the_lp_entry_cap_skip_before_the_matrix_is_built(monkeypatch):
    def refuse(f):
        raise AssertionError("_fun_bits called past the LP entry cap")

    with monkeypatch.context() as mp:
        mp.setattr(threshold_analysis, "_fun_bits", refuse)
        with pytest.raises(BudgetError, match="a 8388608 x 25 LP exceeds the LP entry cap 134217728"):
            threshold_analysis.build_representation_problem(BoolFun(23, Convention.ZERO_ONE, 0), 1)
    monkeypatch.setattr(threshold_analysis, "LP_ENTRY_CAP", 16 * 6 - 1)  # weak(2)'s degree-1 LP is 16 x 6
    res = pipeline.run_shape(make_shape("weak", (2,)), ("signdeg", "minweight-lp"))
    skipped = {"sign_degree": "SKIPPED", "minweight_lp": "SKIPPED"}
    assert res.verdicts == {"signdeg_infeasible_d0": "CERTIFIED", **skipped}
    assert res.findings[-1].value == "a 16 x 6 LP exceeds the LP entry cap 95"


def test_violated_lemma_fails_the_run(tmp_path, monkeypatch):
    def violated(lemma, k):
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
        (
            ["build", "weak", "2,3", "--out", str(missing / "x.json")],
            f"cannot write {missing / 'x.json'}: No such file or directory",
        ),
        (["reproduce", "k5-optimal", "--out", str(bad_table)], f"cannot write {bad_table}: File exists"),
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

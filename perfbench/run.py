"""ptflab benchmark: run one workload closed-loop and print its metrics.

    python3 perfbench/run.py --workload preset-weak23 --seed 1 --seconds 45 --trace 0

Run from the root of a ptflab checkout; the library is imported from its
``src/``.  One process runs one workload: passes of ``harness.run`` back to
back, one after the other, until ``--seconds`` have gone by.  Every pass is
then checked against the expected verdicts and every certificate it stored
is replayed.  With ``--trace 0`` the last line of output carries the
end-to-end metrics, with times at a reference host speed (see
hostspeed.py); with ``--trace 1`` untraced and traced passes alternate and it
carries the per-layer metrics.  Details, run conditions and spans go
to ``.perfbench_out/`` in the checkout.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import hostspeed
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_out"
SETUP_SAMPLES = 5

END_TO_END = {"pass_ref_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}

PER_LAYER = {
    "exact_lp.solve.self_s": "s",
    "exact_lp.solve.calls": "count",
    "exact_lp.solve.pivots": "count",
    "exact_lp.min_l1.self_s": "s",
    "exact_lp.min_l1.calls": "count",
    "exact_lp.min_l1.pivots": "count",
    "exact_lp.ilp_min.self_s": "s",
    "exact_lp.ilp_min.nodes": "count",
    "exact_lp.ilp_min.gap": "weight",
    "exact_lp.check_farkas.self_s": "s",
    "exact_lp.check_farkas.calls": "count",
    "exact_lp.check_farkas.distinct_ratio": "ratio",
    "exact_lp.check_witness.self_s": "s",
    "exact_lp.check_witness.calls": "count",
    "exact_lp.check_l1_bound.self_s": "s",
    "exact_lp.check_l1_bound.calls": "count",
    "exact_lp.cert_max_bits": "bits",
    "threshold_analysis.build_representation_problem.self_s": "s",
    "threshold_analysis.build_representation_problem.calls": "count",
    "threshold_analysis.build_representation_problem.distinct_ratio": "ratio",
    "threshold_analysis.build_representation_problem.rows_in": "count",
    "threshold_analysis.build_representation_problem.rows_out": "count",
    "threshold_analysis.build_representation_problem.cols": "count",
    "threshold_analysis.check_sign_representation.self_s": "s",
    "threshold_analysis.check_sign_representation.inputs": "count",
    "threshold_analysis.sign_degree.self_s": "s",
    "threshold_analysis.min_weight.self_s": "s",
    "threshold_analysis.certify_coefficient_lemma.self_s": "s",
    "boolfun.make_hard.self_s": "s",
    "boolfun.make_hard.calls": "count",
    "boolfun.make_hard.inputs": "count",
    "polynomial.witness_gate.self_s": "s",
    "polynomial.to_uv.self_s": "s",
    "polynomial.to_uv.terms": "count",
    "tuple_order.dominance_chain.self_s": "s",
    "harness.CertStore.put.self_s": "s",
    "harness.CertStore.put.calls": "count",
    "harness.CertStore.put.bytes": "bytes",
    "harness.run.self_s": "s",
    "harness.replay_certificate.self_s": "s",
    "harness.replay_certificate.calls": "count",
    "harness.replay_certificate.failed": "count",
    "trace.overhead_s": "s",
}

# The acceptance shares of pass time that each workload's hot layers hold.
HOT_LAYERS = {
    "preset-weak23": ("exact_lp.solve", "exact_lp.min_l1", "exact_lp.ilp_min"),
    "bnb-strong": ("exact_lp.ilp_min",),
    "lemma-sweep": ("exact_lp.check_farkas", "exact_lp.solve"),
    "gate-sweep": ("boolfun.make_hard",),
}

# Replay of this kind fails at the seed for a known defect; its rejections
# are measured, not treated as wrong output.
KNOWN_UNREPLAYABLE = "farkas-batch"


def use_checkout_source() -> None:
    src = ROOT / "src"
    if not (src / "ptflab" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no ptflab sources under {src}; run from a ptflab checkout")
    sys.path.insert(0, str(src))


def measure_setup(args) -> tuple[float, float]:
    """Seconds from starting a fresh process until ``import ptflab`` and the
    workload's spec are done: in wall time, and with the import and the spec
    at the reference host speed (see probe.py)."""
    cmd = [sys.executable, str(HERE / "probe.py"), args.workload, str(args.seed)]
    if args.small:
        cmd.append("--small")
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        if proc.wait(timeout=60) != 0 or not line.startswith("ready "):
            raise SystemExit(f"perfbench: set-up probe failed: {line!r}")
    return elapsed, elapsed - float(line.split()[1])


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def run_passes(args, spec, tracer, out_root: Path, between) -> list[dict]:
    """Closed loop: one pass after another until the time is up.  With
    tracing, untraced and traced passes alternate, ending on a full pair.
    ``between()`` runs before each pass, outside its timing."""
    from ptflab import harness

    passes = []
    start = time.perf_counter()
    while True:
        between()
        pid = len(passes)
        traced = bool(args.trace) and pid % 2 == 1
        out = out_root / f"pass-{pid}"
        tracer.pass_id = pid
        error = None
        gc.collect()  # leave no garbage of the previous pass to this one
        # traced runs leave the host-speed sampler out of their spans
        clock = None if args.trace else hostspeed.PassClock()
        with spans.tracing(tracer) if traced else contextlib.nullcontext(), clock or contextlib.nullcontext():
            t0 = time.perf_counter()
            try:
                harness.run(spec, out)
            except Exception:
                error = traceback.format_exc()
            wall = time.perf_counter() - t0
        if error:
            print(f"pass {pid} raised:\n{error}", file=sys.stderr)
        reference = wall if clock is None else clock.reference_s
        samples = 0 if clock is None else clock.sample_count
        passes.append({"id": pid, "traced": traced, "wall_s": wall, "reference_s": reference, "speed_samples": samples, "out": out, "error": error})
        done = time.perf_counter() - start >= args.seconds
        if done and (not args.trace or len(passes) % 2 == 0):
            return passes


def check_and_replay(spec, passes, tracer) -> dict:
    """Verdict check and certificate replay of every pass, after timing."""
    from ptflab import harness

    tally = {"attempted": 0, "failed": 0, "stored": 0, "rejected": 0, "wrong_rejections": 0, "problems": []}
    for p in passes:
        if p["error"]:
            n = workloads.verdict_count(spec)
            tally["attempted"] += n
            tally["failed"] += n
            tally["problems"].append(f"pass {p['id']} raised")
            continue
        try:
            attempted, failed, problems = workloads.check_pass(spec, p["out"])
        except (OSError, KeyError) as exc:
            attempted = failed = workloads.verdict_count(spec)
            problems = [f"pass {p['id']}: results unreadable: {exc!r}"]
        tally["attempted"] += attempted
        tally["failed"] += failed
        tally["problems"] += problems
        certs = sorted((p["out"] / "certs").glob("*.json"))
        tracer.pass_id = p["id"]
        with spans.tracing(tracer) if p["traced"] else contextlib.nullcontext():
            for cert in certs:
                try:
                    ok = harness.replay_certificate(cert) is True
                except Exception:
                    ok = False
                tally["stored"] += 1
                if not ok:
                    tally["rejected"] += 1
                    try:
                        kind = json.loads(cert.read_text()).get("kind")
                    except (OSError, ValueError):
                        kind = None
                    if kind != KNOWN_UNREPLAYABLE:
                        tally["wrong_rejections"] += 1
                        tally["problems"].append(f"certificate {cert.name} ({kind}) rejected")
    return tally


def _ratio(num: int, den: int) -> float:
    return num / den if den else 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true", help="reduced workload sizes, for the self-test")
    args = parser.parse_args(argv)

    use_checkout_source()

    import numpy

    spec = workloads.build_spec(args.workload, args.seed, args.small)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out_root = WORK / f"{tag}-{os.getpid()}"
    shutil.rmtree(out_root, ignore_errors=True)
    WORK.mkdir(parents=True, exist_ok=True)
    tracer = spans.Tracer()
    # set-up probes are spread over the run, one before each pass, so that
    # their median does not hang on one moment of a noisy host
    setup: list[tuple[float, float]] = []

    def probe() -> None:
        if not args.trace and len(setup) < SETUP_SAMPLES:
            setup.append(measure_setup(args))

    try:
        passes = run_passes(args, spec, tracer, out_root, probe)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        for _ in range(0 if args.trace else SETUP_SAMPLES):
            probe()
        tally = check_and_replay(spec, passes, tracer)
    finally:
        shutil.rmtree(out_root, ignore_errors=True)

    untraced = [p["wall_s"] for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    conditions = {
        "workload": args.workload,
        "size": "small" if args.small else "full",
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": _git_commit(),
        "node_budget": spec.node_budget,
        "harness_workers": getattr(spec, "workers", 1),
        "passes": len(passes),
        "wall_samples": len(untraced),
        "traced_samples": len(traced),
        "setup_samples": len(setup),
        "speed_samples": sum(p["speed_samples"] for p in passes),
        "speed_interval_s": hostspeed.PASS_INTERVAL_S,
        "setup_speed_interval_s": hostspeed.SETUP_INTERVAL_S,
        "reference_kernel_s": hostspeed.REFERENCE_KERNEL_S,
    }
    failed_ratio = _ratio(tally["failed"], tally["attempted"])
    replay_failed_ratio = _ratio(tally["rejected"], tally["stored"])
    correct = tally["failed"] == 0 and tally["wrong_rejections"] == 0
    detail = {
        "conditions": conditions,
        "pass_wall_s": [p["wall_s"] for p in passes],
        "pass_reference_s": [p["reference_s"] for p in passes],
        "pass_traced": [p["traced"] for p in passes],
        "setup_wall_s_samples": [wall for wall, _ in setup],
        "setup_s_samples": [ref for _, ref in setup],
        "failed_ratio": {"value": failed_ratio, "failed": tally["failed"], "attempted": tally["attempted"]},
        "replay_failed_ratio": {"value": replay_failed_ratio, "rejected": tally["rejected"], "stored": tally["stored"]},
        "problems": tally["problems"],
    }

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} passes={len(passes)}")
    wall_s = statistics.median(untraced)
    if args.trace:
        ids = [p["id"] for p in traced]
        per_pass = [spans.pass_metrics(tracer, pid, list(PER_LAYER)) for pid in ids]
        values = {name: statistics.median(m.get(name, 0) for m in per_pass) for name in PER_LAYER}
        values["trace.overhead_s"] = statistics.median(p["wall_s"] for p in traced) - wall_s
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER.items()}
        layers = spans.breakdown(tracer, ids)
        hot = HOT_LAYERS[args.workload]
        hot_share = sum(layers["layers"].get(n, {}).get("share", 0.0) for n in hot)
        detail["self_time_breakdown"] = layers
        detail["hot_layers"] = {"layers": hot, "share": hot_share}
        detail["untraced_wall_s"] = wall_s
        detail["layers_not_found"] = tracer.missing
        for name, m in metrics.items():
            print(f"  {name:64s} {m['value']:>14.6g} {m['unit']:6s} median of {len(ids)} traced passes")
        print(f"  self-time breakdown (median traced pass {layers['pass_s']:.4f} s):")
        for name, row in sorted(layers["layers"].items(), key=lambda kv: -kv[1]["self_s"]):
            print(f"    {name:58s} {row['self_s']:10.4f} s {100 * row['share']:6.1f} %")
        print(f"  hot layers {' + '.join(hot)}: {100 * hot_share:.1f} % of pass time")
        (WORK / f"spans-{tag}.json").write_text(json.dumps({"conditions": conditions, "spans": tracer.to_json()}) + "\n")
    else:
        values = {
            "pass_ref_s": statistics.median(p["reference_s"] for p in passes),
            "setup_s": statistics.median(ref for _, ref in setup),
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
        speed = wall_s / values["pass_ref_s"]
        print(f"  {'pass_ref_s':20s} {values['pass_ref_s']:12.6f} s    median of {len(untraced)} passes, at reference host speed")
        print(f"  {'wall_s':20s} {wall_s:12.6f} s    median of {len(untraced)} passes, wall time ({speed:.2f}x the reference)")
        print(f"  {'setup_s':20s} {values['setup_s']:12.6f} s    median of {len(setup)} fresh processes, import and spec at reference host speed")
        print(f"  {'setup_wall_s':20s} {statistics.median(w for w, _ in setup):12.6f} s    median of {len(setup)} fresh processes, wall time")
        print(f"  {'peak_rss_mb':20s} {peak_rss_mb:12.3f} MiB  one process, {len(passes)} passes")
    print(f"  {'failed_ratio':20s} {failed_ratio:12.6f}      {tally['failed']}/{tally['attempted']} verdicts")
    print(f"  {'replay_failed_ratio':20s} {replay_failed_ratio:12.6f}      {tally['rejected']}/{tally['stored']} certificates")
    for problem in tally["problems"][:20]:
        print(f"  problem: {problem}")
    print("conditions " + json.dumps(conditions))
    detail["metrics"] = metrics
    (WORK / f"result-{tag}.json").write_text(json.dumps(detail, indent=1) + "\n")
    print(json.dumps({"correct": correct, "attempted": tally["attempted"], "failed": tally["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

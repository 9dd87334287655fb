"""Span recording around ptflab's layers, from outside the library.

``tracing(tracer)`` replaces each traced public function at every module
attribute that refers to it, in the defining module and in every ptflab
module that imported it with ``from ... import``, and restores the
originals on exit.  Untraced passes therefore run the library unchanged.

A span holds its name, start, end, parent span and pass id.  Counters are
read from arguments and return values only.  The work of reading them runs
inside a ``trace.bookkeeping`` span, so it is charged to the tracer and not
to the self time of the enclosing layer.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import importlib
import statistics
import sys
import time
from fractions import Fraction


class Tracer:
    def __init__(self):
        # one list per span: [name, start, end, parent, pass_id, counters]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.pass_id = None
        self.missing: list[str] = []  # traced layers the library no longer has

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, 0.0, 0.0, parent, self.pass_id, {}])
        sid = len(self.spans) - 1
        self._stack.append(sid)
        self.spans[sid][1] = time.perf_counter()
        return sid

    def close(self, sid: int) -> None:
        self.spans[sid][2] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        sid = self.open(name)
        try:
            yield
        finally:
            self.close(sid)

    def to_json(self) -> list[dict]:
        return [
            {"name": n, "start": s, "end": e, "parent": p, "pass": pid, "counters": c}
            for n, s, e, p, pid, c in self.spans
        ]


# ---------------------------------------------------------------------------
# Counters read from arguments and return values
# ---------------------------------------------------------------------------


def _bits(vectors) -> int:
    best = 0
    for vec in vectors:
        for v in vec or ():
            v = Fraction(v)
            best = max(best, v.numerator.bit_length(), v.denominator.bit_length())
    return best


def _digest(*parts) -> str:
    return hashlib.blake2b(repr(parts).encode(), digest_size=12).hexdigest()


def _lp_outcome(c, args, kwargs, result, exc):
    if result is not None:
        c["pivots"] = result.stats.get("pivots", 0)
        c["bits"] = _bits((result.witness, result.farkas, result.dual))


def _ilp(c, args, kwargs, result, exc):
    if result is not None:
        c["nodes"] = result.nodes
        if result.value is not None and result.lower_bound is not None:
            c["gap"] = float(result.value - result.lower_bound)
        c["bits"] = _bits((result.witness,))


def _farkas_input(c, args, kwargs, result, exc):
    problem, lam = args[0], args[1]
    c["digest"] = _digest(problem.num_vars, problem.nonneg, problem.constraints, list(lam))


def _representation(c, args, kwargs, result, exc):
    if result is not None:
        # the LP is a function of f, degree, basis and monomials; hashing
        # those is cheaper than hashing its rows
        f = result.f
        c["digest"] = _digest(f.n, f.table, f.convention, result.degree, result.basis, result.monomials)
        c["rows_in"] = 1 << f.n
        c["rows_out"] = len(result.problem.constraints)
        c["cols"] = result.problem.num_vars


def _sign_check(c, args, kwargs, result, exc):
    c["inputs"] = 1 << args[1].n


def _make_hard(c, args, kwargs, result, exc):
    if result is not None:
        c["inputs"] = 1 << result.n


def _to_uv(c, args, kwargs, result, exc):
    if result is not None:
        c["terms"] = len(result.coeffs)


def _cert_put(c, args, kwargs, result, exc):
    store = args[0]
    if store.root is not None and result is not None:
        c["bytes"] = (store.root / f"{result}.json").stat().st_size


def _replay(c, args, kwargs, result, exc):
    c["failed"] = int(exc is not None or result is not True)


# (module, attribute, counters) for every traced layer boundary
LAYERS = (
    ("boolfun", "make_hard", _make_hard),
    ("polynomial", "witness_gate", None),
    ("polynomial", "to_uv", _to_uv),
    ("tuple_order", "dominance_chain", None),
    ("exact_lp", "solve", _lp_outcome),
    ("exact_lp", "min_l1", _lp_outcome),
    ("exact_lp", "ilp_min", _ilp),
    ("exact_lp", "check_farkas", _farkas_input),
    ("exact_lp", "check_witness", None),
    ("exact_lp", "check_l1_bound", None),
    ("threshold_analysis", "build_representation_problem", _representation),
    ("threshold_analysis", "check_sign_representation", _sign_check),
    ("threshold_analysis", "sign_degree", None),
    ("threshold_analysis", "min_weight", None),
    ("threshold_analysis", "certify_coefficient_lemma", None),
    ("harness", "CertStore.put", _cert_put),
    ("harness", "run", None),
    ("harness", "replay_certificate", _replay),
)


def _wrap(tracer: Tracer, name: str, fn, counters):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        sid = tracer.open(name)
        result = exc = None
        try:
            result = fn(*args, **kwargs)
            return result
        except Exception as err:
            exc = err
            raise
        finally:
            tracer.close(sid)
            if counters is not None:
                with tracer.span("trace.bookkeeping"):
                    counters(tracer.spans[sid][5], args, kwargs, result, exc)

    return traced


@contextlib.contextmanager
def tracing(tracer: Tracer):
    """Install span wrappers on every layer in LAYERS for the duration."""
    modules = [m for name, m in list(sys.modules.items()) if name == "ptflab" or name.startswith("ptflab.")]
    undo = []
    missing = tracer.missing = []
    try:
        for mod_name, attr, counters in LAYERS:
            module = importlib.import_module(f"ptflab.{mod_name}")
            span_name = f"{mod_name}.{attr}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(module, cls_name, None)
                original = getattr(owner, meth, None)
                if original is None:
                    missing.append(span_name)
                    continue
                setattr(owner, meth, _wrap(tracer, span_name, original, counters))
                undo.append((owner, meth, original))
                continue
            original = getattr(module, attr, None)
            if original is None:
                missing.append(span_name)
                continue
            wrapper = _wrap(tracer, span_name, original, counters)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        undo.append((mod, key, original))
        yield
    finally:
        for owner, key, original in reversed(undo):
            setattr(owner, key, original)


# ---------------------------------------------------------------------------
# Self time and per-layer metrics
# ---------------------------------------------------------------------------


def self_times(spans: list[list]) -> list[float]:
    """Duration of each span minus the durations of its direct children."""
    own = [e - s for _, s, e, _, _, _ in spans]
    for _, s, e, parent, _, _ in spans:
        if parent is not None:
            own[parent] -= e - s
    return own


def _counter(metric: str, spans: list[list]):
    """A pass's value of one counter metric over its spans of one layer."""
    if metric == "calls":
        return len(spans)
    if metric == "distinct_ratio":
        return len({sp[5]["digest"] for sp in spans}) / len(spans) if spans else 0.0
    return sum(sp[5].get(metric, 0) for sp in spans)


def _roots(spans: list[list]) -> list[int]:
    root: list[int] = []
    for sid, sp in enumerate(spans):
        root.append(sid if sp[3] is None else root[sp[3]])
    return root


def pass_metrics(tracer: Tracer, pass_id, names: list[str]) -> dict:
    """Value of each per-layer metric name for one traced pass.

    Layers count only inside the pass (under its root ``harness.run``
    span); replay of the pass's certificates counts only as the root
    ``harness.replay_certificate`` spans, not through the checkers it calls.
    """
    own = self_times(tracer.spans)
    root = _roots(tracer.spans)
    by_layer: dict = {}
    selfs: dict = {}
    bits = 0
    for sid, sp in enumerate(tracer.spans):
        if sp[4] != pass_id:
            continue
        if tracer.spans[root[sid]][0] != "harness.run" and root[sid] != sid:
            continue
        by_layer.setdefault(sp[0], []).append(sp)
        selfs[sp[0]] = selfs.get(sp[0], 0.0) + own[sid]
        bits = max(bits, sp[5].get("bits", 0))
    out = {}
    for name in names:
        if name == "exact_lp.cert_max_bits":
            out[name] = bits
            continue
        layer, _, metric = name.rpartition(".")
        if metric == "self_s":
            out[name] = selfs.get(layer, 0.0)
        else:
            out[name] = _counter(metric, by_layer.get(layer, []))
    return out


def breakdown(tracer: Tracer, pass_ids) -> dict:
    """Median self seconds per span name over the given passes, and each
    name's share of the median pass time.  Only spans under a root
    ``harness.run`` span count, so certificate replay stays out of it."""
    own = self_times(tracer.spans)
    root = _roots(tracer.spans)
    per_pass: dict = {pid: {} for pid in pass_ids}
    totals: dict = {pid: 0.0 for pid in pass_ids}
    for sid, sp in enumerate(tracer.spans):
        pid = sp[4]
        if pid not in per_pass or tracer.spans[root[sid]][0] != "harness.run":
            continue
        per_pass[pid][sp[0]] = per_pass[pid].get(sp[0], 0.0) + own[sid]
        if root[sid] == sid:
            totals[pid] += sp[2] - sp[1]
    names = sorted({n for d in per_pass.values() for n in d})
    pass_s = statistics.median(totals.values())
    rows = {}
    for name in names:
        med = statistics.median(d.get(name, 0.0) for d in per_pass.values())
        rows[name] = {"self_s": med, "share": med / pass_s if pass_s else 0.0}
    return {"pass_s": pass_s, "layers": rows}

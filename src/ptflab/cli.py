"""Command-line entry points.

Subcommands mirror the library surface: build truth tables, dump the snake
enumeration, verify witness gates, compute sign-degrees and minimal
weights for stored truth tables, certify coefficient lemmas, and reproduce
experiment presets.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .boolfun import BoolFun, EvalError, make_hard
from .exact_lp import DEFAULT_NODE_BUDGET
from .harness import PRESET_NAMES, preset, run
from .polynomial import witness_gate
from .shapes import ShapeError, make_shape
from .threshold_analysis import (
    _LEMMA_BASE,
    AnalysisError,
    BudgetError,
    RepresentationLadder,
    certify_coefficient_lemma,
    check_input_cap,
    check_sign_representation,
)
from .tuple_order import OrderContext, OrderError, enumerate_ordered


def _parse_ks(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(p) for p in text.replace(" ", "").split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"group sizes are comma-separated integers, not {text!r}") from None


def _at_least_0(what: str):
    """An argparse type for a count that refuses, quoting it, a non-integer or a negative value."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{what} is an integer, not {text!r}") from None
        if value < 0:
            raise argparse.ArgumentTypeError(f"{what} is at least 0, not {value}")
        return value

    return parse


def _write_out(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _cmd_build(args) -> int:
    shape = make_shape(args.variant, args.ks)
    check_input_cap(shape.n)
    fn = make_hard(shape)
    _write_out(json.dumps(fn.to_json(), indent=2) + "\n", args.out)
    return 0


def _cmd_order(args) -> int:
    shape = make_shape(args.variant, args.ks)
    ctx = OrderContext(shape)
    rows = enumerate_ordered(ctx)
    buf = []
    header = ["rank"] + [f"a{i}" for i in range(1, shape.d + 1)]
    buf.append(",".join(header))
    for rank, alpha in enumerate(rows, start=1):
        buf.append(",".join([str(rank)] + [str(v) for v in alpha]))
    _write_out("\n".join(buf) + "\n", args.out)
    return 0


def _cmd_verify_gate(args) -> int:
    shape = make_shape(args.variant, args.ks)
    check_input_cap(shape.n)
    fn = make_hard(shape)
    gate = witness_gate(shape)
    cx = check_sign_representation(gate, fn)
    if cx is None:
        print(f"PASS {shape.describe()}: gate of weight {gate.weight} on all 2^{shape.n} inputs")
        return 0
    print(f"FAIL {shape.describe()}: input {cx.assignment} gives p={cx.poly_value}, f={cx.fun_value}")
    return 1


def _load_fun(path: str) -> BoolFun:
    """The truth table stored at ``path``, or ``EvalError`` saying why not."""
    try:
        return BoolFun.from_json(json.loads(Path(path).read_text()))
    except EvalError:
        raise
    except OSError as exc:
        raise EvalError(f"cannot read {path}: {exc.strerror}") from None
    except KeyError as exc:
        raise EvalError(f"{path} has no field {exc}") from None
    except (TypeError, ValueError) as exc:  # not JSON, or a field of the wrong kind
        raise EvalError(f"{path} is not a truth table: {exc}") from None


def _cmd_signdeg(args) -> int:
    ladder = RepresentationLadder(_load_fun(args.fn))
    infeasible = []
    for d in range(args.dmax + 1):
        out = ladder.solve(d)[1]
        if out.status != "infeasible":
            print(f"sign degree = {d}", *infeasible, sep="\n")
            return 0
        infeasible.append(f"  degree {d}: infeasible (Farkas certificate, {len(out.farkas)} rows)")
    print(f"sign degree > {args.dmax}")
    return 1


def _cmd_minweight(args) -> int:
    ladder = RepresentationLadder(_load_fun(args.fn))
    exact = ladder.exact_weight(args.degree, args.budget_nodes) if args.exact else None
    value = ladder.solve(args.degree)[1].value if exact is None else exact.value
    if value is None:
        print(f"no degree-{args.degree} gate exists")
        return 1
    print(f"minimal weight ({'lp' if exact is None else 'exact'}) at degree {args.degree}: {value}")
    if args.out:  # main refuses --out without --exact
        payload = {"degree": args.degree, "weight": str(value), "gate": exact.witness.to_json()}
        Path(args.out).write_text(json.dumps(payload, indent=2) + "\n")
    return 0


def _cmd_check_lemma(args) -> int:
    res = certify_coefficient_lemma(args.name, args.k)
    for chk in res.checks:
        print(f"{chk.status}: {chk.description}")
    print(f"{res.status}: {args.name} at k={args.k}")
    return 0 if res.status == "CERTIFIED" else 1


def _cmd_reproduce(args) -> int:
    spec = preset(args.preset)
    if args.budget_nodes is not None:
        spec.node_budget = args.budget_nodes
    rows, status = run(spec, args.out)
    for row in rows:
        print(",".join(row.as_list()[:-1]))
    print(f"wrote {args.out}/{spec.name}.csv ({len(rows)} rows)")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="ptflab",
        description="Hard threshold-function families and exact weight/degree verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="emit a hard function's truth table as JSON")
    p.add_argument("variant", choices=["weak", "strong"])
    p.add_argument("ks", type=_parse_ks, help="comma-separated group sizes, e.g. 2,3")
    p.add_argument("--out", default=None)
    p.set_defaults(handler=_cmd_build)

    p = sub.add_parser("order", help="print the snake enumeration as CSV")
    p.add_argument("variant", choices=["weak", "strong"])
    p.add_argument("ks", type=_parse_ks)
    p.add_argument("--out", default=None)
    p.set_defaults(handler=_cmd_order)

    p = sub.add_parser("verify-gate", help="check the witness gate exhaustively")
    p.add_argument("ks", type=_parse_ks)
    p.add_argument("--variant", choices=["weak", "strong"], default="weak")
    p.set_defaults(handler=_cmd_verify_gate)

    p = sub.add_parser("signdeg", help="sign-degree of a stored truth table")
    p.add_argument("fn", help="BoolFun JSON file")
    p.add_argument("--dmax", type=_at_least_0("a degree"), required=True)
    p.set_defaults(handler=_cmd_signdeg)

    p = sub.add_parser("minweight", help="minimal gate weight of a stored truth table")
    p.add_argument("fn", help="BoolFun JSON file")
    p.add_argument("--degree", type=_at_least_0("a degree"), required=True)
    p.add_argument("--exact", action="store_true")
    p.add_argument("--budget-nodes", type=_at_least_0("a node budget"), default=DEFAULT_NODE_BUDGET)
    p.add_argument("--out", default=None, help="write the exact gate JSON here (needs --exact)")
    p.set_defaults(handler=_cmd_minweight)
    minweight = p

    p = sub.add_parser("check-lemma", help="certify a coefficient lemma by LP infeasibility")
    p.add_argument("name", choices=list(_LEMMA_BASE))
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(handler=_cmd_check_lemma)

    p = sub.add_parser("reproduce", help="run a named experiment preset")
    p.add_argument("preset", choices=list(PRESET_NAMES))
    p.add_argument("--out", default="results")
    p.add_argument("--budget-nodes", type=_at_least_0("a node budget"), default=None)
    p.set_defaults(handler=_cmd_reproduce)

    args = parser.parse_args(argv)
    if args.command == "minweight" and args.out and not args.exact:
        minweight.error("argument --out: needs --exact, which finds the gate it writes")
    try:
        return args.handler(args)
    except BudgetError as exc:  # any budget: pivots, nodes or the input cap
        print(f"SKIPPED: {exc}")
        return 2
    except (ShapeError, OrderError, EvalError, AnalysisError) as exc:  # input it cannot take
        print(f"ERROR: {exc}")
        return 2
    except OSError as exc:  # a file it cannot write (one it cannot read is an EvalError)
        if exc.filename is None:  # not a file: stdout, say
            raise
        print(f"ERROR: cannot write {exc.filename}: {exc.strerror}")
        return 2


if __name__ == "__main__":
    raise SystemExit(main())

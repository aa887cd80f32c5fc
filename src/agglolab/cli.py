"""Command-line front end.

Subcommands: ``generate`` (emit an instance file), ``run`` (one greedy run,
optionally scripted, with dendrogram output), ``oracle`` (exact optimum),
``verify`` (acceptance suites with JSON/CSV reports), and ``bounds``
(guarantee formula values).

Exit codes: 0 ok, 1 check or script failure, 2 usage error, 3 size/budget
exceeded.
"""

from __future__ import annotations

import argparse
import sys

from .bounds import LEVELS, bound_value, render_bound
from .engine import Problem, ScriptViolationError, agglomerate
from .forge import (
    ParseError,
    gen_hypercube_l1,
    gen_l2_3d,
    gen_line_1d,
    gen_linf_2d,
    gen_random,
    read_case,
    write_case,
    write_instance,
)
from .harness import verify_suite
from .metrics import L2, Norm
from .oracles import CoverableSample, best_oracle

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3

_PROBLEMS = {p.value: p for p in Problem}


def _parse_norm(label: str) -> Norm:
    """Inverse of :attr:`Norm.label`: ``l<p>``, ``lp<p>`` or ``linf``."""
    digits = label[2:] if label.startswith("lp") else label[1:] if label.startswith("l") else ""
    try:
        return Norm(float(digits))
    except ValueError:
        raise argparse.ArgumentTypeError(f"unknown norm {label!r} (use l<p>, lp<p> or linf)") from None


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="agglolab",
        description="Greedy agglomerative clustering, exact oracles, and ratio checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="emit an instance file")
    g.add_argument("--family", required=True,
                   choices=["line-1d", "linf-2d", "l2-3d", "hypercube-l1",
                            "uniform-cube", "gaussian-blobs", "coverable"])
    g.add_argument("--out", required=True)
    g.add_argument("--n-param", type=int, default=3, help="size parameter for line-1d")
    g.add_argument("--x", type=float, default=1.56, help="shape parameter for l2-3d")
    g.add_argument("--k", type=int, default=8, help="cluster count (hypercube-l1, coverable)")
    g.add_argument("--n", type=int, default=32, help="point count (random families)")
    g.add_argument("--d", type=int, default=2, help="dimension (random families)")
    g.add_argument("--r", type=float, default=1.0, help="ball radius (coverable)")
    g.add_argument("--norm", type=_parse_norm, default=L2)
    g.add_argument("--seed", type=int, default=0)

    r = sub.add_parser("run", help="run the greedy merge loop on an instance file")
    r.add_argument("--instance", required=True)
    r.add_argument("--linkage", required=True, choices=sorted(_PROBLEMS))
    r.add_argument("--tie", default="lex", choices=["lex", "script"])
    r.add_argument("--k", type=int, default=1, help="stop once this many clusters remain")
    r.add_argument("--dendrogram", help="write the merge list to this file")

    o = sub.add_parser("oracle", help="exact optimal cost for one (problem, k)")
    o.add_argument("--instance", required=True)
    o.add_argument("--problem", required=True, choices=sorted(_PROBLEMS))
    o.add_argument("--k", type=int, required=True)

    v = sub.add_parser("verify", help="run an acceptance suite")
    v.add_argument("--suite", required=True)
    v.add_argument("--report", help="write a JSON report here")
    v.add_argument("--csv", help="write ratio rows as CSV here")
    v.add_argument("--seed", type=int, default=2026)

    b = sub.add_parser("bounds", help="evaluate a guarantee formula")
    b.add_argument("--problem", required=True, choices=sorted(_PROBLEMS))
    b.add_argument("--k", type=int, required=True)
    b.add_argument("--dim", type=int, required=True)
    b.add_argument("--level", default="at-k", choices=list(LEVELS))

    return parser


def _cmd_generate(args) -> int:
    if args.family == "line-1d":
        write_case(gen_line_1d(args.n_param), args.out)
    elif args.family == "linf-2d":
        write_case(gen_linf_2d(), args.out)
    elif args.family == "l2-3d":
        write_case(gen_l2_3d(args.x), args.out)
    elif args.family == "hypercube-l1":
        write_case(gen_hypercube_l1(args.k), args.out)
    else:
        family = args.family.replace("-", "_")
        result = gen_random(family, n=args.n, d=args.d, norm=args.norm,
                            seed=args.seed, k=args.k, r=args.r)
        if isinstance(result, CoverableSample):
            inst = result.to_instance(f"coverable-n{args.n}-d{args.d}-s{args.seed}")
            write_instance(inst, args.out)
            print(f"cover: k={result.cover.k} radius={result.cover.radius:g} "
                  "(certificate not serialized)")
        else:
            write_instance(result, args.out)
    print(f"wrote {args.out}")
    return EXIT_OK


def _cmd_run(args) -> int:
    case = read_case(args.instance)
    script = None
    if args.tie == "script":
        if case.script is None:
            print("error: --tie script but the instance file has no script", file=sys.stderr)
            return EXIT_USAGE
        script = case.script
    linkage = _PROBLEMS[args.linkage]
    hist = agglomerate(case.instance, linkage, script=script, stop_at_k=args.k)
    print(f"instance={case.instance.name} n={len(case.instance.points)} "
          f"linkage={linkage.value} k={args.k} cost={hist.cost_at_k(args.k):.12g}")
    if args.dendrogram:
        with open(args.dendrogram, "w") as fh:
            fh.write(hist.to_text() + "\n")
        print(f"wrote {args.dendrogram}")
    return EXIT_OK


def _cmd_oracle(args) -> int:
    case = read_case(args.instance)
    inst = case.instance
    problem = _PROBLEMS[args.problem]
    res = best_oracle(inst, problem, args.k)
    if res is None:
        print(f"size limit: no exact oracle covers {problem.value} at n={len(inst.points)}, "
              f"k={args.k}", file=sys.stderr)
        return EXIT_BUDGET
    sizes = ",".join(str(len(c)) for c in res.partition) if res.partition else "-"
    print(f"instance={inst.name} problem={problem.value} k={args.k} "
          f"opt={res.opt_cost:.12g} method={res.method} cluster-sizes={sizes}")
    return EXIT_OK


def _cmd_verify(args) -> int:
    try:
        result = verify_suite(args.suite, seed=args.seed,
                              report_json=args.report, report_csv=args.csv)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    for check in result.checks:
        print(f"{'PASS' if check.passed else 'FAIL'} {result.suite}/{check.name}: {check.detail}")
    if args.report:
        print(f"wrote {args.report}")
    if args.csv:
        print(f"wrote {args.csv}")
    return EXIT_OK if result.passed else EXIT_CHECK_FAILED


def _cmd_bounds(args) -> int:
    value = bound_value(_PROBLEMS[args.problem], args.k, args.dim, args.level)
    print(f"problem={args.problem} k={args.k} d={args.dim} "
          f"level={args.level} bound={render_bound(value)}")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "generate": _cmd_generate,
        "run": _cmd_run,
        "oracle": _cmd_oracle,
        "verify": _cmd_verify,
        "bounds": _cmd_bounds,
    }
    try:
        return handlers[args.command](args)
    except ScriptViolationError as exc:
        print(f"script violation: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    except (ParseError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())

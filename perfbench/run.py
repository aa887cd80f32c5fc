"""Benchmark entry point: one workload, one fresh process, one JSON result.

    python3 perfbench/run.py --workload greedy-scale --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout: the program is imported from
``src/`` of the checkout this file sits in, and the run stops with exit
code 2 if it is missing.  ``--workload all`` runs each workload in turn,
each in its own process.

With ``--trace 0`` the last line of output carries the end-to-end metrics;
with ``--trace 1`` it carries the per-layer metrics of a traced run, which
alternates untraced and traced passes of the same workload.  Earlier lines
give the run's metadata, the time of every slice and each failed operation.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))  # the perfbench package, when run as a script
# one thread of load: numerical libraries get one thread each
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_PROBES = 4  # extra set-ups in child processes; setup_s is the median of 1 + this
WORKLOADS = ("verify-suites", "greedy-scale", "oracle-grid")

# (name, unit, better); the order is the order of BENCHMARK.json
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("pass_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("ops_ok_frac", "frac", "higher"),
]
# per-layer metrics measured by the runner rather than derived from spans
RUN_LEVEL = [
    ("greedy.radius-lp.s", "s", "lower"),
    ("trace.overhead_frac", "frac", "lower"),
]


@dataclass
class Pass:
    traced: bool
    # per operation: measured seconds less the probes' cost, and reference
    # seconds per measured second while it ran (calibration.Sampler)
    times: list[float] = field(default_factory=list)
    scales: list[float] = field(default_factory=list)
    errors: list[str | None] = field(default_factory=list)
    outputs: dict[str, Any] = field(default_factory=dict)
    spans: list = field(default_factory=list)


def import_program() -> None:
    """Import agglolab from this checkout's ``src`` and nowhere else."""
    src = ROOT / "src"
    if not (src / "agglolab" / "__init__.py").is_file():
        print(f"error: no program source at {src / 'agglolab'}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(src))
    import agglolab

    if Path(agglolab.__file__).resolve().parent != (src / "agglolab").resolve():
        print(f"error: agglolab imported from {agglolab.__file__}, not {src}", file=sys.stderr)
        raise SystemExit(2)


def run_pass(wl, traced: bool, rec=None, targets=None) -> Pass:
    """Time every operation of the workload once, probing the host's speed
    while each runs.  An operation that raises is recorded as failed and the
    pass goes on with the next one."""
    from agglolab.metrics import SolverError
    from perfbench.calibration import Sampler, now
    from perfbench.spans import installed

    p = Pass(traced)
    with installed(targets, rec) if traced else nullcontext():
        for op in wl.ops:
            error = None
            with Sampler() as sampler:
                t0 = now()
                try:
                    out = op.run(p.outputs)
                except Exception as exc:  # an operation failure is a result, not an abort
                    error = exc
                seconds = now() - t0
            p.times.append(seconds - sampler.cost)
            p.scales.append(sampler.scale())
            p.errors.append(None if error is None else type(error).__name__)
            if error is None:
                p.outputs[op.label] = out
            elif not isinstance(error, SolverError):
                traceback.print_exception(error, file=sys.stderr)
    if traced:
        p.spans = rec.take()
    return p


def measure(wl, seconds: float, trace: bool, rec=None, targets=None) -> list[Pass]:
    """Repeat passes while the next one is expected to end within ``seconds``.

    At least one pass runs; a traced run alternates untraced and traced
    passes, starting untraced, and runs at least one of each.
    """
    passes: list[Pass] = []
    start = time.perf_counter()
    while True:
        traced = trace and len(passes) % 2 == 1
        passes.append(run_pass(wl, traced, rec, targets))
        elapsed = time.perf_counter() - start
        if len(passes) >= (2 if trace else 1) and elapsed * (len(passes) + 1) / len(passes) > seconds:
            return passes


def account(wl, passes: list[Pass]) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems).  Each operation's first successful
    output is checked; every other successful output must equal it."""
    from perfbench.workloads import CheckFailed

    attempted = failed = 0
    problems: list[str] = []
    for i, op in enumerate(wl.ops):
        ref = next((p for p in passes if p.errors[i] is None), None)
        check_ok = True
        if ref is not None:
            try:
                op.check(ref.outputs[op.label], ref.outputs)
            except CheckFailed as exc:
                check_ok = False
                problems.append(f"{op.label}: {exc}")
            except Exception as exc:  # a crashing check is a failed check
                check_ok = False
                problems.append(f"{op.label}: check raised {exc!r}")
                traceback.print_exception(exc, file=sys.stderr)
            ref_key = op.key(ref.outputs[op.label])
        for n, p in enumerate(passes):
            attempted += 1
            if p.errors[i] is not None:
                failed += 1
            elif not check_ok:
                failed += 1
            elif op.key(p.outputs[op.label]) != ref_key:
                failed += 1
                problems.append(f"{op.label}: pass {n} output differs from pass {passes.index(ref)}")
    return attempted, failed, problems


def slice_times(wl, passes: list[Pass], stat=statistics.median) -> dict[str, float]:
    """Per slice, ``stat`` over the given passes of the slice's summed
    operation times, in measured seconds less the probes' cost."""
    out = {}
    for name in dict.fromkeys(op.slice for op in wl.ops):
        idx = [i for i, op in enumerate(wl.ops) if op.slice == name]
        out[name] = stat(sum(p.times[i] for i in idx) for p in passes)
    return out


def reference_slices(wl, passes: list[Pass]) -> dict[str, float]:
    """Each slice's time in reference seconds: the sum over its operations
    of the median over the passes of the operation's reference time, its
    measured time scaled by the host's speed while it ran."""
    out: dict[str, float] = {}
    for i, op in enumerate(wl.ops):
        t = statistics.median(p.times[i] * p.scales[i] for p in passes)
        out[op.slice] = out.get(op.slice, 0.0) + t
    return out


def gated_pass_time(wl, passes: list[Pass]) -> float:
    """pass_s: sum over the gated slices of their median reference times."""
    ref = reference_slices(wl, passes)
    return sum(ref[name] for name in wl.gated)


def failure_lines(wl, passes: list[Pass]) -> list[str]:
    lines = []
    for i, op in enumerate(wl.ops):
        errs = [p.errors[i] for p in passes if p.errors[i] is not None]
        if errs:
            lines.append(f"failed: {op.label}: {errs[0]} in {len(errs)} of {len(passes)} passes")
    return lines


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def metadata(args, passes: list[Pass]) -> dict:
    import numpy
    import scipy

    from perfbench.workloads import LP_SEEDS

    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "passes": len(passes),
        "traced_passes": sum(p.traced for p in passes),
        "nproc": os.cpu_count(), "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(), "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "thread_caps": {v: os.environ[v] for v in THREAD_VARS},
        "lp_instance_seeds": list(LP_SEEDS),
    }


def setup(workload: str, seed: int, report_dir: Path):
    """Import the program, generate the inputs and warm up, probing the
    host's speed meanwhile.  Returns the workload and the set-up's measured
    seconds (less the probes' cost) and scale, as in ``Pass``."""
    from perfbench.calibration import Sampler, now  # imports the standard library only

    with Sampler() as sampler:
        t0 = now()
        import_program()
        from perfbench import workloads

        wl = workloads.build(workload, seed, report_dir)
        seconds = now() - t0
    return wl, (seconds - sampler.cost, sampler.scale())


def probe_setup(args) -> tuple[float, float]:
    """(seconds, scale) of a set-up in a fresh child process."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    seconds, scale = done.stdout.split()[-2:]
    return float(seconds), float(scale)


def end_to_end(wl, passes: list[Pass], setups: list[tuple[float, float]],
               peak_rss_mb: float, attempted: int, failed: int) -> dict[str, float]:
    return {
        "setup_s": statistics.median(seconds * scale for seconds, scale in setups),
        "pass_s": gated_pass_time(wl, passes),
        "peak_rss_mb": peak_rss_mb,
        "ops_ok_frac": (attempted - failed) / attempted,
    }


def per_layer(wl, setup_spans: list, plain: list[Pass], traced: list[Pass]) -> dict[str, float]:
    """Span-derived metrics of the traced passes, then the lp slice time of
    the untraced passes and the tracing overhead."""
    from perfbench import layers

    values = layers.per_layer(setup_spans, [p.spans for p in traced])
    values["greedy.radius-lp.s"] = reference_slices(wl, plain).get("greedy.radius-lp", 0.0)
    values["trace.overhead_frac"] = gated_pass_time(wl, traced) / gated_pass_time(wl, plain) - 1.0
    return values


def units() -> dict[str, str]:
    from perfbench import layers

    return {name: unit for name, unit, *_ in END_TO_END + layers.PER_LAYER + RUN_LEVEL}


def report(args, wl, passes: list[Pass], accounting: tuple[int, int, list[str]],
           values: dict[str, float], notes: list[str]) -> dict:
    """Print the run's metadata, notes, failures and check problems; return
    the result object."""
    attempted, failed, problems = accounting
    print("meta:", json.dumps(metadata(args, passes), sort_keys=True))
    for line in notes + failure_lines(wl, passes) + [f"check failed: {p}" for p in problems]:
        print(line)
    unit = units()
    return {
        "correct": not problems, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": v, "unit": unit[name]} for name, v in values.items()},
    }


def untraced_run(args, report_dir: Path) -> dict:
    wl, own_setup = setup(args.workload, args.seed, report_dir)
    from perfbench import layers
    from perfbench.spans import wrapped_names

    targets = layers.targets()
    setups = [own_setup] + [probe_setup(args) for _ in range(SETUP_PROBES)]
    if wrapped_names(targets):
        raise RuntimeError(f"untraced run found span wrappers on {wrapped_names(targets)}")
    passes = measure(wl, args.seconds, trace=False)
    if wrapped_names(targets):
        raise RuntimeError(f"untraced run left span wrappers on {wrapped_names(targets)}")
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    accounting = account(wl, passes)
    scales = [k for p in passes for k in p.scales]
    notes = [
        "setup: " + ", ".join(f"{s:.4f} s (scale {k:.3f})" for s, k in setups)
        + "; this process, then child processes",
        f"scale (reference seconds per measured second): median {statistics.median(scales):.3f},"
        f" range {min(scales):.3f}-{max(scales):.3f} over {len(scales)} operations",
    ]
    median = slice_times(wl, passes)
    fastest = slice_times(wl, passes, min)
    for name, value in reference_slices(wl, passes).items():
        gated = "" if name in wl.gated else ", not in pass_s"
        notes.append(f"slice {name}_s {value:.6f} reference s; measured over {len(passes)} "
                     f"passes: median {median[name]:.6f} s, fastest {fastest[name]:.6f} s{gated}")
    values = end_to_end(wl, passes, setups, peak_rss_mb, *accounting[:2])
    return report(args, wl, passes, accounting, values, notes)


def write_spans(path: Path, setup_spans: list, traced: list[Pass]) -> None:
    """Write every span of the traced run, one list per group (the set-up,
    then each traced pass): name, start, end, parent index, error, notes."""
    groups = [setup_spans] + [p.spans for p in traced]
    data = [[[s.name, s.start, s.end, s.parent, s.error, s.notes] for s in g] for g in groups]
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps({"groups": ["setup"] + ["pass"] * len(traced), "spans": data},
                               default=str))


def traced_run(args, report_dir: Path) -> dict:
    import_program()
    from perfbench import layers, workloads
    from perfbench.spans import Recorder, installed

    rec = Recorder()
    targets = layers.targets()
    with installed(targets, rec):
        wl = workloads.build(args.workload, args.seed, report_dir)
    setup_spans = rec.take()
    passes = measure(wl, args.seconds, trace=True, rec=rec, targets=targets)
    plain = [p for p in passes if not p.traced]
    traced = [p for p in passes if p.traced]
    spans_path = ROOT / ".perfbench-out" / f"spans-{args.workload}-seed{args.seed}.json"
    write_spans(spans_path, setup_spans, traced)
    notes = [
        "wait time: not reported; a run is one thread and no operation waits on another",
        f"spans: {len(setup_spans)} in set-up, "
        f"{' '.join(str(len(p.spans)) for p in traced)} in the traced passes, "
        f"written to {spans_path.relative_to(ROOT)}",
    ]
    values = per_layer(wl, setup_spans, plain, traced)
    return report(args, wl, passes, account(wl, passes), values, notes)


def parse_args(argv: list[str]) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if args.workload == "all":
        status = 0
        for name in WORKLOADS:
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
            print(f"== {name}", flush=True)
            status |= subprocess.run(cmd, cwd=ROOT, timeout=900).returncode
        return status
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        if args.setup_probe:
            _wl, (seconds, scale) = setup(args.workload, args.seed, Path(tmp))
            print(seconds, scale)
            return 0
        result = (traced_run if args.trace else untraced_run)(args, Path(tmp))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

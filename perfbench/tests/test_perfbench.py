"""Tests of the benchmark itself: span arithmetic, wrapper hygiene, failure
accounting and the metric names a pass emits."""

from __future__ import annotations

import json
import math
import signal
import time
from pathlib import Path

import pytest

from perfbench import run

ROOT = Path(__file__).resolve().parents[2]
run.import_program()

from agglolab import engine, forge  # noqa: E402
from agglolab.metrics import L2, Problem, SolverError  # noqa: E402

from perfbench import layers, workloads  # noqa: E402
from perfbench.calibration import Sampler  # noqa: E402
from perfbench.spans import Recorder, Span, installed, outermost, self_times, wrapped_names  # noqa: E402
from perfbench.workloads import CheckFailed, Op, Workload  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _tree() -> list[Span]:
    # agglomerate [0, 10] holds radius [1, 4] and a second agglomerate
    # [5, 9], which holds radius [6, 7] and powered_matrix [7.5, 8]
    return [
        Span("engine.agglomerate", 0.0, 10.0),
        Span("metrics.radius", 1.0, 4.0, parent=0),
        Span("engine.agglomerate", 5.0, 9.0, parent=0),
        Span("metrics.radius", 6.0, 7.0, parent=2),
        Span("metrics.powered_matrix", 7.5, 8.0, parent=2),
    ]


def test_self_time_is_duration_minus_child_cover():
    assert self_times(_tree()) == pytest.approx([3.0, 3.0, 2.5, 1.0, 0.5])


def test_self_time_merges_overlapping_children():
    spans = [Span("a", 0.0, 10.0), Span("b", 1.0, 5.0, parent=0), Span("c", 3.0, 12.0, parent=0)]
    assert self_times(spans)[0] == pytest.approx(1.0)


def test_layer_sums_on_a_synthetic_tree():
    spans = _tree()
    assert outermost(spans, "engine.agglomerate") == [0]
    values = layers.per_layer([], [spans])
    assert values["engine.agglomerate.calls"] == 2
    assert values["engine.agglomerate.s"] == pytest.approx(10.0)  # nested run not counted twice
    assert values["engine.agglomerate.self_s"] == pytest.approx(5.5)
    assert values["metrics.radius.calls"] == 2
    assert values["metrics.radius.s"] == pytest.approx(4.0)
    assert values["engine.self_s"] == pytest.approx(5.5)
    assert values["metrics.self_s"] == pytest.approx(4.5)
    assert values["oracles.self_s"] == 0.0


def test_per_layer_is_setup_plus_median_pass():
    setup = [Span("forge.gen_random", 0.0, 1.0)]
    passes = [[Span("forge.gen_random", 0.0, t)] for t in (2.0, 3.0, 10.0)]
    values = layers.per_layer(setup, passes)
    assert values["forge.gen_random.calls"] == 2
    assert values["forge.gen_random.s"] == pytest.approx(4.0)


def test_reference_time_scales_each_operation_by_the_speed_while_it_ran():
    noop = lambda *_: None  # noqa: E731
    wl = Workload("w", (Op("a", "x", noop, noop), Op("a", "y", noop, noop),
                        Op("b", "z", noop, noop)), ("a",))
    # the host runs twice as slow in the second pass, and the probes show it
    passes = [run.Pass(False, times=[1.0, 2.0, 3.0], scales=[1.0, 1.0, 1.0]),
              run.Pass(False, times=[2.0, 4.0, 6.0], scales=[0.5, 0.5, 0.5]),
              run.Pass(False, times=[1.0, 8.0, 3.0], scales=[1.0, 0.25, 1.0])]
    assert run.reference_slices(wl, passes) == pytest.approx({"a": 1.0 + 2.0, "b": 3.0})
    assert run.gated_pass_time(wl, passes) == pytest.approx(3.0)


def test_sampler_probes_during_the_block_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    with Sampler() as sampler:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.1:
            pass
        seconds = time.perf_counter() - t0
    assert len(sampler.probes) >= 3
    assert 0.0 < sampler.cost < seconds
    assert sampler.scale() > 0.0
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    with Sampler() as short:
        pass
    assert len(short.probes) == 1 and short.cost == 0.0


def _tiny_workload(*extra: Op) -> Workload:
    inst = forge.gen_random("uniform_cube", n=8, d=2, norm=L2, seed=3)
    ops = (
        Op("s", "diameter n=8", lambda _prev: engine.agglomerate(inst, Problem.DIAMETER),
           lambda hist, _prev: hist.check_invariants(deep=True)),
        *extra,
    )
    return Workload("tiny", ops, ("s",))


def test_traced_pass_restores_every_wrapped_name():
    targets = layers.targets()
    before = [vars(t.owner)[t.attr] for t in targets]
    rec = Recorder()
    p = run.run_pass(_tiny_workload(), traced=True, rec=rec, targets=targets)
    assert any(s.name == "engine.agglomerate" for s in p.spans)
    assert all(vars(t.owner)[t.attr] is f for t, f in zip(targets, before))
    assert wrapped_names(targets) == []


def test_wrappers_are_restored_when_the_block_raises():
    targets = layers.targets()
    before = [vars(t.owner)[t.attr] for t in targets]
    with pytest.raises(KeyError):
        with installed(targets, Recorder()):
            assert wrapped_names(targets)
            raise KeyError("boom")
    assert all(vars(t.owner)[t.attr] is f for t, f in zip(targets, before))


def test_solver_error_counts_as_failed_and_the_workload_goes_on():
    def stub(_prev):
        raise SolverError("stub did not converge")

    wl = _tiny_workload(
        Op("s", "stub", stub, lambda out, _prev: None),
        Op("s", "after", lambda _prev: 42, lambda out, _prev: None),
    )
    passes = run.measure(wl, seconds=0.0, trace=False)
    assert passes[0].errors == [None, "SolverError", None]
    assert passes[0].outputs["after"] == 42
    assert run.account(wl, passes) == (3 * len(passes), len(passes), [])


def test_failed_check_counts_as_failed_and_is_reported():
    def wrong(out, _prev):
        raise CheckFailed("wrong answer")

    wl = _tiny_workload(Op("s", "bad", lambda _prev: 1, wrong))
    passes = run.measure(wl, seconds=0.0, trace=False)
    attempted, failed, problems = run.account(wl, passes)
    assert (attempted, failed) == (2 * len(passes), len(passes))
    assert problems == ["bad: wrong answer"]


def test_metric_tables_match_benchmark_json():
    def triples(entries):
        return [(m["name"], m["unit"], m["better"]) for m in entries]

    assert triples(BENCHMARK["end_to_end"]) == run.END_TO_END
    per_layer = [(name, unit, better) for name, unit, better, _fn in layers.PER_LAYER]
    assert triples(BENCHMARK["per_layer"]) == per_layer + run.RUN_LEVEL
    assert {w["name"] for w in BENCHMARK["workloads"]} <= set(run.WORKLOADS)


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_one_pass_emits_the_benchmark_metric_names(name, tmp_path):
    rec = Recorder()
    targets = layers.targets()
    with installed(targets, rec):
        wl = workloads.build(name, 1, tmp_path)
    setup_spans = rec.take()
    p = run.run_pass(wl, traced=True, rec=rec, targets=targets)
    attempted, failed, problems = run.account(wl, [p])
    assert problems == []
    e2e = run.end_to_end(wl, [p], [(1.0, 1.0)], 100.0, attempted, failed)
    per_layer = run.per_layer(wl, setup_spans, [p], [p])
    assert list(e2e) == [m["name"] for m in BENCHMARK["end_to_end"]]
    assert list(per_layer) == [m["name"] for m in BENCHMARK["per_layer"]]
    assert all(math.isfinite(v) for v in [*e2e.values(), *per_layer.values()])
    assert all(v > 0 for v in e2e.values())

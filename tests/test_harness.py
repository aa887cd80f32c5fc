import argparse
import json
import math

import pytest

from agglolab import (
    Instance,
    L1,
    L2,
    LINF,
    Norm,
    Problem,
    evaluate,
    evaluate_case,
    gen_hypercube_l1,
    gen_l2_3d,
    gen_linf_2d,
    gen_random,
    verify_suite,
    write_case,
    write_instance,
)
from agglolab.cli import _parse_norm, main
from agglolab.harness import CSV_HEADER, write_csv, write_json_report


def test_evaluate_linf_case():
    rep = evaluate_case(gen_linf_2d())
    assert rep.algo_cost == 3.0
    assert rep.opt_cost == 1.0
    assert rep.opt_kind == "exact"  # small instance, enumeration beats the hint
    assert rep.ratio == 3.0
    assert rep.bound_satisfied


def test_evaluate_euclidean_case():
    rep = evaluate_case(gen_l2_3d(1.56))
    assert rep.ratio == pytest.approx(2.56, abs=1e-9)
    assert rep.opt_kind == "exact"
    assert rep.bound_satisfied


def test_evaluate_hypercube_uses_upper_bound_hint():
    rep = evaluate_case(gen_hypercube_l1(8))
    assert rep.opt_kind == "upper-bound"  # 64 points: enumeration infeasible
    assert rep.algo_cost == 3.0
    assert rep.opt_cost == 2.0
    assert rep.ratio == 1.5


def test_evaluate_random_one_dimensional():
    inst = gen_random("uniform_cube", n=40, d=1, norm=L2, seed=41)
    rep = evaluate(inst, Problem.DIAMETER, 5)
    assert rep.opt_kind == "exact"
    assert rep.ratio < 3.0
    assert rep.bound_satisfied


def test_evaluate_without_oracle_or_hint_is_vacuous_lower_bound():
    inst = gen_random("uniform_cube", n=20, d=2, norm=L2, seed=42)
    rep = evaluate(inst, Problem.DIAMETER, 3)
    assert rep.opt_kind == "upper-bound"
    assert rep.ratio == 1.0


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        verify_suite("no-such-suite")


def test_report_files_deterministic_modulo_runtime(tmp_path):
    # same seed, two runs: identical reports except the measured-ms fields
    out = []
    for run in range(2):
        jpath = tmp_path / f"r{run}.json"
        cpath = tmp_path / f"r{run}.csv"
        verify_suite("paper-lower-bounds", report_json=jpath, report_csv=cpath)
        data = json.loads(jpath.read_text())
        for row in data["rows"]:
            row["ms"] = None
        for check in data["checks"]:
            check["detail"] = ""
        csv_rows = [",".join(line.split(",")[:-1])
                    for line in cpath.read_text().splitlines()]
        out.append((data, csv_rows))
    assert out[0] == out[1]


def test_csv_shape(tmp_path):
    res = verify_suite("paper-lower-bounds")
    path = tmp_path / "rows.csv"
    write_csv(res.reports, path)
    lines = path.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == len(res.reports) + 1
    names = [line.split(",")[0] for line in lines[1:]]
    assert names == sorted(names)


def test_json_report_shape(tmp_path):
    res = verify_suite("paper-lower-bounds")
    path = tmp_path / "report.json"
    write_json_report(res, path)
    data = json.loads(path.read_text())
    assert data["suite"] == "paper-lower-bounds"
    assert data["passed"] is True
    assert {c["name"] for c in data["checks"]} >= {"linf2d", "l2-3d-x1.56"}


# ---------------------------------------------------------------------------
# command-line interface


def test_cli_generate_run_oracle(tmp_path, capsys):
    path = tmp_path / "case.json"
    assert main(["generate", "--family", "linf-2d", "--out", str(path)]) == 0
    dendro = tmp_path / "merges.txt"
    code = main(["run", "--instance", str(path), "--linkage", "diameter",
                 "--tie", "script", "--k", "4", "--dendrogram", str(dendro)])
    assert code == 0
    out = capsys.readouterr().out
    assert "cost=3" in out
    lines = dendro.read_text().splitlines()
    assert lines[0] == "0,1,1,8,2"
    assert main(["oracle", "--instance", str(path), "--problem", "diameter",
                 "--k", "4"]) == 0
    assert "opt=1" in capsys.readouterr().out


def test_evaluate_and_cli_oracle_when_every_k_partition_costs_inf(tmp_path, capsys):
    inst = Instance.from_points("all-inf", [(1e200, 0.0), (-1e200, 0.0), (0.0, 1.0)], L2)
    rep = evaluate(inst, Problem.DIAMETER, 2)
    assert (rep.algo_cost, rep.opt_cost, rep.ratio) == (math.inf, math.inf, 1.0)
    assert rep.opt_kind == "exact"
    path = tmp_path / "all-inf.json"
    write_instance(inst, path)
    assert main(["oracle", "--instance", str(path), "--problem", "diameter", "--k", "2"]) == 0
    assert "opt=inf" in capsys.readouterr().out


def test_cli_run_script_missing(tmp_path):
    path = tmp_path / "inst.json"
    write_instance(gen_random("uniform_cube", n=5, d=1, norm=L2, seed=1), path)
    assert main(["run", "--instance", str(path), "--linkage", "diameter",
                 "--tie", "script", "--k", "2"]) == 2


def test_cli_script_violation_exit_code(tmp_path):
    case = gen_linf_2d()
    from agglolab import MergeScript
    from agglolab.forge import GeneratedCase

    bad = GeneratedCase(instance=case.instance,
                        script=MergeScript(((0, 2),)), expected=None)
    path = tmp_path / "bad.json"
    write_case(bad, path)
    assert main(["run", "--instance", str(path), "--linkage", "diameter",
                 "--tie", "script", "--k", "4"]) == 1


def test_cli_oracle_budget_exit_code(tmp_path):
    path = tmp_path / "cube.json"
    assert main(["generate", "--family", "hypercube-l1", "--k", "8",
                 "--out", str(path)]) == 0
    assert main(["oracle", "--instance", str(path), "--problem",
                 "discrete-radius", "--k", "32"]) == 3


def test_cli_oracle_bad_k_is_a_usage_error(tmp_path):
    path = tmp_path / "plane.json"
    assert main(["generate", "--family", "uniform-cube", "--n", "20", "--d", "2",
                 "--out", str(path)]) == 0
    assert main(["oracle", "--instance", str(path), "--problem", "diameter",
                 "--k", "0"]) == 2


def test_cli_norm_parses_every_printed_label(tmp_path):
    for norm in (L1, L2, LINF, Norm(3.0), Norm(1.5)):
        assert _parse_norm(norm.label) == norm
    assert _parse_norm("lp2") == L2
    for label in ("l0.5", "p2", "lfoo", "l"):
        with pytest.raises(argparse.ArgumentTypeError):
            _parse_norm(label)
    path = tmp_path / "l3.json"
    assert main(["generate", "--family", "uniform-cube", "--n", "8", "--norm", "l3",
                 "--out", str(path)]) == 0
    with pytest.raises(SystemExit) as exc:
        main(["generate", "--family", "uniform-cube", "--norm", "l0.5", "--out", str(path)])
    assert exc.value.code == 2


def test_cli_parse_error_exit_code(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["run", "--instance", str(path), "--linkage", "diameter"]) == 2


def test_cli_unknown_suite_exit_code():
    assert main(["verify", "--suite", "bogus"]) == 2


def test_cli_verify_writes_reports(tmp_path, capsys):
    jpath = tmp_path / "report.json"
    cpath = tmp_path / "rows.csv"
    code = main(["verify", "--suite", "paper-lower-bounds",
                 "--report", str(jpath), "--csv", str(cpath)])
    assert code == 0
    out = capsys.readouterr().out
    assert "PASS paper-lower-bounds/linf2d" in out
    assert jpath.exists() and cpath.exists()


def test_cli_bounds_output(capsys):
    assert main(["bounds", "--problem", "discrete-radius", "--k", "4",
                 "--dim", "1"]) == 0
    assert "bound=26" in capsys.readouterr().out
    assert main(["bounds", "--problem", "diameter", "--k", "4", "--dim", "2"]) == 0
    assert "astronomical" in capsys.readouterr().out


def test_cli_generate_coverable(tmp_path, capsys):
    path = tmp_path / "cov.json"
    code = main(["generate", "--family", "coverable", "--n", "30", "--d", "2",
                 "--k", "3", "--r", "1.5", "--out", str(path)])
    assert code == 0
    assert "cover: k=3" in capsys.readouterr().out
    assert path.exists()


def test_cli_generate_coverable_bad_radius_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "cov.json"
    for r in ("nan", "inf", "1e308"):
        assert main(["generate", "--family", "coverable", "--r", r,
                     "--out", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: coverable family")
    assert not path.exists()


@pytest.mark.parametrize("seed, skipped", [(1, 0), (10001, 0), (34, 1)])
def test_engine_equivalence_draws_skips_and_qualifies_the_same_instances(seed, skipped):
    check = verify_suite("engine-equivalence", seed).checks[0]
    assert check.name == "nn-chain-vs-naive" and check.passed
    assert check.detail == f"50 tie-free instances identical ({skipped} tied draws skipped)"

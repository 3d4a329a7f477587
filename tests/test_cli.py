import json

import pytest

import bisectsdp.cuts
from bisectsdp import BisectionInstance, LoopConfig, cutting_plane_loop, generate
from bisectsdp.cli import main
from bisectsdp.report import BoundReport, csv_header


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_solve_generate_json(capsys):
    code, out, _ = run(
        capsys, "solve", "--generate", "johnson:7,2", "--m", "11,10", "--relaxation", "new"
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["ceiled_lower_bound"] == 37
    assert rep["n"] == 21 and [rep["m1"], rep["m2"]] == [11, 10]
    assert rep["rounds"][0]["solver_status"] == "optimal"


def test_solve_csv_row_structure(capsys):
    code, out, _ = run(
        capsys,
        "solve", "--generate", "gnp:8,0.5,3", "--m", "5,3",
        "--relaxation", "new", "--out", "csv", "--ub", "brute",
    )
    assert code == 0
    import csv as _csv

    lines = out.strip().splitlines()
    assert lines[0] == csv_header() == "instance,n,m1,m2,basic,new,new_cuts,ub"
    cells = next(_csv.reader([lines[1]]))
    assert len(cells) == 8
    assert cells[1] == "8" and cells[4] == "" and cells[5] != ""
    assert cells[7] == "5"  # brute-force optimum of this seeded instance


def test_solve_with_cuts_small(capsys):
    code, out, _ = run(
        capsys,
        "solve", "--generate", "desargues", "--m", "15,5",
        "--cuts", "--ub", "tabu", "--seed", "1",
    )
    assert code == 0
    rep = BoundReport.from_json(out)
    assert rep.ceiled_lower_bound == 6
    assert rep.upper_bound == 7
    assert rep.upper_bound is not None and rep.ceiled_lower_bound <= rep.upper_bound
    assert len(rep.rounds) >= 2


def test_solve_with_cuts_csv_matches_published_row(capsys):
    code, out, _ = run(
        capsys,
        "solve", "--generate", "desargues", "--m", "15,5",
        "--cuts", "--ub", "tabu", "--seed", "1", "--out", "csv",
    )
    assert code == 0
    assert out.strip().splitlines()[1] == "desargues,20,15,5,,5,6,7"


def test_cut_loop_stops_once_the_upper_bound_is_proven(capsys, monkeypatch):
    separate, calls = bisectsdp.cuts.separate, []

    def counting_separate(*args, **kwargs):
        calls.append(args)
        return separate(*args, **kwargs)

    monkeypatch.setattr(bisectsdp.cuts, "separate", counting_separate)
    code, out, _ = run(
        capsys, "solve", "--generate", "johnson:7,2", "--m", "11,10", "--cuts", "--ub", "tabu",
    )
    assert code == 0
    rep = BoundReport.from_json(out)
    assert rep.upper_bound == 40 and rep.ceiled_lower_bound == 40
    # round 1 proves 40, so the loop stops without separating on its solution
    assert [t.round for t in rep.rounds] == [0, 1] and len(calls) == 1
    # without the upper bound the loop cannot tell that 40 is optimal: it
    # separates again and stops only because no cut type is violated
    calls.clear()
    inst = BisectionInstance(generate("johnson:7,2"), 11, 10)
    assert len(cutting_plane_loop(inst, LoopConfig()).rounds) == 2 and len(calls) == 2


def test_report_json_round_trip(capsys):
    code, out, _ = run(capsys, "solve", "--generate", "gnp:6,0.5,7", "--m", "4,2")
    assert code == 0
    rep = BoundReport.from_json(out)
    assert rep.to_dict() == BoundReport.from_json(rep.to_json()).to_dict()


def test_report_without_round_iterations_loads(capsys):
    code, out, _ = run(capsys, "solve", "--generate", "gnp:6,0.5,7", "--m", "4,2")
    assert code == 0
    d = json.loads(out)
    assert d["rounds"][0]["iterations"] > 0
    del d["rounds"][0]["iterations"]  # written before rounds counted iterations
    assert BoundReport.from_dict(d).rounds[0].iterations == 0


def test_report_records_the_closure_it_reduced_on(capsys):
    code, out, _ = run(capsys, "solve", "--generate", "pappus", "--m", "10,8", "--cuts")
    assert code == 0
    assert json.loads(out)["closure_cells"] == 5
    # a random graph's closure is discrete: the loop runs the full model
    code, out, _ = run(capsys, "solve", "--generate", "gnp:12,0.5,3", "--m", "7,5", "--cuts")
    assert code == 0
    d = json.loads(out)
    assert "closure_cells" in d and d["closure_cells"] is None
    del d["closure_cells"]  # written before reports recorded the closure
    assert BoundReport.from_dict(d).closure_cells is None


def test_missing_instance_file_fails(capsys):
    code, _, err = run(capsys, "solve", "--instance", "no-such-file.txt")
    assert code != 0
    assert "not found" in err


def test_bad_m_flag(capsys):
    code, _, err = run(capsys, "solve", "--generate", "pappus", "--m", "banana")
    assert code == 2


def test_generate_requires_m(capsys):
    code, _, err = run(capsys, "solve", "--generate", "pappus")
    assert code == 2
    assert "--m" in err


def test_cuts_require_new_relaxation(capsys):
    code, _, err = run(
        capsys, "solve", "--generate", "pappus", "--m", "10,8", "--relaxation", "wz", "--cuts"
    )
    assert code == 2
    assert "relaxation new" in err


@pytest.mark.parametrize(
    "flag, value",
    [("--max-rounds", "-1"), ("--cuts-per-round", "-1"), ("--eps", "-1"), ("--eps", "nan")],
    ids=["--max-rounds", "--cuts-per-round", "--eps=-1", "--eps=nan"],
)
def test_cuts_reject_negative_counts(capsys, flag, value):
    code, _, err = run(
        capsys, "solve", "--generate", "pappus", "--m", "10,8", "--cuts", flag, value
    )
    assert code == 2
    assert err.startswith("error:")
    assert flag[2:].replace("-", "_") in err


def test_bad_tolerance_fails(capsys):
    code, _, err = run(capsys, "solve", "--generate", "pappus", "--m", "10,8", "--tol", "0")
    assert code == 2
    assert err.startswith("error:")


def test_brute_upper_bound_refused_before_lower_bound(capsys, monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("the lower bound ran before the upper bound was refused")

    monkeypatch.setattr("bisectsdp.cli.cutting_plane_loop", unreachable)
    monkeypatch.setattr("bisectsdp.cli.solve", unreachable)
    for extra in (["--cuts", "--max-rounds", "3"], []):
        code, _, err = run(
            capsys, "solve", "--generate", "gnp:30,0.3,1", "--m", "15,15", "--ub", "brute", *extra
        )
        assert code == 2
        assert "n <= 24" in err


def test_bad_loop_setting_refused_before_upper_bound(capsys, monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("tabu ran before the loop settings were refused")

    monkeypatch.setattr("bisectsdp.cli.tabu_search", unreachable)
    code, _, err = run(
        capsys,
        "solve", "--generate", "johnson:7,2", "--m", "11,10", "--cuts", "--eps", "nan",
        "--ub", "tabu",
    )
    assert code == 2
    assert err.startswith("error:")
    assert "eps" in err


def test_instance_file_flow(tmp_path, capsys):
    path = tmp_path / "tiny.txt"
    path.write_text("4 3 3 1\n1 2\n1 3\n1 4\n")
    code, out, _ = run(capsys, "solve", "--instance", str(path), "--ub", "brute")
    assert code == 0
    rep = json.loads(out)
    assert rep["instance"] == "tiny"
    assert rep["upper_bound"] == 1.0
    assert rep["ceiled_lower_bound"] <= 1.0
    # explicit --m overrides the header sizes
    code, out, _ = run(capsys, "solve", "--instance", str(path), "--m", "2,2")
    assert code == 0
    assert json.loads(out)["m1"] == 2


def test_compare_small_instance(capsys):
    code, out, _ = run(
        capsys,
        "compare", "--generate", "gnp:8,0.5,1", "--m", "5,3", "--tol", "1e-9",
    )
    rep = json.loads(out)
    assert set(rep["values"]) == {"basic", "new", "new-bare", "wz"}
    assert rep["checks"]["basic_dominated_by_new"]
    assert rep["checks"]["new_equivalent_to_wz"]
    assert rep["checks"]["bare_no_stronger_than_new"]
    assert code == 0


def test_compare_rejects_wz_at_large_n(capsys):
    code, _, err = run(capsys, "compare", "--generate", "gnp:70,0.1,1", "--m", "40,30")
    assert code == 2
    assert "n <= 60" in err


def test_compare_subset(capsys):
    code, out, _ = run(
        capsys,
        "compare", "--generate", "gnp:10,0.4,11", "--m", "6,4",
        "--relaxations", "basic,new", "--tol", "1e-9",
    )
    rep = json.loads(out)
    assert code == 0
    assert set(rep["values"]) == {"basic", "new"}
    assert "basic-new" in rep["pairwise_gaps"]


@pytest.mark.parametrize(
    "relaxations, what",
    [(",", "names no relaxation"), ("new,new", "'new' twice"), ("basic,new,basic", "'basic' twice")],
    ids=["empty", "repeated", "repeated-apart"],
)
def test_compare_rejects_an_empty_or_repeated_list(capsys, monkeypatch, relaxations, what):
    def unreachable(*args, **kwargs):
        raise AssertionError("a relaxation was solved")

    monkeypatch.setattr("bisectsdp.cli.solve", unreachable)
    code, out, err = run(
        capsys, "compare", "--generate", "gnp:8,0.5,1", "--m", "5,3", "--relaxations", relaxations
    )
    assert code == 2
    assert err.startswith("error:")
    assert what in err
    assert out == ""


def test_negative_tabu_seed_names_the_flag(capsys, monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("the lower bound ran before the seed was refused")

    monkeypatch.setattr("bisectsdp.cli.solve", unreachable)
    code, _, err = run(
        capsys, "solve", "--generate", "pappus", "--m", "10,8", "--ub", "tabu", "--seed", "-3"
    )
    assert code == 2
    assert err.startswith("error:")
    assert "seed" in err


def test_negative_gnp_seed_names_the_seed(capsys):
    code, out, err = run(capsys, "solve", "--generate", "gnp:10,0.5,-1", "--m", "5,5")
    assert code == 2
    assert err.startswith("error:")
    assert "gnp seed" in err
    assert out == ""

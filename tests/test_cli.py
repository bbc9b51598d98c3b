import json
import re

import pytest

from anysipp import cli
from anysipp.cli import (
    CSV_HEADER,
    BenchConfig,
    RunRecord,
    emit_results,
    format_csv,
    main,
    run_benchmark,
    summarize,
)
from anysipp.grid import GridMap
from anysipp.prioritized import Instance, generate_instance
from anysipp.validate import ValidationReport

from oracles import parse_csv


def write_empty_map(path, size=10):
    rows = "\n".join("." * size for _ in range(size))
    path.write_text(f"type octile\nheight {size}\nwidth {size}\nmap\n{rows}\n")
    return path


def small_config(modes=("aa", "cardinal"), n_instances=2, **kw):
    grid = GridMap.empty(10, 10)
    instances = [
        (f"t-{k:03d}", 50 + k, generate_instance(grid, 3, 50 + k, "separated"))
        for k in range(n_instances)
    ]
    return BenchConfig(instances=instances, modes=list(modes), **kw)


def test_run_benchmark_records_and_summary():
    records, summary, dumps, traces = run_benchmark(small_config(timeout=30.0))
    assert len(records) == 4
    assert all(r.success for r in records)
    assert all(r.valid for r in records)
    assert all(r.cost is not None for r in records)
    assert summary["per_mode"]["aa"]["success_rate"] == 1.0
    assert summary["common"]["count"] == 2
    assert 0.0 <= summary["aa_cost_reduction_vs_cardinal"] < 0.5
    assert dumps == [] and traces == []


def test_timeout_fails_every_run():
    records, summary, _, _ = run_benchmark(small_config(timeout=1e-9))
    assert all(not r.success for r in records)
    assert all(r.cost is None for r in records)
    assert summary["per_mode"]["aa"]["success_rate"] == 0.0
    assert summary["common"]["count"] == 0


def test_csv_round_trip_and_failure_rows():
    records, _, _, _ = run_benchmark(small_config(timeout=30.0))
    records.append(RunRecord("t-xxx", "aa", 3, False, 0.5, None, False, 99))
    text = format_csv(records)
    lines = text.splitlines()
    assert lines[0] == "instance,mode,agents,success,time_s,cost,valid,seed"
    assert len(lines) == len(records) + 1
    assert lines[-1].split(",")[5] == ""  # failed run has empty cost
    assert parse_csv(text) == records


def test_csv_deterministic_except_time(tmp_path):
    cfg1 = small_config(timeout=30.0)
    cfg2 = small_config(timeout=30.0)
    rec1, _, _, _ = run_benchmark(cfg1)
    rec2, _, _, _ = run_benchmark(cfg2)
    strip = lambda text: re.sub(r"^([^,]*,[^,]*,[^,]*,[^,]*,)[^,]*", r"\1", text, flags=re.M)
    assert strip(format_csv(rec1)) == strip(format_csv(rec2))


def test_worker_pool_preserves_record_order():
    records_seq, _, _, _ = run_benchmark(small_config(n_instances=3, timeout=30.0))
    records_par, _, _, _ = run_benchmark(small_config(n_instances=3, timeout=30.0, workers=2))
    key = [(r.instance, r.mode, r.success, r.cost) for r in records_seq]
    assert key == [(r.instance, r.mode, r.success, r.cost) for r in records_par]


def test_worker_pool_starts_at_most_one_process_per_instance(monkeypatch):
    # The fake pool maps serially, so no process starts.
    sizes = []

    class FakePool:
        def __init__(self, size):
            sizes.append(size)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def imap(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(cli, "Pool", FakePool)
    records, _, _, _ = run_benchmark(small_config(timeout=30.0, workers=64))
    assert sizes == [2]
    assert len(records) == 4 and all(r.success for r in records)


@pytest.mark.parametrize("workers", [1, 2])
def test_unexpected_error_fails_only_its_runs(monkeypatch, tmp_path, workers):
    config = small_config(n_instances=3, timeout=30.0, workers=workers)
    bad_agents = config.instances[1][2].agents
    real_plan_all = cli.plan_all

    def flaky_plan_all(instance, mode, **kw):
        if instance.agents == bad_agents:
            raise ValueError("bad instance")
        return real_plan_all(instance, mode, **kw)

    monkeypatch.setattr(cli, "plan_all", flaky_plan_all)
    records, summary, _, _ = run_benchmark(config)
    assert [(r.instance, r.mode) for r in records] == [
        (f"t-{k:03d}", m) for k in (0, 1, 2) for m in ("aa", "cardinal")
    ]
    for r in records:
        if r.instance == "t-001":
            assert (r.success, r.cost, r.valid) == (False, None, None)
            assert r.error == "ValueError: bad instance"
            assert (r.status, r.failed_agent) == (None, None)
        else:
            assert r.success and r.valid and r.cost is not None and r.error is None
    assert summary["common"]["count"] == 2
    emit_results(records, summary, str(tmp_path / "run"))
    payload = json.loads((tmp_path / "run.json").read_text())
    errors = [rec["error"] for rec in payload["records"]]
    assert errors == [None, None, "ValueError: bad instance", "ValueError: bad instance", None, None]
    assert (tmp_path / "run.csv").read_text().splitlines()[0] == "instance,mode,agents,success,time_s,cost,valid,seed"


def test_main_end_to_end(tmp_path, capsys):
    map_path = write_empty_map(tmp_path / "empty10.map")
    out = tmp_path / "run"
    rc = main([
        "--map", str(map_path),
        "--generate", "separated",
        "--agents", "3",
        "--instances", "2",
        "--seed", "7",
        "--mode", "both",
        "--timeout", "60",
        "--out", str(out),
        "--dump-trajectories",
    ])
    assert rc == 0
    csv_text = (tmp_path / "run.csv").read_text()
    records = parse_csv(csv_text)
    assert len(records) == 4
    assert all(r.success and r.valid for r in records)
    payload = json.loads((tmp_path / "run.json").read_text())
    assert len(payload["records"]) == 4
    assert "aa_cost_reduction_vs_cardinal" in payload["summary"]
    paths_text = (tmp_path / "run.paths.txt").read_text()
    assert paths_text.count("agent 0") == 4
    assert " inf" in paths_text


def test_main_scen_input(tmp_path):
    map_path = write_empty_map(tmp_path / "empty10.map")
    scen = tmp_path / "demo.scen"
    scen.write_text(
        "version 1\n"
        "0\tempty10.map\t10\t10\t0\t0\t9\t9\t12.7\n"
        "0\tempty10.map\t10\t10\t9\t0\t0\t9\t12.7\n"
    )
    rc = main([
        "--map", str(map_path), "--scen", str(scen),
        "--mode", "aa", "--out", str(tmp_path / "s"),
    ])
    assert rc == 0
    records = parse_csv((tmp_path / "s.csv").read_text())
    assert len(records) == 1 and records[0].agents == 2 and records[0].success


def test_main_zero_cost_instance_writes_a_summary(tmp_path):
    # every agent starts at its goal, so both modes' mean cost is 0
    map_path = write_empty_map(tmp_path / "empty4.map", size=4)
    agents = tmp_path / "still.txt"
    agents.write_text("agents 2\n0 0 0 0\n3 3 3 3\n")
    out = tmp_path / "z"
    rc = main(["--map", str(map_path), "--scen", str(agents), "--mode", "both",
               "--out", str(out)])
    assert rc == 0
    summary = json.loads((tmp_path / "z.json").read_text())["summary"]
    assert summary["common"]["mean_cost"] == {"aa": 0.0, "cardinal": 0.0}
    assert "aa_cost_reduction_vs_cardinal" not in summary
    assert len(parse_csv((tmp_path / "z.csv").read_text())) == 2


def test_main_trace_output(tmp_path):
    map_path = write_empty_map(tmp_path / "m.map")
    rc = main([
        "--map", str(map_path), "--generate", "separated", "--agents", "2",
        "--mode", "cardinal", "--seed", "3", "--out", str(tmp_path / "t"),
        "--trace",
    ])
    assert rc == 0
    trace = (tmp_path / "t.trace").read_text().splitlines()
    assert trace
    assert all(len(line.split()) == 9 for line in trace)


def test_main_config_errors(tmp_path):
    assert main(["--map", str(tmp_path / "missing.map"), "--generate", "separated",
                 "--agents", "2"]) == 2
    map_path = write_empty_map(tmp_path / "m.map")
    # --generate without --agents
    assert main(["--map", str(map_path), "--generate", "separated"]) == 2
    # unknown generator name
    assert main(["--map", str(map_path), "--generate", "zigzag", "--agents", "2"]) == 2
    # neither --scen nor --generate
    assert main(["--map", str(map_path)]) == 2
    # malformed map file
    bad = tmp_path / "bad.map"
    bad.write_text("type octile\nheight 2\nwidth 2\nmap\n..\n.?\n")
    assert main(["--map", str(bad), "--generate", "separated", "--agents", "2"]) == 2
    with pytest.raises(SystemExit):
        main(["--map", str(map_path), "--generate", "separated", "--agents", "2",
              "--mode", "warp"])



@pytest.mark.parametrize("flag", ["--no-validate", "--validate"])
def test_validation_cannot_be_switched(tmp_path, flag):
    map_path = write_empty_map(tmp_path / "m.map")
    with pytest.raises(SystemExit) as exc:
        main(["--map", str(map_path), "--generate", "separated", "--agents", "2", flag])
    assert exc.value.code == 2


def test_json_record_keys_follow_csv_columns(tmp_path):
    records, summary, _, _ = run_benchmark(small_config(timeout=30.0))
    records.append(RunRecord("t-xxx", "aa", 3, False, 0.5, None, None, 99, "ValueError: x"))
    emit_results(records, summary, str(tmp_path / "run"))
    payload = json.loads((tmp_path / "run.json").read_text())
    assert len(payload["records"]) == len(records)
    for rec in payload["records"]:
        assert list(rec) == CSV_HEADER.split(",") + ["error", "status", "failed_agent"]


def test_json_records_name_the_failed_agent(tmp_path):
    # Agent 1's goal (4, 4) is walled off by (3, 4) and (4, 3) in both modes.
    grid = GridMap.from_blocked(5, 5, [(3, 4), (4, 3)])
    walled = Instance(grid, [((0, 0), (2, 2)), ((0, 4), (4, 4)), ((4, 0), (0, 2))])
    solvable = Instance(grid, [((0, 0), (2, 2))])
    config = BenchConfig(instances=[("walled", 0, walled), ("free", 1, solvable)],
                         modes=["aa", "cardinal"], timeout=30.0)
    records, summary, _, _ = run_benchmark(config)
    emit_results(records, summary, str(tmp_path / "run"))
    payload = json.loads((tmp_path / "run.json").read_text())
    assert [(r["instance"], r["success"], r["status"], r["failed_agent"])
            for r in payload["records"]] == [
        ("walled", False, "unreachable", 1), ("walled", False, "unreachable", 1),
        ("free", True, "ok", None), ("free", True, "ok", None),
    ]
    assert (tmp_path / "run.csv").read_text().splitlines()[0] == CSV_HEADER

@pytest.mark.parametrize("source, agents", [
    ("scen", "-1"), ("scen", "0"), ("generate", "-2"), ("generate", "0"), ("header", None),
])
def test_main_rejects_agent_counts_below_one(tmp_path, capsys, source, agents):
    map_path = write_empty_map(tmp_path / "m.map")
    scen = tmp_path / "s3.txt"
    scen.write_text("agents -1\n" if source == "header"
                    else "agents 3\n0 0 9 9\n9 0 0 9\n0 9 9 0\n")
    argv = ["--map", str(map_path), "--mode", "aa"]
    argv += ["--generate", "separated"] if source == "generate" else ["--scen", str(scen)]
    argv += [] if agents is None else ["--agents", agents]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and "agents" in err


@pytest.mark.parametrize("flag, value", [
    ("--instances", "-2"), ("--instances", "0"), ("--workers", "-3"), ("--workers", "0"),
])
def test_main_rejects_instance_and_worker_counts_below_one(tmp_path, capsys, flag, value):
    map_path = write_empty_map(tmp_path / "m.map")
    argv = ["--map", str(map_path), "--generate", "separated", "--agents", "1",
            "--mode", "aa", flag, value]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and flag in err


@pytest.mark.parametrize("value", ["0", "-1", "nan"])
def test_main_rejects_timeouts_that_are_not_positive(tmp_path, capsys, value):
    map_path = write_empty_map(tmp_path / "m.map")
    argv = ["--map", str(map_path), "--generate", "separated", "--agents", "1",
            "--mode", "aa", "--timeout", value]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and "--timeout" in err


@pytest.mark.parametrize("steps", ["0", "-5"])
def test_main_rejects_walks_without_steps(tmp_path, capsys, steps):
    map_path = write_empty_map(tmp_path / "m.map", size=8)
    argv = ["--map", str(map_path), "--generate", f"walk:{steps}", "--agents", "3",
            "--mode", "aa"]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and "step" in err


@pytest.mark.parametrize("generator", ["walk:abc", "walk:"])
def test_main_rejects_walks_with_non_integer_steps(tmp_path, capsys, generator):
    map_path = write_empty_map(tmp_path / "m.map", size=8)
    argv = ["--map", str(map_path), "--generate", generator, "--agents", "3",
            "--mode", "aa"]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and "--generate" in err and "walk:STEPS" in err


def test_main_rejects_instances_with_a_scenario(tmp_path, capsys):
    map_path = write_empty_map(tmp_path / "m.map")
    scen = tmp_path / "s.txt"
    scen.write_text("agents 2\n0 0 9 9\n9 0 0 9\n")
    argv = ["--map", str(map_path), "--scen", str(scen), "--instances", "3", "--mode", "aa"]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and "--instances" in err and "--generate" in err


def test_main_accepts_an_infinite_timeout(tmp_path, capsys):
    map_path = write_empty_map(tmp_path / "m.map")
    argv = ["--map", str(map_path), "--generate", "separated", "--agents", "2",
            "--mode", "aa", "--timeout", "inf"]
    assert main(argv) == 0
    assert "success=True" in capsys.readouterr().out


def test_main_rejects_an_unusable_out_prefix_before_planning(tmp_path, capsys):
    map_path = write_empty_map(tmp_path / "m.map", size=4)
    taken = tmp_path / "taken"
    taken.write_text("")
    argv = ["--map", str(map_path), "--generate", "separated", "--agents", "2",
            "--instances", "2", "--mode", "aa", "--out", str(taken / "run")]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and "error:" in err
    assert taken.read_text() == ""


@pytest.mark.parametrize("fault, status", [
    (None, 0), ("unsolved", 0), ("rejected", 1), ("raised", 1),
])
def test_main_exit_status_reports_rejected_and_raised_runs(tmp_path, capsys, monkeypatch,
                                                          fault, status):
    map_path = write_empty_map(tmp_path / "m.map")
    argv = ["--map", str(map_path), "--generate", "separated", "--agents", "2",
            "--instances", "2", "--mode", "both"]
    if fault == "unsolved":
        argv += ["--timeout", "1e-9"]
    elif fault == "rejected":
        report = ValidationReport(static_violations=[(0, 0, (0, 0))])
        monkeypatch.setattr(cli, "validate_solution", lambda instance, sol: report)
    elif fault == "raised":
        def broken_plan_all(instance, mode, **kw):
            raise ValueError("bad instance")
        monkeypatch.setattr(cli, "plan_all", broken_plan_all)
    assert main(argv) == status
    out = capsys.readouterr().out
    assert out.count("success=True") == (4 if fault is None else 0)


def test_summarize_common_restriction():
    recs = [
        RunRecord("a", "aa", 2, True, 0.1, 10.0, True, 1),
        RunRecord("a", "cardinal", 2, True, 0.1, 14.0, True, 1),
        RunRecord("b", "aa", 2, True, 0.1, 11.0, True, 2),
        RunRecord("b", "cardinal", 2, False, 0.1, None, False, 2),
    ]
    s = summarize(recs, ["aa", "cardinal"])
    assert s["common"]["count"] == 1
    assert s["common"]["mean_cost"]["aa"] == 10.0
    assert s["per_mode"]["aa"]["mean_cost_solved"] == pytest.approx(10.5)
    assert s["per_mode"]["cardinal"]["success_rate"] == 0.5
    assert s["aa_cost_reduction_vs_cardinal"] == pytest.approx((14.0 - 10.0) / 14.0)

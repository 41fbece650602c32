import csv
import dataclasses
import errno
import os

import pytest

from ihswcsp.cli import AXES, REPORT_COLUMNS, TABLE_FIELDS, _report_fields, main, parse_matrix, render_table
from ihswcsp.driver import HV_STRATEGIES, RunReport, SolverConfig
from ihswcsp.improve import STRATEGIES
from ihswcsp.wcsp_io import write_wcsp

TOY = "toy 1 1 1 10\n1\n1 0 0 1\n0 2\n"  # single cell costing 2
DEAD = "dead 2 2 1 10\n2 2\n2 0 1 10 0\n"  # default cost = top forbids everything


@pytest.fixture()
def toy_path(tmp_path):
    path = tmp_path / "toy.wcsp"
    path.write_text(TOY)
    return path


def test_solve_reports_optimum(toy_path, capsys):
    code = main(["solve", "--instance", str(toy_path), "--hv", "lb", "--core", "maximal", "--merge", "off"])
    out = capsys.readouterr().out
    assert code == 0
    assert "status=optimal" in out
    assert "optimum=2" in out
    assert "iterations=" in out
    assert "hv_nodes=" in out
    assert "sat_conflicts=0" in out  # one cell: every probe is decided by propagation
    fields = dict(line.split("=", 1) for line in out.splitlines() if "=" in line)
    assert int(fields["merge_time_ms"]) >= 0 and int(fields["encode_time_ms"]) >= 0


def test_solve_unknown_strategy_exits_one(toy_path, capsys):
    assert main(["solve", "--instance", str(toy_path), "--hv", "bogus"]) == 1
    assert main(["solve", "--instance", str(toy_path), "--merge", "maybe"]) == 1
    assert "argument --merge: expected 'on' or 'off'" in capsys.readouterr().err


def test_help_speaks_to_users(capsys, monkeypatch):
    # the module docstring's developer notes and markup stay out of --help;
    # solve's help names the flags' values and the exit codes
    monkeypatch.setenv("COLUMNS", "80")
    assert main(["--help"]) == 0
    top = capsys.readouterr().out
    assert "``" not in top and "SolverConfig" not in top
    assert main(["solve", "--help"]) == 0
    text = capsys.readouterr().out
    assert "--merge {on,off}" in text and "--disjoint {on,off}" in text
    assert "0 optimal, 2 timeout, 3 infeasible, 1 error" in text


def test_solve_missing_file_exits_one(tmp_path, capsys):
    assert main(["solve", "--instance", str(tmp_path / "nope.wcsp")]) == 1
    assert capsys.readouterr().err.startswith("error: FileNotFoundError: ")


def test_solve_error_names_the_exception_type(toy_path, capsys, monkeypatch):
    import ihswcsp.cli as cli

    def fail(instance, cfg):
        raise AssertionError()

    monkeypatch.setattr(cli, "solve", fail)
    assert main(["solve", "--instance", str(toy_path)]) == 1
    assert capsys.readouterr().err == "error: AssertionError: \n"
    assert main(["solve", "--instance", str(toy_path), "--timeout", "0"]) == 1
    assert capsys.readouterr().err == "error: ValueError: time_limit must be positive\n"


def test_solve_timeout_exit_code(tmp_path):
    from ihswcsp.wcsp_io import GeneratorParams, gen_uniform

    inst = gen_uniform(GeneratorParams(8, 3, 10, 2, 6, seed=5))
    path = tmp_path / "slow.wcsp"
    path.write_text(write_wcsp(inst))
    assert main(["solve", "--instance", str(path), "--timeout", "1e-9"]) == 2


def test_solve_infeasible_exit_code(tmp_path):
    path = tmp_path / "dead.wcsp"
    path.write_text(DEAD)
    assert main(["solve", "--instance", str(path)]) == 3


def test_generate_writes_deterministic_family(tmp_path):
    out = tmp_path / "fam"
    args = ["generate", "--class", "uniform", "--params", "6,2,5,2,3",
            "--count", "3", "--out", str(out), "--seed", "11"]
    assert main(args) == 0
    files = sorted(p.name for p in out.glob("*.wcsp"))
    assert files == ["uniform_11.wcsp", "uniform_12.wcsp", "uniform_13.wcsp"]
    first = {p.name: p.read_text() for p in out.glob("*.wcsp")}
    assert main(args) == 0
    again = {p.name: p.read_text() for p in out.glob("*.wcsp")}
    assert first == again


def test_generate_names_with_a_space_write_files_that_solve_reads(tmp_path, capsys):
    out = tmp_path / "fam"
    assert main(["generate", "--class", "uniform", "--params", "6,2,5,2,3",
                 "--count", "1", "--out", str(out), "--seed", "4", "--name", "a b"]) == 0
    path = out / "a b_4.wcsp"
    assert path.read_text().startswith("a-b_4 6 2 5 ")
    capsys.readouterr()
    assert main(["solve", "--instance", str(path)]) == 0
    assert "status=optimal" in capsys.readouterr().out


def test_generate_count_zero(tmp_path):
    out = tmp_path / "empty"
    assert main(["generate", "--class", "scale-free", "--params", "6,2,2,1,2",
                 "--count", "0", "--out", str(out)]) == 0
    assert not list(out.glob("*.wcsp"))


def test_generate_negative_count_exits_one_before_creating_out(tmp_path, capsys):
    out = tmp_path / "never"
    assert main(["generate", "--class", "uniform", "--params", "6,2,5,2,3",
                 "--count", "-2", "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: --count must be 0 or more, not -2\n"
    assert not out.exists()


def test_generate_refused_params_exit_one_before_creating_out(tmp_path, capsys):
    cases = [("0,2,2,1,2", "all generator parameters must be positive"),
             ("4,2,9,1,2", "m exceeds the number of distinct binary scopes"),
             ("1,2,3", "--params must be five comma-separated integers n,d,m,w,t")]
    for params, message in cases:
        out = tmp_path / "never"
        assert main(["generate", "--class", "uniform", "--params", params,
                     "--count", "1", "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()


def test_generate_refuses_an_out_that_is_a_file(tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("a regular file, not a directory\n")
    assert main(["generate", "--class", "uniform", "--params", "6,2,5,2,3",
                 "--count", "1", "--out", str(blocker)]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert blocker.read_text() == "a regular file, not a directory\n"


def test_generate_refuses_a_name_with_a_path_separator_before_creating_out(tmp_path, capsys):
    for name in {"a/b", os.path.join("a", "b")}:
        out = tmp_path / "never"
        assert main(["generate", "--class", "uniform", "--params", "6,2,5,2,3",
                     "--count", "1", "--out", str(out), "--name", name]) == 1
        assert capsys.readouterr().err.startswith("error: --name ")
        assert not out.exists()


def test_generate_write_error_leaves_through_the_error_exit(tmp_path, capsys):
    out = tmp_path / "fam"
    (out / "uniform_1.wcsp").mkdir(parents=True)
    assert main(["generate", "--class", "uniform", "--params", "6,2,5,2,3",
                 "--count", "1", "--seed", "1", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: [Errno {errno.EISDIR}] ") and "Traceback" not in err


def test_bench_refuses_a_missing_or_empty_instance_path(tmp_path, capsys):
    out = tmp_path / "rows.csv"
    missing = tmp_path / "missing.wcsp"
    assert main(["bench", "--instance", str(missing), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: no such instance path {missing}\n"
    empty = tmp_path / "empty"
    empty.mkdir()
    assert main(["bench", "--instance", str(empty), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: no .wcsp files under {empty}\n"
    assert not out.exists()


def test_parse_matrix_full_and_restricted():
    assert len(parse_matrix(None)) == 32
    got = parse_matrix("hv=lb,ub;core=maximal;merge=on", time_limit=5.0)
    assert got == [
        SolverConfig(hv="lb", core="maximal", merge=True, time_limit=5.0),
        SolverConfig(hv="ub", core="maximal", merge=True, time_limit=5.0),
    ]
    with pytest.raises(ValueError):
        parse_matrix("hv=warp")
    with pytest.raises(ValueError):
        parse_matrix("core=warp")
    with pytest.raises(ValueError):
        parse_matrix("speed=high")
    with pytest.raises(ValueError):
        parse_matrix("hv=")
    with pytest.raises(ValueError):
        parse_matrix("hv=lb,lb")
    with pytest.raises(ValueError):
        parse_matrix("hv=lb;hv=ub")


def test_axes_are_solver_config_fields_but_the_time_limit_in_order():
    # a SolverConfig field added without an AXES entry fails here
    fields = [f.name for f in dataclasses.fields(SolverConfig)]
    assert list(AXES) == [name for name in fields if name != "time_limit"]


def test_parse_matrix_default_is_the_papers_32_in_order():
    papers = [
        SolverConfig(hv=hv, core=core, merge=merge, disjoint=False)
        for hv in HV_STRATEGIES
        for core in STRATEGIES
        for merge in (True, False)
    ]
    assert parse_matrix(None) == papers


# the bench CSV header and the keys solve prints, in order, as released
PINNED_CSV_HEADER = (
    "instance,hv,core,merge,disjoint,status,optimum,lb,ub,iterations,hv_calls,hv_nodes,"
    "sat_calls,sat_conflicts,improve_probes,exact_fallbacks,core_set_size,components,"
    "hv_time_ms,sat_time_ms,improve_time_ms,merge_time_ms,encode_time_ms,total_time_ms,error"
)


def test_report_columns_are_pinned(toy_path, tmp_path, capsys):
    out_csv = tmp_path / "rows.csv"
    assert main(["bench", "--instance", str(toy_path), "--out", str(out_csv),
                 "--matrix", "hv=lb;core=lazy;merge=off"]) == 0
    assert out_csv.read_text().splitlines()[0] == PINNED_CSV_HEADER
    capsys.readouterr()
    assert main(["solve", "--instance", str(toy_path)]) == 0
    keys = [line.split("=", 1)[0] for line in capsys.readouterr().out.splitlines()]
    assert keys == PINNED_CSV_HEADER.split(",")[5:-1]


def test_report_fields_follow_run_report_declarations():
    # a counter or time declared in RunReport reaches solve and bench with no
    # other edit: after the base fields, in order, each time in milliseconds
    @dataclasses.dataclass
    class Extended(RunReport):
        decisions: int = 0
        parse_time: float = 0.0

    fields = _report_fields(Extended(decisions=7, parse_time=0.25))
    assert list(fields) == [*REPORT_COLUMNS, "decisions", "parse_time_ms"]
    assert (fields["decisions"], fields["parse_time_ms"]) == (7, 250)


def test_bench_and_table_pipeline(tmp_path, capsys):
    fam = tmp_path / "fam"
    assert main(["generate", "--class", "uniform", "--params", "5,2,4,1,3",
                 "--count", "2", "--out", str(fam), "--seed", "3"]) == 0
    out_csv = tmp_path / "rows.csv"
    assert main(["bench", "--instance", str(fam), "--out", str(out_csv),
                 "--matrix", "hv=lb,ub;core=maximal,lazy;merge=on,off", "--timeout", "60"]) == 0
    capsys.readouterr()
    with out_csv.open() as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2 * 2 * 2 * 2
    assert all(r["status"] == "optimal" for r in rows)
    optima = {r["instance"]: {row["optimum"] for row in rows if row["instance"] == r["instance"]} for r in rows}
    assert all(len(v) == 1 for v in optima.values())

    assert main(["table", "--csv", str(out_csv), "--kind", "time-ratio"]) == 0
    out = capsys.readouterr().out
    assert "benchmark: uniform" in out
    assert main(["table", "--csv", str(out_csv), "--kind", "core-ratio"]) == 0
    capsys.readouterr()
    assert main(["table", "--csv", str(out_csv), "--kind", "speedup"]) == 0
    assert "speedup" in capsys.readouterr().out


def test_solve_with_disjoint_and_merge_flags(toy_path, capsys):
    code = main(["solve", "--instance", str(toy_path), "--hv", "ub",
                 "--core", "lazy", "--merge", "on", "--disjoint", "on"])
    out = capsys.readouterr().out
    assert code == 0 and "optimum=2" in out


def test_bench_timeout_rows_flow_into_tables(tmp_path, capsys):
    from ihswcsp.wcsp_io import GeneratorParams, gen_uniform

    fam = tmp_path / "fam"
    fam.mkdir()
    inst = gen_uniform(GeneratorParams(8, 3, 10, 2, 6, seed=5))
    (fam / "slow_0.wcsp").write_text(write_wcsp(inst))
    out_csv = tmp_path / "rows.csv"
    assert main(["bench", "--instance", str(fam), "--out", str(out_csv),
                 "--matrix", "hv=lb;core=lazy;merge=off", "--timeout", "1e-9"]) == 0
    capsys.readouterr()
    with out_csv.open() as fh:
        rows = list(csv.DictReader(fh))
    assert rows[0]["status"] == "timeout"
    assert main(["table", "--csv", str(out_csv), "--kind", "time-ratio", "--timeout", "60"]) == 0
    out = capsys.readouterr().out
    assert "(1)" in out  # the timed-out run shows up as unsolved


def test_bench_records_error_rows(tmp_path):
    fam = tmp_path / "fam"
    fam.mkdir()
    (fam / "good.wcsp").write_text(TOY)
    (fam / "broken.wcsp").write_text("not a wcsp file\n")
    out_csv = tmp_path / "rows.csv"
    assert main(["bench", "--instance", str(fam), "--out", str(out_csv),
                 "--matrix", "hv=lb;core=lazy;merge=off"]) == 0
    with out_csv.open() as fh:
        rows = list(csv.DictReader(fh))
    by_name = {r["instance"]: r for r in rows}
    assert by_name["broken"]["status"] == "error"
    assert by_name["broken"]["error"].startswith("WcspParseError: ")
    assert by_name["good"]["status"] == "optimal"
    assert by_name["good"]["error"] == ""


def test_bench_rows_deterministic_modulo_times(tmp_path):
    fam = tmp_path / "fam"
    assert main(["generate", "--class", "uniform", "--params", "5,2,4,2,3",
                 "--count", "2", "--out", str(fam), "--seed", "9"]) == 0

    def strip_times(path):
        with path.open() as fh:
            rows = list(csv.DictReader(fh))
        for r in rows:
            for col in [c for c in r if c.endswith("_time_ms")]:
                r.pop(col)
        return rows

    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    matrix = "hv=lb,grd-ub;core=lazy,maximal;merge=on,off"
    assert main(["bench", "--instance", str(fam), "--out", str(a), "--matrix", matrix]) == 0
    assert main(["bench", "--instance", str(fam), "--out", str(b), "--matrix", matrix]) == 0
    assert strip_times(a) == strip_times(b)


def test_bench_parallel_matches_serial(tmp_path):
    fam = tmp_path / "fam"
    assert main(["generate", "--class", "uniform", "--params", "5,2,4,1,3",
                 "--count", "2", "--out", str(fam), "--seed", "4"]) == 0

    def rows_without_times(path):
        with path.open() as fh:
            rows = list(csv.DictReader(fh))
        for r in rows:
            for col in [c for c in r if c.endswith("_time_ms")]:
                r.pop(col)
        return rows

    serial, parallel = tmp_path / "serial.csv", tmp_path / "parallel.csv"
    matrix = "hv=lb,ub;core=lazy;merge=off"
    assert main(["bench", "--instance", str(fam), "--out", str(serial), "--matrix", matrix]) == 0
    assert main(["bench", "--instance", str(fam), "--out", str(parallel), "--matrix", matrix, "--jobs", "2"]) == 0
    assert rows_without_times(serial) == rows_without_times(parallel)


def test_bench_jobs_bounds(tmp_path, capsys, monkeypatch):
    import ihswcsp.cli as cli

    sizes = []

    class SerialPool:  # records the requested size and starts no process
        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return [fn(t) for t in tasks]

    monkeypatch.setattr(cli.multiprocessing, "Pool", SerialPool)
    fam = tmp_path / "fam"
    assert main(["generate", "--class", "uniform", "--params", "5,2,4,1,3",
                 "--count", "1", "--out", str(fam), "--seed", "4"]) == 0
    out = tmp_path / "rows.csv"
    for jobs in ("0", "-2"):
        assert main(["bench", "--instance", str(fam), "--out", str(out), "--jobs", jobs]) == 1
        assert capsys.readouterr().err == f"error: --jobs must be at least 1, got {jobs}\n"
    assert not out.exists() and sizes == []
    # one instance under a three-configuration matrix is three runs
    bench = ["bench", "--instance", str(fam), "--out", str(out), "--matrix"]
    assert main(bench + ["hv=lb,ub,grd-lb;core=lazy;merge=off", "--jobs", "1000"]) == 0
    assert sizes == [3]
    assert main(bench + ["hv=lb;core=lazy;merge=off", "--jobs", "8"]) == 0
    assert sizes == [3]  # a single run needs no pool


def test_bench_out_failure_runs_no_solve(toy_path, tmp_path, capsys, monkeypatch):
    import ihswcsp.cli as cli

    calls = []
    monkeypatch.setattr(cli, "solve", lambda instance, cfg: calls.append(cfg))
    blocker = tmp_path / "blocker"
    blocker.write_text("a regular file, not a directory\n")
    out = blocker / "sub" / "rows.csv"
    assert main(["bench", "--instance", str(toy_path), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert calls == []
    # so is an --out that names an existing directory
    assert main(["bench", "--instance", str(toy_path), "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err == f"error: --out {tmp_path} is a directory\n"
    assert calls == []
    # a malformed matrix is refused before any solve too
    for matrix, message in (("hv=", "matrix dimension 'hv' has no value"),
                            ("hv=lb,lb", "matrix dimension 'hv' repeats a value"),
                            ("hv", "bad matrix entry 'hv'"),
                            ("merge=yes", "merge must be on or off, got 'yes'")):
        assert main(["bench", "--instance", str(toy_path), "--out", str(tmp_path / "rows.csv"),
                     "--matrix", matrix]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
    assert calls == [] and not (tmp_path / "rows.csv").exists()


def test_table_out_creates_parent(tmp_path, capsys):
    rows = tmp_path / "rows.csv"
    rows.write_text(GOLDEN_CSV)
    out = tmp_path / "new" / "t.txt"
    assert main(["table", "--csv", str(rows), "--kind", "speedup", "--timeout", "60", "--out", str(out)]) == 0
    assert out.read_text() == capsys.readouterr().out
    blocked = tmp_path / "rows.csv" / "t.txt"  # the parent is a regular file
    assert main(["table", "--csv", str(rows), "--out", str(blocked)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")


def _mk_row(instance, hv, core, merge, status, time_ms, core_size):
    return {
        "instance": instance, "hv": hv, "core": core, "merge": merge,
        "disjoint": "off", "status": status, "optimum": "1", "lb": "1", "ub": "1",
        "iterations": "3", "core_set_size": str(core_size),
        "hv_time_ms": "0", "sat_time_ms": "0", "improve_time_ms": "0",
        "total_time_ms": str(time_ms), "seed": "0",
    }


def test_render_table_ratios_on_synthetic_fixture():
    rows = [
        _mk_row("fam_0", "lb", "maximal", "off", "optimal", 10_000, 4),
        _mk_row("fam_0", "ub", "maximal", "off", "optimal", 25_000, 6),
    ]
    text = render_table(rows, "time-ratio", timeout=60, timeout_mode="clamp")
    assert text.count(" 1.00 (0)") == 1
    assert "2.50 (0)" in text
    single = render_table(rows[:1], "time-ratio", timeout=60, timeout_mode="clamp")
    assert single.count("1.00") == 1


def test_render_table_clamp_vs_exclude():
    rows = [
        _mk_row("fam_0", "lb", "maximal", "off", "optimal", 10_000, 4),
        _mk_row("fam_1", "lb", "maximal", "off", "timeout", 999_999, 9),
        _mk_row("fam_0", "ub", "maximal", "off", "optimal", 5_000, 4),
        _mk_row("fam_1", "ub", "maximal", "off", "optimal", 5_000, 4),
    ]
    clamped = render_table(rows, "time-ratio", timeout=60, timeout_mode="clamp")
    # lb mean = (10 + 60) / 2 = 35s vs ub mean 5s -> ratio 7
    assert "7.00 (1)" in clamped
    excluded = render_table(rows, "time-ratio", timeout=60, timeout_mode="exclude")
    # lb mean over solved runs only = 10s -> ratio 2
    assert "2.00 (1)" in excluded


def test_render_table_speedup():
    rows = [
        _mk_row("fam_0", "lb", "maximal", "off", "optimal", 40_000, 4),
        _mk_row("fam_0", "lb", "maximal", "on", "optimal", 10_000, 4),
    ]
    text = render_table(rows, "speedup", timeout=60, timeout_mode="clamp")
    assert "speedup = 4.00" in text
    # solved runs whose time rounds to 0 ms still have a speedup
    off = _mk_row("a_1", "lb", "lazy", "off", "optimal", 3, 4)
    on = _mk_row("a_1", "lb", "lazy", "on", "optimal", 0, 4)
    text = render_table([on, off], "speedup", timeout=60, timeout_mode="clamp")
    assert "speedup = inf  (best-off 0.003s / best-on 0.000s)" in text
    both = render_table([on, {**off, "total_time_ms": "0"}], "speedup", timeout=60, timeout_mode="clamp")
    assert "speedup = 1.00  (best-off 0.000s / best-on 0.000s)" in both


def test_table_schema_mismatch(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b\n1,2\n")
    assert main(["table", "--csv", str(bad)]) == 1
    assert capsys.readouterr().err == "error: CSV schema mismatch\n"


def test_table_refuses_a_bad_row_naming_its_line(tmp_path, capsys):
    header = ",".join(TABLE_FIELDS)
    good = "fam_0,lb,maximal,off,off,optimal,4,12"
    cases = [
        (f"{good}\nfam_0,ub,maximal,off,off,optimal,4,abc\n",
         "error: line 3: total_time_ms 'abc' is not a number\n"),
        (f"{good}\nfam_0,ub,maximal\n", "error: line 3: the row ends before its merge column\n"),
        (f"{good}\nfam_0,ub,maximal,off,off,timeout,x,100\n",
         "error: line 3: core_set_size 'x' is not a number\n"),
        (f"{good}\nfam_0,ub,maximal,off,off,optimal,4,\n", "error: line 3: total_time_ms '' is not a number\n"),
        (f"{good}\nfam_0,xx,maximal,off,off,optimal,4,12\n",
         "error: line 3: hv 'xx' is not one of lb, ub, grd-lb, grd-ub\n"),
        (f"{good}\nfam_0,ub,warp,off,off,optimal,4,12\n",
         "error: line 3: core 'warp' is not one of lazy, cost-bounded, partial-max, maximal\n"),
        (f"{good}\nfam_0,ub,maximal,yes,off,optimal,4,12\n",
         "error: line 3: merge 'yes' is not one of on, off\n"),
        (f"{good}\nfam_0,ub,maximal,off,ON,optimal,4,12\n",
         "error: line 3: disjoint 'ON' is not one of on, off\n"),
        # a field over the csv module's 131072-character limit
        (f"{good}\nfam_0,ub,maximal,off,off,optimal,4,{'1' * 200_000}\n",
         "error: line 3: field larger than field limit (131072)\n"),
    ]
    path = tmp_path / "rows.csv"
    for kind in ("time-ratio", "core-ratio", "speedup"):
        for body, message in cases:
            path.write_text(f"{header}\n{body}")
            assert main(["table", "--csv", str(path), "--kind", kind]) == 1
            captured = capsys.readouterr()
            assert (captured.out, captured.err) == ("", message)
    # an error row's empty time and core-set size are read as they always were
    path.write_text(f"{header}\n{good}\nfam_0,ub,maximal,off,off,error,,\n")
    assert main(["table", "--csv", str(path)]) == 0


def test_table_refuses_an_oversized_header_and_a_bad_timeout(tmp_path, capsys):
    path = tmp_path / "rows.csv"
    path.write_text("x" * 200_000 + "\n")
    assert main(["table", "--csv", str(path)]) == 1
    assert capsys.readouterr().err == "error: line 1: field larger than field limit (131072)\n"
    # as solve and bench refuse a time limit that is not positive
    path.write_text(",".join(TABLE_FIELDS) + "\nfam_0,lb,maximal,off,off,optimal,4,12\n")
    for value in ("0", "-5", "nan"):
        assert main(["table", "--csv", str(path), "--timeout", value]) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: --timeout must be positive, not {float(value)}\n")


def test_table_clamps_only_to_a_finite_timeout(tmp_path, capsys):
    # clamping timed-out runs to inf would make every time ratio inf / inf
    path = tmp_path / "rows.csv"
    path.write_text(",".join(TABLE_FIELDS) + "\nfam_0,lb,maximal,off,off,timeout,4,\nfam_0,ub,maximal,off,off,timeout,4,\n")
    for kind in ("time-ratio", "speedup"):
        assert main(["table", "--csv", str(path), "--kind", kind, "--timeout", "inf"]) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "error: --timeout must be finite to clamp timed-out runs, not inf\n")
    # excluding drops the timed-out runs, so no limit is needed
    assert main(["table", "--csv", str(path), "--timeout", "inf", "--timeout-mode", "exclude"]) == 0
    assert "nan" not in capsys.readouterr().out


def test_table_reads_csv_of_older_schema(tmp_path, capsys):
    # older bench CSVs carry a seed column and lack the counter and error columns
    rows = [
        _mk_row("fam_0", "lb", "maximal", "off", "optimal", 10_000, 4),
        _mk_row("fam_0", "ub", "maximal", "off", "optimal", 25_000, 6),
    ]
    old = tmp_path / "old.csv"
    with old.open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    assert main(["table", "--csv", str(old), "--kind", "time-ratio", "--timeout", "60"]) == 0
    assert "2.50 (0)" in capsys.readouterr().out


# two benchmarks: merge on and off, one disjoint=on configuration, optimal,
# timeout and error rows (an error row has no core_set_size), a configuration
# missing under one hv, all-unsolved configurations, and a benchmark (beta)
# without any merge-on run
GOLDEN_CSV = """\
instance,hv,core,merge,disjoint,status,total_time_ms,core_set_size
alpha_1,lb,maximal,off,off,optimal,1200,5
alpha_2,lb,maximal,off,off,optimal,800,3
alpha_1,ub,maximal,off,off,optimal,2000,6
alpha_2,ub,maximal,off,off,timeout,9000,9
alpha_1,lb,maximal,on,off,optimal,500,2
alpha_2,lb,maximal,on,off,optimal,700,4
alpha_1,ub,maximal,on,off,error,,
alpha_2,ub,maximal,on,off,optimal,600,3
alpha_1,lb,lazy,off,off,timeout,9000,7
alpha_2,lb,lazy,off,off,error,,
alpha_1,lb,lazy,on,on,optimal,300,2
alpha_1,ub,lazy,on,on,optimal,450,2
beta_1,lb,maximal,off,off,optimal,1500,4
beta_1,ub,maximal,off,off,optimal,1000,4
beta_1,grd-lb,partial-max,off,off,timeout,9000,8
beta_1,grd-ub,lazy,off,off,error,,
"""

GOLDEN_TIME_RATIO_EXCLUDE = """\
# benchmark: alpha  kind=time-ratio  timeout-mode=exclude
config                               lb             ub
lazy                              - (2)              -
lazy+merge+disjoint            1.00 (0)       1.50 (0)
maximal                        3.33 (0)       6.67 (1)
maximal+merge                  2.00 (0)       2.00 (1)

# benchmark: beta  kind=time-ratio  timeout-mode=exclude
config                               lb             ub         grd-lb         grd-ub
lazy                                  -              -              -          - (1)
maximal                        1.50 (0)       1.00 (0)              -              -
partial-max                           -              -          - (1)              -
"""

# sha256 of render_table's text on GOLDEN_CSV at timeout 60
GOLDEN_DIGESTS = {
    ("time-ratio", "clamp"): "c5624afca91092ce41ee480d00f43c51bb659dfe56f1d00edcc104fd4555475f",
    ("time-ratio", "exclude"): "c65d012bdd0eebfdb5973f4fcbea4444e8efadfb7e5e0f367286b37f688a2b45",
    ("core-ratio", "clamp"): "e047750c781ea38e4ed5b7108cce0958106a12f4cf1edc16e7c1808999f65833",
    ("core-ratio", "exclude"): "44dbf2ebc6346f75761987b1036b99f216d93a8e62d9fd5eb7e25dc20443d678",
    ("speedup", "clamp"): "3371e4d7e07f889591363d4df6038c2abefe855baea734043f13985293b79699",
    ("speedup", "exclude"): "e1410b631fa64fc2541df8e90834d2f84ec5bb425bce2247ea660ce3bb9f4909",
}


def test_render_table_golden_text():
    import hashlib
    import io

    rows = list(csv.DictReader(io.StringIO(GOLDEN_CSV)))
    assert render_table(rows, "time-ratio", timeout=60, timeout_mode="exclude") == GOLDEN_TIME_RATIO_EXCLUDE
    for (kind, mode), digest in GOLDEN_DIGESTS.items():
        text = render_table(rows, kind, timeout=60, timeout_mode=mode)
        assert hashlib.sha256(text.encode()).hexdigest() == digest, (kind, mode, text)


def _script(name):
    """The module of ``scripts/<name>.py``."""
    import importlib.util
    from pathlib import Path

    path = Path(__file__).resolve().parents[1] / "scripts" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_soak_reports_a_crash_with_its_instance(monkeypatch, capsys):
    # an exception inside one solve ends the brute-force soak with the trial,
    # the configuration, the exception and an instance text that replays it
    from ihswcsp.wcsp_io import parse_wcsp

    soak = _script("verify_against_bruteforce")
    real = soak.solve

    def crash(instance, cfg):
        if cfg.merge:
            raise ValueError("boom")
        return real(instance, cfg)

    monkeypatch.setattr(soak, "solve", crash)
    assert soak.run(["--trials", "1"]) == 1
    out = capsys.readouterr().out
    line, text = out.split("\n", 1)
    assert line == "CRASH trial=0 hv=lb core=lazy merge=True disjoint=False: ValueError: boom"
    assert parse_wcsp(text).name == "soak"


def test_desk_benchmark_refuses_an_out_with_instances(tmp_path, capsys):
    # a second run into the same --out would bench the first run's instances
    # too; the script stops before generating anything and deletes nothing
    desk = _script("run_desk_benchmark")
    instances = tmp_path / "instances"
    instances.mkdir()
    stray = instances / "stray.wcsp"
    stray.write_text(TOY)
    assert desk.run(["--out", str(tmp_path), "--count", "1"]) == 1
    assert str(instances) in capsys.readouterr().err
    assert not (tmp_path / "rows.csv").exists()
    assert stray.read_text() == TOY
    assert [p.name for p in instances.iterdir()] == ["stray.wcsp"]


def test_desk_benchmark_refuses_a_timeout_it_cannot_clamp_to(tmp_path, capsys):
    # the tables clamp timed-out runs to --timeout, which must be positive and
    # finite; the script stops before generating anything
    desk = _script("run_desk_benchmark")
    for value in ("0", "-1", "nan", "inf"):
        assert desk.run(["--out", str(tmp_path), "--count", "1", "--timeout", value]) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: --timeout must be positive and finite, not {float(value)}\n")
        assert list(tmp_path.iterdir()) == []

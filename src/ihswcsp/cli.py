"""Command-line front end: solve single instances, generate benchmark
families, run configuration matrices under timeouts, and render ratio tables.

Exit codes for ``solve``: 0 optimal, 2 timeout, 3 infeasible, 1 error.
Every command refuses a bad option or a file error with ``error: …``, exit 1.
Every command reads a configuration's axes off ``AXES``, in ``SolverConfig``'s
field order; a new ``SolverConfig`` field needs an entry there, as a test checks.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import itertools
import math
import multiprocessing
import os
import sys
from pathlib import Path

from .driver import HV_STRATEGIES, RunReport, SolverConfig, solve
from .improve import STRATEGIES as CORE_STRATEGIES
from .wcsp_io import GeneratorParams, gen_scale_free, gen_uniform, parse_wcsp, write_wcsp

ONOFF = ("on", "off")
# each configuration axis and the values the CLI names it by
AXES = {"hv": HV_STRATEGIES, "core": CORE_STRATEGIES, "merge": ONOFF, "disjoint": ONOFF}
FLAGS = tuple(a for a, values in AXES.items() if values is ONOFF)
CONFIG_COLUMNS = ("instance", *AXES)
# the columns render_table reads; older CSVs with other columns still load
TABLE_FIELDS = [*CONFIG_COLUMNS, "status", "core_set_size", "total_time_ms"]


def _onoff(value: str) -> bool:
    if value not in ONOFF:
        raise argparse.ArgumentTypeError("expected 'on' or 'off'")
    return value == "on"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ihswcsp", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    solve_doc = "Solve one instance.  Exit codes: 0 optimal, 2 timeout, 3 infeasible, 1 error."
    p_solve = sub.add_parser("solve", help="solve one instance", description=solve_doc)
    p_solve.add_argument("--instance", required=True)
    for axis, values in AXES.items():
        kind = {"type": _onoff, "metavar": "{on,off}"} if axis in FLAGS else {"choices": values}
        p_solve.add_argument(f"--{axis}", **kind, default=getattr(SolverConfig, axis))
    p_solve.add_argument("--timeout", type=float, default=SolverConfig.time_limit)
    p_solve.set_defaults(run=_cmd_solve)

    p_gen = sub.add_parser("generate", help="generate a random instance family")
    p_gen.add_argument("--class", dest="family", choices=("uniform", "scale-free"), required=True)
    p_gen.add_argument("--params", required=True, help="n,d,m,w,t")
    p_gen.add_argument("--count", type=int, required=True)
    p_gen.add_argument("--out", default=".")
    p_gen.add_argument("--seed", type=int, default=0, help="seed of the first instance")
    p_gen.add_argument("--name", default=None, help="file-name stem (defaults to the class)")
    p_gen.set_defaults(run=_cmd_generate)

    p_bench = sub.add_parser("bench", help="run a configuration matrix over instances")
    p_bench.add_argument("--instance", required=True, help="a .wcsp file or a directory of them")
    p_bench.add_argument("--out", required=True, help="output CSV path")
    p_bench.add_argument("--matrix", default=None, help="e.g. hv=lb,ub;core=maximal;merge=on")
    p_bench.add_argument("--timeout", type=float, default=SolverConfig.time_limit)
    p_bench.add_argument("--jobs", type=int, default=1)
    p_bench.set_defaults(run=_cmd_bench)

    p_table = sub.add_parser("table", help="render ratio tables from a bench CSV")
    p_table.add_argument("--csv", required=True)
    p_table.add_argument("--kind", choices=("time-ratio", "core-ratio", "speedup"), default="time-ratio")
    p_table.add_argument(
        "--timeout", type=float, default=SolverConfig.time_limit, help="per-run limit used for clamping"
    )
    p_table.add_argument("--timeout-mode", choices=("clamp", "exclude"), default="clamp")
    p_table.add_argument("--out", default=None, help="also write the table to this path")
    p_table.set_defaults(run=_cmd_table)
    return parser


# ---------------------------------------------------------------------------
# solve


def _cmd_solve(args) -> int:
    try:
        instance = parse_wcsp(Path(args.instance).read_text())
        cfg = SolverConfig(**{a: getattr(args, a) for a in AXES}, time_limit=args.timeout)
        report = solve(instance, cfg)
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    for key, value in _report_fields(report).items():
        print(f"{key}={value}")
    return {"optimal": 0, "timeout": 2, "infeasible": 3}[report.status]


# RunReport's per-run lists, which solve does not print nor bench write
_PER_RUN_LISTS = ("bounds_trace", "final_cores", "inserted_cores", "best_assignment")


def _report_fields(report: RunReport) -> dict[str, object]:
    """The ``key=value`` pairs ``solve`` prints and the columns ``bench``
    writes: every field of ``report`` but its per-run lists, in declaration
    order.  A ``final_`` prefix drops (``final_lb`` prints as ``lb``), each
    ``*_time`` prints as ``*_time_ms`` in milliseconds, and None as empty."""
    fields: dict[str, object] = {}
    for f in dataclasses.fields(report):
        if f.name in _PER_RUN_LISTS:
            continue
        key, value = f.name.removeprefix("final_"), getattr(report, f.name)
        if key.endswith("_time"):
            key, value = key + "_ms", round(value * 1000)
        fields[key] = "" if value is None else value
    return fields


REPORT_COLUMNS = tuple(_report_fields(RunReport()))
CSV_FIELDS = [*CONFIG_COLUMNS, *REPORT_COLUMNS, "error"]


# ---------------------------------------------------------------------------
# generate


def _cmd_generate(args) -> int:
    try:
        n, d, m, w, t = (int(x) for x in args.params.split(","))
    except ValueError:
        raise ValueError("--params must be five comma-separated integers n,d,m,w,t") from None
    if args.count < 0:
        raise ValueError(f"--count must be 0 or more, not {args.count}")
    stem = args.name or args.family
    if any(sep and sep in stem for sep in ("/", os.sep, os.altsep)):
        raise ValueError(f"--name must be a file-name stem, not a path: {stem!r}")
    gen = gen_uniform if args.family == "uniform" else gen_scale_free
    seeds = range(args.seed, args.seed + args.count)
    # refuse bad parameters before --out is created
    instances = [gen(GeneratorParams(n, d, m, w, t, seed)) for seed in seeds]
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for seed, instance in zip(seeds, instances):
        path = out_dir / f"{stem}_{seed}.wcsp"
        path.write_text(write_wcsp(dataclasses.replace(instance, name=f"{stem}_{seed}")))
        print(path)
    return 0


# ---------------------------------------------------------------------------
# bench


def _config_row(cfg: SolverConfig) -> dict[str, str]:
    """``cfg``'s configuration columns, each value as the CLI names it."""
    row = {a: getattr(cfg, a) for a in AXES}
    return {a: ("on" if v else "off") if a in FLAGS else v for a, v in row.items()}


def parse_matrix(spec: str | None, time_limit: float = SolverConfig.time_limit) -> list[SolverConfig]:
    """The configurations of a ``--matrix`` spec, each with ``time_limit``.
    An axis the spec leaves out takes all its values if it is hv, core or
    merge, else its ``SolverConfig`` default: by default, the paper's 32."""
    default = _config_row(SolverConfig())
    dims = {a: list(v) if a in ("hv", "core", "merge") else [default[a]] for a, v in AXES.items()}
    if spec:
        named: set[str] = set()
        for part in spec.split(";"):
            if "=" not in part:
                raise ValueError(f"bad matrix entry {part!r}")
            key, _, values = part.partition("=")
            key = key.strip()
            if key not in dims:
                raise ValueError(f"unknown matrix dimension {key!r}")
            if key in named:
                raise ValueError(f"matrix dimension {key!r} is named twice")
            named.add(key)
            dims[key] = [v.strip() for v in values.split(",") if v.strip()]
            if not dims[key]:
                raise ValueError(f"matrix dimension {key!r} has no value")
            if len(set(dims[key])) < len(dims[key]):
                raise ValueError(f"matrix dimension {key!r} repeats a value")
    for key in FLAGS:
        for v in dims[key]:
            if v not in ONOFF:
                raise ValueError(f"{key} must be on or off, got {v!r}")
    return [
        SolverConfig(**{a: v == "on" if a in FLAGS else v for a, v in zip(AXES, config)}, time_limit=time_limit)
        for config in itertools.product(*dims.values())
    ]


def _bench_one(task: tuple[str, SolverConfig]) -> dict[str, object]:
    path, cfg = task
    row: dict[str, object] = {"instance": Path(path).stem, **_config_row(cfg)}
    try:
        report = solve(parse_wcsp(Path(path).read_text()), cfg)
    except Exception as exc:  # noqa: BLE001 - a failed run must not abort the batch
        row.update(status="error", error=f"{type(exc).__name__}: {exc}")
        return row
    row.update(_report_fields(report))
    return row


def _cmd_bench(args) -> int:
    if args.jobs < 1:
        raise ValueError(f"--jobs must be at least 1, got {args.jobs}")
    root = Path(args.instance)
    if root.is_dir():
        paths = sorted(str(p) for p in root.glob("*.wcsp"))
    elif root.is_file():
        paths = [str(root)]
    else:
        raise FileNotFoundError(f"no such instance path {root}")
    if not paths:
        raise FileNotFoundError(f"no .wcsp files under {root}")
    matrix = parse_matrix(args.matrix, time_limit=args.timeout)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)  # before any solve
    if out.is_dir():
        raise IsADirectoryError(f"--out {out} is a directory")
    tasks = [(path, cfg) for path in paths for cfg in matrix]
    jobs = min(args.jobs, len(tasks))
    if jobs > 1:
        with multiprocessing.Pool(jobs) as pool:
            rows = pool.map(_bench_one, tasks)
    else:
        rows = [_bench_one(t) for t in tasks]
    rows.sort(key=lambda r: [r[c] for c in CONFIG_COLUMNS])
    with out.open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=CSV_FIELDS, restval="")
        writer.writeheader()
        writer.writerows(rows)
    print(f"wrote {len(rows)} rows to {out}")
    return 0


# ---------------------------------------------------------------------------
# table


def _benchmark_of(instance: str) -> str:
    return instance.rpartition("_")[0] or instance


def _config_stats(
    rows: list[dict[str, str]], kind: str, timeout: float, timeout_mode: str
) -> dict[tuple[str, ...], tuple[float | None, int]]:
    """Each configuration's (mean, unsolved) over one benchmark's rows, in
    one pass, keyed by its values in ``AXES`` order.  core-ratio averages the
    recorded core-set sizes; the other kinds average the solved runs' times
    plus, under clamp, ``timeout`` seconds per timed-out run.  The mean is
    None when no run counts."""
    values: dict[tuple[str, ...], list[float]] = {}
    unsolved: dict[tuple[str, ...], int] = {}
    for row in rows:
        cfg = tuple(row[a] for a in AXES)
        cfg_values = values.setdefault(cfg, [])
        solved = row["status"] == "optimal"
        unsolved[cfg] = unsolved.get(cfg, 0) + (not solved)
        if kind == "core-ratio":
            if row["core_set_size"] != "":
                cfg_values.append(float(row["core_set_size"]))
        elif solved:
            cfg_values.append(float(row["total_time_ms"]) / 1000.0)
        elif timeout_mode == "clamp" and row["status"] == "timeout":
            cfg_values.append(timeout)
    return {
        cfg: (sum(v) / len(v) if v else None, unsolved[cfg]) for cfg, v in values.items()
    }


def _ratio(num: float, den: float) -> str:
    """``num / den`` to two places, of two nonnegative means: inf when only
    ``den`` is 0 and 1.00 when both are."""
    if den > 0:
        return f"{num / den:.2f}"
    return "inf" if num > 0 else "1.00"


def render_table(
    rows: list[dict[str, str]], kind: str, timeout: float, timeout_mode: str
) -> str:
    """Aggregate bench rows into per-benchmark ratio tables.

    time-ratio: mean solving time per config over the benchmark's instances
    (unsolved runs clamp to the time limit or are excluded per mode), each
    cell divided by the benchmark's best mean, with the unsolved count in
    parentheses.  core-ratio: the same over the core-set size.  speedup: the
    best merge-off mean divided by the best merge-on mean.
    """
    benchmarks: dict[str, list[dict[str, str]]] = {}
    for row in rows:
        benchmarks.setdefault(_benchmark_of(row["instance"]), []).append(row)

    out: list[str] = []
    for bench in sorted(benchmarks):
        stats = _config_stats(benchmarks[bench], kind, timeout, timeout_mode)
        out.append(f"# benchmark: {bench}  kind={kind}  timeout-mode={timeout_mode}")
        if kind == "speedup":
            best: dict[str, float] = {}
            for cfg, (mean, _) in stats.items():
                merge = dict(zip(AXES, cfg))["merge"]
                if mean is not None:
                    best[merge] = min(mean, best.get(merge, mean))
            if "on" in best and "off" in best:
                out.append(f"speedup = {_ratio(best['off'], best['on'])}  (best-off {best['off']:.3f}s / best-on {best['on']:.3f}s)")
            else:
                out.append("speedup = -  (needs solved runs with merge on and off)")
            out.append("")
            continue
        means = [m for m, _ in stats.values() if m is not None]
        best_mean = min(means) if means else None
        hvs = sorted({cfg[0] for cfg in stats}, key=HV_STRATEGIES.index)
        header = ["config".ljust(24)] + [hv.rjust(14) for hv in hvs]
        out.append(" ".join(header))
        for rest in sorted({cfg[1:] for cfg in stats}):  # a row per configuration but its hv
            named = dict(zip(list(AXES)[1:], rest))
            label = named["core"] + "".join(f"+{a}" for a in FLAGS if named[a] == "on")
            cells = [label.ljust(24)]
            for hv in hvs:
                mean, unsolved = stats.get((hv, *rest), (None, None))
                if unsolved is None:
                    cell = "-"
                elif mean is None:
                    cell = f"- ({unsolved})"
                else:
                    cell = f"{_ratio(mean, best_mean)} ({unsolved})"
                cells.append(cell.rjust(14))
            out.append(" ".join(cells))
        out.append("")
    return "\n".join(out)


def _table_rows(reader: csv.DictReader) -> list[dict[str, str]]:
    """The rows of a bench CSV.  A row that ends before a column
    ``render_table`` reads, whose value on an axis is not one of ``AXES``'s,
    or whose core-set size or time is neither empty nor a number (a solved
    run's time may not be empty), raises a ``ValueError`` naming its line."""
    rows = []
    for row in reader:
        for column in TABLE_FIELDS:
            if row[column] is None:
                raise ValueError(f"line {reader.line_num}: the row ends before its {column} column")
        for axis, values in AXES.items():
            if row[axis] not in values:
                raise ValueError(f"line {reader.line_num}: {axis} {row[axis]!r} is not one of {', '.join(values)}")
        for column in ("core_set_size", "total_time_ms"):
            value = row[column]
            if value == "" and (column == "core_set_size" or row["status"] != "optimal"):
                continue
            try:
                float(value)
            except ValueError:
                raise ValueError(f"line {reader.line_num}: {column} {value!r} is not a number") from None
        rows.append(row)
    return rows


def _cmd_table(args) -> int:
    if not args.timeout > 0:  # NaN too, as SolverConfig refuses it
        raise ValueError(f"--timeout must be positive, not {args.timeout}")
    if args.timeout_mode == "clamp" and math.isinf(args.timeout):  # inf / inf is nan
        raise ValueError(f"--timeout must be finite to clamp timed-out runs, not {args.timeout}")
    with Path(args.csv).open() as fh:
        reader = csv.DictReader(fh)
        try:
            if reader.fieldnames is None or set(TABLE_FIELDS) - set(reader.fieldnames):
                raise ValueError("CSV schema mismatch")
            rows = _table_rows(reader)
        except csv.Error as exc:  # say, a field over the csv module's size limit
            # reader.line_num only moves past lines read whole
            raise ValueError(f"line {reader.reader.line_num}: {exc}") from None
    text = render_table(rows, args.kind, args.timeout, args.timeout_mode)
    if args.out:
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(text + "\n")
    print(text)
    return 0


# ---------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        return args.run(args)
    except (OSError, ValueError) as exc:  # every command's one error exit
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

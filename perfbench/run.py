"""dpsketch benchmark: drive the CLI the way an analyst does and report metrics.

Run from the repository root:

    python3 perfbench/run.py --workload query-race --seed 1 --seconds 20 --trace 0

One closed loop with a single client: every command of a pass runs as its
own ``python -m dpsketch.cli`` subprocess, one after another, and the next
starts when the previous one has exited.  Inputs are generated from
``--seed``; the program sees only the generated files.

``--trace 0`` repeats passes for about ``--seconds`` (at least two, so each
command's stdout can be compared with another pass) and reports the
end-to-end metrics.  ``--trace 1`` runs one plain pass and one traced pass
(see traced_cli.py) and reports the per-layer metrics plus the tracing
overhead.  A human-readable report comes first; the last stdout line is
the JSON result.  The full record, machine info included, is written under
``.perfbench_work/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import shutil
import signal
import statistics
import sys
import tempfile
import time
from pathlib import Path

T_START = time.perf_counter()
NPROC = len(os.sched_getaffinity(0))
if __name__ == "__main__":
    # cap the BLAS pool for this process and every child before numpy loads;
    # every CLI seed is passed explicitly, so the seed variable must not leak in
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = str(NPROC)
    os.environ.pop("DPSKETCH_SEED", None)

import numpy as np  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"

SETUP_REPEATS = 5
MIN_PASSES = 2
DEADLINE_S = 165.0  # no command may run past this point of the run

END_TO_END = {  # name -> unit; the metrics BENCHMARK.json gates
    "setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB", "answer_err": "abs",
}
TRACE_METRICS = {  # reported by --trace 1 next to tracing.LAYER_METRICS
    "trace.wall_s": "s", "trace.untraced_wall_s": "s", "trace.overhead_s": "s",
}
LATENCY_KINDS = ("sketch", "inspect", *workloads.QUERY_KINDS, "fit_logreg")


def machine_info() -> dict:
    import scipy

    info = {"nproc": NPROC, "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "platform": platform.platform()}
    with open("/proc/meminfo") as fh:
        info["ram_gb"] = round(int(fh.readline().split()[1]) / 2**20, 2)
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        info["blas"] = "unknown"
    return info


def load_program():
    """Import dpsketch from this checkout's src/, or fail."""
    if not (SRC / "dpsketch" / "cli.py").is_file():
        raise SystemExit(f"perfbench: no program at {SRC}/dpsketch; run from "
                         "the repository root")
    sys.path.insert(0, str(SRC))
    import dpsketch.cli

    if not Path(dpsketch.cli.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"perfbench: dpsketch imported from "
                         f"{dpsketch.cli.__file__}, not {SRC}")
    return dpsketch.cli.main


def spawn(argv: list[str], stdout: Path, stderr: Path, env: dict) -> dict:
    """Run one child to completion; its wall time, exit code and own peak RSS."""
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [(os.POSIX_SPAWN_OPEN, 1, str(stdout), flags, 0o644),
               (os.POSIX_SPAWN_OPEN, 2, str(stderr), flags, 0o644)]
    start = time.perf_counter()
    pid = os.posix_spawn(sys.executable, [sys.executable, *argv], env,
                         file_actions=actions)
    timed_out = False
    try:
        pidfd = os.pidfd_open(pid)
        try:
            budget = max(DEADLINE_S - (start - T_START), 1.0)
            timed_out = not select.select([pidfd], [], [], budget)[0]
        finally:
            os.close(pidfd)
        if timed_out:
            os.kill(pid, signal.SIGKILL)
        # wait4 gives this child's own rusage; RUSAGE_CHILDREN would be the
        # maximum over every child so far
        _, status, usage = os.wait4(pid, 0)
    except BaseException:
        try:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        except (ChildProcessError, ProcessLookupError):
            pass
        raise
    return {"wall": time.perf_counter() - start,
            "code": os.waitstatus_to_exitcode(status),
            "rss_mb": usage.ru_maxrss / 1024.0, "timed_out": timed_out}


def run_pass(inputs, work: Path, env: dict, index: int, traced: bool,
             reference: dict) -> dict:
    """Run every command once, checking each output right after it ran."""
    records = []
    for cmd in inputs.commands:
        stem = f"{index}-{cmd.key.replace(':', '-')}"
        if traced:
            spans_path = work / f"{stem}.spans.json"
            argv = [str(HERE / "traced_cli.py"), str(spans_path), "--", *cmd.argv]
        else:
            argv = ["-m", "dpsketch.cli", *cmd.argv]
        out, err = work / f"{stem}.stdout", work / f"{stem}.stderr"
        rec = spawn(argv, out, err, env)
        rec.update(key=cmd.key, kind=cmd.kind, answers=cmd.answers, pairs=[],
                   error=None)
        rec["stdout"] = stdout = out.read_bytes()
        try:
            if rec["timed_out"]:
                raise workloads.CheckError("killed at the run deadline")
            if rec["code"] != 0:
                raise workloads.CheckError(
                    f"exit code {rec['code']}: {err.read_text()[-500:]}")
            if cmd.key in reference and stdout != reference[cmd.key]:
                raise workloads.CheckError("stdout differs from another pass")
            reference.setdefault(cmd.key, stdout)
            rec["pairs"] = cmd.check(stdout)
        except workloads.CheckError as exc:
            rec["error"] = str(exc)
            rec["pairs"] = exc.pairs
        except (ValueError, LookupError, OSError) as exc:
            rec["error"] = f"{type(exc).__name__}: {exc}"
        if traced:
            rec["spans"] = (json.loads(spans_path.read_text())
                            if spans_path.exists() else [])
        records.append(rec)
    return {"records": records, "wall": sum(r["wall"] for r in records)}


def pass_metrics(p: dict, rows_sketched: int) -> dict:
    """Per-pass latencies summed by command kind, and throughputs."""
    out = {}
    for kind in LATENCY_KINDS:
        walls = [r["wall"] for r in p["records"] if r["kind"] == kind]
        if walls:
            out[f"{kind}_s"] = sum(walls)
    if "sketch_s" in out:
        out["rows_per_s"] = rows_sketched / out["sketch_s"]
    query = [r for r in p["records"] if r["kind"] in workloads.QUERY_KINDS]
    if query:
        out["answers_per_s"] = (sum(r["answers"] for r in query)
                                / sum(r["wall"] for r in query))
    return out


def summarize(setup_times, passes, rows_sketched) -> dict:
    """Every end-to-end metric that applies: name -> (value, unit, samples)."""
    records = [r for p in passes for r in p["records"]]
    pairs = [pair for r in passes[0]["records"] for pair in r["pairs"]]
    failed = sum(r["error"] is not None for r in records)
    m = {
        "setup_s": (statistics.median(setup_times), "s", len(setup_times)),
        "wall_s": (statistics.median(p["wall"] for p in passes), "s", len(passes)),
        "peak_rss_mb": (max(r["rss_mb"] for r in records), "MB", len(records)),
        "answer_err": (float(np.mean([abs(e - t) for e, t in pairs]))
                       if pairs else float("nan"), "abs", len(pairs)),
        "error_rate": (failed / len(records), "1", len(records)),
    }
    per_pass = [pass_metrics(p, rows_sketched) for p in passes]
    for name in per_pass[0]:
        unit = "1/s" if name.endswith("_per_s") else "s"
        m[name] = (statistics.median(pp[name] for pp in per_pass), unit, len(passes))
    aucs = [float(r["stdout"].split()[1]) for r in passes[0]["records"]
            if r["kind"] == "fit_logreg" and r["error"] is None]
    if aucs:
        m["auc"] = (float(np.mean(aucs)), "1", len(aucs))
    return m


def trace_metrics(plain: dict, traced: dict) -> dict:
    values = tracing.layer_metrics([r["spans"] for r in traced["records"]])
    m = {name: (values[name], unit, 1)
         for name, (_, _, unit) in tracing.LAYER_METRICS.items()}
    for name, value in (("trace.wall_s", traced["wall"]),
                        ("trace.untraced_wall_s", plain["wall"]),
                        ("trace.overhead_s", traced["wall"] - plain["wall"])):
        m[name] = (value, TRACE_METRICS[name], 1)
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli_main = load_program()
    setup, commands = workloads.WORKLOADS[args.workload]
    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT))
    try:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            for child in work.iterdir():
                child.unlink()
            start = time.perf_counter()
            state = setup(args.seed, work, cli_main)
            setup_times.append(time.perf_counter() - start)
        inputs = commands(work, state)
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        reference: dict = {}
        measure_start = time.perf_counter()
        passes = [run_pass(inputs, work, env, 0, False, reference)]
        if args.trace:
            passes.append(run_pass(inputs, work, env, 1, True, reference))
        while not args.trace:
            elapsed = time.perf_counter() - measure_start
            per_pass = elapsed / len(passes)
            if len(passes) >= MIN_PASSES and elapsed + per_pass > args.seconds:
                break
            if time.perf_counter() - T_START + per_pass > DEADLINE_S:
                break
            passes.append(run_pass(inputs, work, env, len(passes), False,
                                   reference))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    records = [r for p in passes for r in p["records"]]
    failures = [f"{r['key']}: {r['error']}" for r in records if r["error"]]
    if args.trace:
        shown = reported = trace_metrics(*passes)
    else:
        shown = summarize(setup_times, passes, inputs.rows_sketched)
        reported = {name: shown[name] for name in END_TO_END}
    machine = machine_info()

    print(f"perfbench {args.workload} seed={args.seed} passes={len(passes)} "
          f"trace={args.trace} failed={len(failures)}/{len(records)}")
    print("machine " + json.dumps(machine, sort_keys=True))
    for name, (value, unit, n) in shown.items():
        print(f"  {name:36s} {value:14.6g} {unit:6s} n={n}")
    if args.trace:
        table = tracing.span_table([r["spans"] for r in passes[1]["records"]])
        print(f"  {'span':36s} {'calls':>8s} {'total_s':>10s} {'self_s':>10s}")
        for name, (calls, total, own) in sorted(table.items(),
                                                key=lambda kv: -kv[1][2]):
            print(f"  {name:36s} {calls:8d} {total:10.4f} {own:10.4f}")
    for line in failures:
        print(f"  FAILED {line}")

    result = {
        "correct": not failures,
        "attempted": len(records),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in reported.items()},
    }
    results_dir = WORK_ROOT / "results"
    results_dir.mkdir(exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "machine": machine, "setup_times": setup_times,
              "metrics": {k: list(v) for k, v in shown.items()},
              "passes": [[{k: v for k, v in r.items() if k not in ("spans", "pairs", "stdout")}
                          for r in p["records"]] for p in passes],
              "failures": failures, "result": result}
    if args.trace:
        record["spans"] = {r["key"]: r["spans"] for r in passes[1]["records"]}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results_dir / name).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Child process of the benchmark: set-up, then the timed batch.

    python3 perfbench/worker.py --workload W --seed S --cycles N --trace 0|1 [--setup-only]

Set-up imports the package from the checkout's src/, builds the default
grid and runs one untimed warm-up op, then prints "ready" so the parent
can time it from process start.  The worker then prints one JSON line of
facts about the run's environment and, unless --setup-only, runs the
batch and prints one JSON line with per-op latencies, CPU time, memory
and oracle problems.

A speed probe (speed.py) runs before the first op and after each op,
outside the timed region.  Untraced, the batch runs once with no
wrappers installed.  Traced, every op runs once untimed to warm its
caches and then twice, untraced and traced, so the pairs give the
tracing overhead; the span file goes to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

sys.path.insert(0, str(HERE))
sys.path.insert(0, str(SRC))

import oracle  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _execute(op, wc, cfg):
    """One in-process op: build the inputs and make the public call."""
    space = wc.parse_space(op["space"])
    if op["call"] == "run_all":
        return wc.run_all(space, cfg, op["seed"])
    w = wc.WcoSymbols(workloads.build(op["F"], wc), workloads.build(op["phi"], wc))
    if op["call"] == "check_isometry":
        return wc.check_isometry(w, space, cfg, op["seed"])
    return wc.check_invertible(w, space, cfg, op["seed"])


def _execute_cli(op, wc, tmp_dir):
    """One CLI op, in-process: main(argv) with stdout captured."""
    csv_path = str(tmp_dir / "section.csv") if op["call"] == "section" else None
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = wc.cli.main(workloads.cli_argv(op, csv_path))
    csv_text = Path(csv_path).read_text() if csv_path and Path(csv_path).exists() else None
    return code, out.getvalue(), csv_text


def _timings() -> dict:
    return {"latencies": [], "cpu": [], "probes": []}


def _timed(run_op, op, timings: dict, before: float) -> tuple:
    """Run one op; append its wall and CPU seconds and the probes around it.

    Returns the op's result and the probe taken after it.
    """
    cpu0, t0 = _cpu_s(), time.perf_counter()
    try:
        result = ("ok", run_op(op))
    except Exception as exc:  # an op that raises is a failed op, not a crashed run
        result = ("raised", f"{type(exc).__name__}: {exc}")
    timings["latencies"].append(time.perf_counter() - t0)
    timings["cpu"].append(_cpu_s() - cpu0)
    after = speed.probe()
    timings["probes"].append((before, after))
    return result, after


def _run_batch(batch, run_op) -> tuple:
    """Run the ops one after the other; return their timings and results."""
    timings, results = _timings(), []
    before = speed.probe()
    for op in batch:
        result, before = _timed(run_op, op, timings, before)
        results.append(result)
    return timings, results


def _run_paired(batch, run_op, tracer) -> tuple:
    """Run each op once untimed, then untraced and traced, back to back.

    The untimed run fills the caches the op's space needs (quadrature
    weights, area grids), so neither side of the pair pays them.  The
    two timed runs then share the state of the process and the machine,
    in alternating order, and their difference is the tracing overhead
    rather than a warm-up or a drift.  Returns (timings, results) per
    side.
    """
    sides = {False: (_timings(), []), True: (_timings(), [])}
    for i, op in enumerate(batch):
        with contextlib.suppress(Exception):  # the timed runs record any failure
            run_op(op)
        before = speed.probe()
        for traced in (False, True) if i % 2 == 0 else (True, False):
            timings, results = sides[traced]
            if traced:
                tracer.op_id = i
                tracer.install()
            try:
                result, before = _timed(run_op, op, timings, before)
            finally:
                if traced:
                    tracer.uninstall()
            results.append(result)
    return sides[False], sides[True]


def _problems(batch, results, cli, validator):
    problems = []
    for op, (status, value) in zip(batch, results):
        if status == "raised":
            problems.append([f"raised {value}"])
        elif cli:
            code, stdout, csv_text = value
            problems.append(oracle.check_cli(op, code, stdout, validator, csv_text))
        else:
            problems.append(oracle.check(op, value))
    return problems


def _environment(wc, np, scipy, cfg) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "grid": {"n_theta": cfg.n_theta, "n_radial": cfg.n_radial, "r_max": cfg.r_max},
        "WCOLAB_GRID_PRESET": os.environ.get("WCOLAB_GRID_PRESET"),
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--cycles", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--quick", action="store_true", help="batch of the warm-up op alone")
    args = parser.parse_args()
    cli = args.workload == "cli"
    ops = workloads.generate(args.workload, args.seed)

    # Set-up, timed by the parent from process start to "ready".
    if cli:
        import wcolab.cli  # noqa: F401  every CLI call pays this import
        import wcolab as wc
        cfg = wc.default_config()
    else:
        import wcolab as wc
        cfg = wc.default_config()
        _execute(ops[workloads.WARMUP_INDEX[args.workload]], wc, cfg)
    print("ready", flush=True)

    import numpy as np
    import scipy

    print(json.dumps(_environment(wc, np, scipy, cfg)), flush=True)
    if not Path(wc.__file__).resolve().is_relative_to(SRC):
        print(f"worker: imported wcolab from {wc.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    if args.setup_only:
        return 0

    warmup = ops[workloads.WARMUP_INDEX[args.workload]]
    batch = [warmup] if args.quick else ops * args.cycles
    OUT_DIR.mkdir(exist_ok=True)
    validator = None
    if cli:
        validator = oracle.load_validator(SRC / "wcolab" / "schema" / "report.schema.json")
        tmp_dir = Path(tempfile.mkdtemp(dir=OUT_DIR))
        run_op = lambda op: _execute_cli(op, wc, tmp_dir)  # noqa: E731
        if args.trace:
            run_op(warmup)
    else:
        run_op = lambda op: _execute(op, wc, cfg)  # noqa: E731

    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        (timings, results), (traced_timings, t_results) = _run_paired(batch, run_op, tracer)
        report = {"batch": timings, "traced_batch": traced_timings,
                  "problems": _problems(batch, results, cli, validator) + _problems(batch, t_results, cli, validator)}
        report["layers"] = tracer.metrics()
        if cli:
            report["layers"]["cli.stdout_bytes"] = sum(
                len(v[1].encode()) for status, v in t_results if status == "ok"
            )
        report["spans"] = len(tracer.spans)
        tracer.write(OUT_DIR / f"spans-{args.workload}.jsonl.gz")
    else:
        timings, results = _run_batch(batch, run_op)
        report = {"batch": timings, "problems": _problems(batch, results, cli, validator)}
    if cli:
        shutil.rmtree(tmp_dir)
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

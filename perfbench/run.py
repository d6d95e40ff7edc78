"""The wcolab benchmark: one workload, one run, one JSON line of metrics.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run it from the root of a checkout; it uses the package in src/.

Workloads (see workloads.py): `isometry`, `invertibility` and `axioms`
call the package's public functions in one process; `cli` starts one
interpreter per CLI call.  Every workload is a closed loop with one
caller: the next op starts when the previous one has returned.  A run
measures a fixed batch of whole cycles of the seeded op list, as many
as fit the nominal cycle times below into --seconds (at least one), so
the work done depends on --seconds and the seed, never on speed.

With --trace 0 the last line holds the end-to-end metrics:

- setup_s: process start to the first timed op (import, default_config
  and one untimed warm-up op; for `cli` the start-up plus
  `import wcolab.cli`), the median of several fresh processes;
- ops_per_s: ops over the summed op latencies of the batch;
- op_p50_ms, op_tail_ms: median and tail op latency;
- cpu_s: user plus system CPU of the batch's ops, CLI children included;
- peak_rss_mb: maximum resident set size, CLI children included.

Every time is reported "at reference speed".  The benchmark and its
children are pinned to one CPU with single-threaded BLAS, and still the
machine's own speed drifts by tens of percent over minutes (on axioms,
ten seeds: spread 0.25 of ops_per_s as measured, 0.07 scaled;
baseline.json has both for every metric).  So a fixed probe (speed.py)
runs before and after each op and set-up, outside the timed region,
and the op's wall and CPU times are scaled by the probe's reference
time over the mean of the two.  The probe counts only its own thread's CPU time, with the garbage
collector off, so work that a change leaves running in other threads or
processes after an op returns does not slow the probe, and shows in the
ops that share the CPU with it.  The figures as measured, unscaled,
are printed in brackets and kept in the run file in .perfbench_out/.

With --trace 1 the last line holds the per-layer metrics from
tracer.py, the tracing overhead, and the interpreter and import
breakdown taken from outside.  Every output is checked by oracle.py.
`failed` counts ops with any problem; `correct` is false when some op
has a problem other than the known open defects that oracle.py names.

BLAS runs single-threaded (OPENBLAS_NUM_THREADS=1 and friends): on a
2-core box the idle BLAS threads spin against the one caller, which made
runs about 10 % slower and three times less steady, for no gain.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCHEMA = SRC / "wcolab" / "schema" / "report.schema.json"
OUT_DIR = ROOT / ".perfbench_out"
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

# Wall time of one cycle of each workload at the parent commit on a
# 2-core x86-64 box (Python 3.11, numpy 2.4, scipy 1.17); they only size
# the batch, which then stays fixed.
NOMINAL_CYCLE_S = {"isometry": 22.0, "invertibility": 16.0, "axioms": 26.0, "cli": 14.0}
SETUP_SAMPLES = 3
IMPORT_SAMPLES = 3
INTERPRETER_SAMPLES = 5
CLI_TIMEOUT_S = 150
CLI_ENTRY = "import sys; from wcolab.cli import main; sys.exit(main())"
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}
IMPORT_MODULES = {"numpy_s": "numpy", "scipy_special_s": "scipy.special",
                  "scipy_optimize_s": "scipy.optimize", "scipy_integrate_s": "scipy.integrate"}


class WorkerError(RuntimeError):
    pass


def layer_unit(name: str) -> str:
    """Unit of a per-layer metric, from its last name component."""
    last = name.rsplit(".", 1)[-1]
    if last.endswith("_s"):
        return "s"
    if last.endswith("_frac"):
        return "ratio"
    if last.endswith("_bytes"):
        return "bytes"
    return "count"


def percentile(values, q: float) -> float:
    """Linear-interpolation percentile, q in [0, 100]."""
    xs = sorted(values)
    pos = q / 100.0 * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_percentile(n: int) -> int:
    """The highest whole percentile with at least ten ops above it.

    Batches of fewer than twenty ops have none at or above the median,
    and report the median.
    """
    return (100 * (n - 10)) // n if n >= 20 else 50


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    # The workloads run at the default grid, with single-threaded BLAS.
    env.pop("WCOLAB_GRID_PRESET", None)
    env.update(BLAS_THREADS)
    return env


def _worker_cmd(args, cycles: int, setup_only: bool = False) -> list:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--cycles", str(cycles), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    if args.quick:
        cmd.append("--quick")
    return cmd


def _start_worker(cmd: list) -> tuple:
    """Start a worker; return it, its set-up time, the probe before it, and its environment facts."""
    before = speed.probe()
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT, env=_env())
    try:
        line = proc.stdout.readline()
        setup = time.perf_counter() - t0
        if line.strip() != "ready":
            raise WorkerError(f"worker did not get ready: {line!r}")
        facts = json.loads(proc.stdout.readline())
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    return proc, setup, before, facts


def _setup_sample(setup: float, before: float, after: float) -> dict:
    return {"measured": setup, "scaled": setup * speed.factors([(before, after)])[0]}


def _finish_worker(proc) -> str:
    try:
        out = proc.stdout.read()
    finally:
        proc.stdout.close()
        code = proc.wait()
    if code != 0:
        raise WorkerError(f"worker exited with {code}")
    return out


def _children_cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def _run_cli_batch(batch: list) -> dict:
    """The cli workload: one fresh interpreter per call, one at a time."""
    validator = oracle.load_validator(SCHEMA)
    OUT_DIR.mkdir(exist_ok=True)
    tmp_dir = Path(tempfile.mkdtemp(dir=OUT_DIR))
    env = _env()
    timings = {"latencies": [], "cpu": [], "probes": []}
    before = speed.probe()
    runs = []
    try:
        for op in batch:
            csv_path = tmp_dir / "section.csv" if op["call"] == "section" else None
            argv = workloads.cli_argv(op, str(csv_path) if csv_path else None)
            cpu0, t0 = _children_cpu(), time.perf_counter()
            try:
                proc = subprocess.run([sys.executable, "-c", CLI_ENTRY, *argv], capture_output=True,
                                      text=True, cwd=ROOT, env=env, timeout=CLI_TIMEOUT_S)
                csv_text = csv_path.read_text() if csv_path and csv_path.exists() else None
                runs.append((proc.returncode, proc.stdout, csv_text, None))
            except subprocess.TimeoutExpired:
                runs.append((None, "", None, f"timed out after {CLI_TIMEOUT_S} s"))
            timings["latencies"].append(time.perf_counter() - t0)
            timings["cpu"].append(_children_cpu() - cpu0)
            after = speed.probe()
            timings["probes"].append((before, after))
            before = after
    finally:
        shutil.rmtree(tmp_dir, ignore_errors=True)
    problems = [[error] if error else oracle.check_cli(op, code, stdout, validator, csv_text)
                for op, (code, stdout, csv_text, error) in zip(batch, runs)]
    peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    return {"batch": timings, "problems": problems, "peak_rss_mb": peak}


def _timed_process(cmd: list) -> tuple:
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, env=_env(), timeout=CLI_TIMEOUT_S)
    return time.perf_counter() - t0, proc


def parse_importtime(stderr: str) -> dict:
    """Import seconds from `python -X importtime -c "import wcolab.cli"`.

    total_s sums the cumulative time of the top-level wcolab imports;
    the others are the cumulative time of the first import of each
    module, wherever it sits in the tree.
    """
    rows = []
    for line in stderr.splitlines():
        m = re.match(r"import time:\s*(\d+)\s*\|\s*(\d+)\s*\|( *)(\S+)", line)
        if m:
            rows.append((int(m.group(2)) * 1e-6, len(m.group(3)), m.group(4)))
    top = min((depth for _, depth, _ in rows), default=0)
    out = {"total_s": sum(c for c, depth, name in rows
                          if depth == top and (name == "wcolab" or name.startswith("wcolab.")))}
    for key, module in IMPORT_MODULES.items():
        out[key] = next((c for c, _, name in rows if name == module), 0.0)
    return out


def _outside_layers(quick: bool) -> dict:
    """cli.interpreter_s and cli.import.*: medians over fresh interpreters."""
    interpreter = [_timed_process([sys.executable, "-c", "pass"])[0]
                   for _ in range(1 if quick else INTERPRETER_SAMPLES)]
    samples = []
    for _ in range(1 if quick else IMPORT_SAMPLES):
        _, proc = _timed_process([sys.executable, "-X", "importtime", "-c", "import wcolab.cli"])
        if proc.returncode != 0:
            raise WorkerError(f"import wcolab.cli failed: {proc.stderr[-500:]}")
        samples.append(parse_importtime(proc.stderr))
    layers = {"cli.interpreter_s": statistics.median(interpreter)}
    for key in samples[0]:
        layers[f"cli.import.{key}"] = statistics.median(s[key] for s in samples)
    return layers


def batch_figures(timings: dict, scaled: bool = False) -> dict:
    """Op latencies (s) and summed CPU of a batch, as measured or scaled to reference speed."""
    f = speed.factors(timings["probes"]) if scaled else [1.0] * len(timings["latencies"])
    return {"latencies": [x * k for x, k in zip(timings["latencies"], f)],
            "cpu_s": sum(x * k for x, k in zip(timings["cpu"], f))}


def tracing_overhead(untraced: list, traced: list) -> dict:
    """Traced wall minus untraced wall, estimated op by op.

    Each op ran untraced and traced back to back; the overhead share is
    the median of the pairs' ratios, so that a pair caught by a burst of
    the machine's noise, which swings an op by tens of percent, does not
    swing the estimate.  A share of a few percent can still read
    negative in one run.
    """
    frac = statistics.median(t / u - 1.0 for u, t in zip(untraced, traced))
    return {"trace.overhead_s": frac * sum(untraced), "trace.overhead_frac": frac}


def end_to_end(figures: dict, setup_s: float, peak_rss_mb: float) -> dict:
    latencies = figures["latencies"]
    return {
        "setup_s": setup_s,
        "ops_per_s": len(latencies) / sum(latencies),
        "op_p50_ms": 1e3 * percentile(latencies, 50),
        "op_tail_ms": 1e3 * percentile(latencies, tail_percentile(len(latencies))),
        "cpu_s": figures["cpu_s"],
        "peak_rss_mb": peak_rss_mb,
    }


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in SRC.rglob("*") if p.is_file() and "__pycache__" not in p.parts):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _git_commit():
    try:
        # The ceiling keeps git from finding a repository above the checkout.
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, cwd=ROOT, timeout=10,
                              env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _record(args, ops, cycles, facts) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "cycles": cycles,
        "ops_per_cycle": len(ops),
        "op_list_digest": workloads.digest(ops),
        "git_commit": _git_commit(),
        "src_digest": _src_digest(),
        "nproc": os.cpu_count(),
        "cpus_used": sorted(os.sched_getaffinity(0)),
        "python": facts["python"],
        "numpy": facts["numpy"],
        "scipy": facts["scipy"],
        "jsonschema": importlib.metadata.version("jsonschema"),
        "blas": facts["blas"],
        "blas_threads": facts["blas_threads"],
        "grid": facts["grid"],
        "WCOLAB_GRID_PRESET": facts["WCOLAB_GRID_PRESET"],
        "speed_reference_s": speed.REFERENCE_S,
    }


def _check_checkout() -> str | None:
    for path in (SRC / "wcolab" / "__init__.py", SCHEMA):
        if not path.is_file():
            return f"no {path.relative_to(ROOT)} in {ROOT}: run from the root of a wcolab checkout"
    return None


def run(args) -> tuple:
    """One run: (metrics, attempted, failed, correct, extra facts)."""
    ops = workloads.generate(args.workload, args.seed)
    cycles = max(1, round(args.seconds / NOMINAL_CYCLE_S[args.workload]))
    cli = args.workload == "cli"
    setups, facts = [], None
    if not args.trace:
        # The probe after a set-up runs once the process is gone, so the
        # two never share the CPU.
        for _ in range(1 if args.quick else SETUP_SAMPLES - (0 if cli else 1)):
            proc, setup, before, facts = _start_worker(_worker_cmd(args, 1, setup_only=True))
            _finish_worker(proc)
            setups.append(_setup_sample(setup, before, speed.probe()))
    if cli and not args.trace:
        result = _run_cli_batch([ops[0]] if args.quick else ops * cycles)
    else:
        # The worker's first probe, right after "ready", closes its set-up.
        proc, setup, before, facts = _start_worker(_worker_cmd(args, cycles))
        result = json.loads(_finish_worker(proc).strip().splitlines()[-1])
        setups.append(_setup_sample(setup, before, result["batch"]["probes"][0][0]))

    problems = result["problems"]
    scaled = batch_figures(result["batch"], scaled=True)
    n = len(scaled["latencies"])
    tail = percentile(scaled["latencies"], tail_percentile(n))
    extra = {
        "record": _record(args, ops, cycles, facts),
        "ops": n,
        "tail_percentile": tail_percentile(n),
        "ops_beyond_tail": sum(1 for x in scaled["latencies"] if x > tail),
        "failed_frac": sum(1 for p in problems if p) / len(problems),
        "problems": [{"op": i % len(ops), "problems": p} for i, p in enumerate(problems) if p],
        "timings": result["batch"],
        "speed_factor": statistics.median(speed.factors(result["batch"]["probes"])),
    }
    if args.trace:
        traced = batch_figures(result["traced_batch"], scaled=True)
        values = result["layers"]
        values.setdefault("cli.stdout_bytes", 0)
        values.update(tracing_overhead(scaled["latencies"], traced["latencies"]))
        values.update(_outside_layers(args.quick))
        extra["spans"] = result["spans"]
        metrics = {name: {"value": v, "unit": layer_unit(name)} for name, v in values.items()}
    else:
        peak = result["peak_rss_mb"]
        values = end_to_end(scaled, statistics.median(s["scaled"] for s in setups), peak)
        extra["measured"] = end_to_end(batch_figures(result["batch"]),
                                       statistics.median(s["measured"] for s in setups), peak)
        extra["setup_samples"] = setups
        metrics = {name: {"value": v, "unit": END_TO_END_UNITS[name]} for name, v in values.items()}
    failed = sum(1 for p in problems if p)
    correct = all(oracle.is_known(x) for p in problems for x in p)
    return metrics, len(problems), failed, correct, extra


def _summary(args, metrics, attempted, failed, extra) -> None:
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"cycles={extra['record']['cycles']} ops={extra['ops']}"
          + f"  speed factor {extra['speed_factor']:.3f}"
          + ("" if args.trace else "  (at reference speed; as measured in brackets)"))
    for name, m in metrics.items():
        note = "" if args.trace else f"  [{extra['measured'][name]:.6g}]"
        if name == "op_tail_ms":
            note += f"  (p{extra['tail_percentile']}, {extra['ops_beyond_tail']} of {extra['ops']} ops beyond)"
        elif name == "setup_s":
            note += f"  (median of {len(extra['setup_samples'])})"
        print(f"  {name:<44} {m['value']:>14.6g} {m['unit']}{note}")
    print(f"  {'failed_frac':<44} {extra['failed_frac']:>14.6g} ratio  ({failed} of {attempted} ops)")
    if args.trace and metrics["trace.overhead_s"]["value"] < 0:
        print("  WARNING: negative tracing overhead: machine noise larger than the overhead,"
              " or the traced and untraced sides did not run alike")
    if args.trace:
        print(f"  {extra['spans']} spans written to {OUT_DIR.name}/spans-{args.workload}.jsonl.gz")
    for item in extra["problems"][:20]:
        print(f"  failed op {item['op']}: {'; '.join(item['problems'])}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true", help="check the benchmark itself and exit")
    args = parser.parse_args(argv)
    args.quick = False  # one op and one set-up; only the self-test sets it

    problem = _check_checkout()
    if problem:
        print(f"perfbench: {problem}", file=sys.stderr)
        return 2
    if args.selftest:
        import selftest

        return selftest.main()
    if args.workload is None:
        parser.error("--workload is required")
    # One CPU for the benchmark and every process it starts: the speed
    # probes then measure the CPU the timed work runs on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    try:
        metrics, attempted, failed, correct, extra = run(args)
    except (WorkerError, subprocess.SubprocessError, OSError, ValueError) as exc:
        print(f"perfbench: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1

    _summary(args, metrics, attempted, failed, extra)
    OUT_DIR.mkdir(exist_ok=True)
    record_path = OUT_DIR / f"run-{args.workload}-{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps({"metrics": metrics, "attempted": attempted, "failed": failed,
                                       "correct": correct, **extra}, indent=1) + "\n")
    print("record " + json.dumps(extra["record"], sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""lcflow benchmark: one workload per invocation, run from the repository root.

    python3 perfbench/run.py --workload budget|sweep|diagnose|all --seed N \
        --seconds S --trace 0|1

--trace 0 runs the workload's operations back to back (closed loop, one
benchmark process) for S seconds and reports the end-to-end metrics of
BENCHMARK.json.  --trace 1 runs the same untraced loop, then a fixed-size
traced pass (spans recorded around every lcflow function and the
numpy.roll / scipy.fft entry points, see tracer.py) and a tracemalloc pass,
and reports the per-layer metrics.  Every operation's output is checked;
the last line of stdout is the JSON result.  See README.md.
"""

import os

# BLAS/OpenMP pools must be pinned before numpy is first imported
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
SETUP_REPEATS = 5

sys.path.insert(0, str(HERE))
from tracer import Tracer, summarize  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# What a fresh `lcflow` invocation pays before any stepping: interpreter
# start, imports, config load and validation, grid and initial state.
SETUP_SNIPPET = """
import sys
sys.path.insert(0, sys.argv[1])
import lcflow.cli
from lcflow.config import load_config
from lcflow.fields import init_state
from lcflow.grid import make_grid
cfg = load_config(sys.argv[2])
init_state(make_grid(cfg), cfg.ic)
"""

STEP, RECORD = "integrator.step", "diagnostics.make_record"


def import_lcflow(src=SRC):
    """Import lcflow from this checkout's source tree, never from elsewhere."""
    if not (src / "lcflow" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no lcflow package under {src}")
    sys.path.insert(0, str(src))
    import lcflow
    if Path(lcflow.__file__).resolve().parent != (src / "lcflow").resolve():
        raise SystemExit(f"perfbench: imported lcflow from {lcflow.__file__}, "
                         f"expected {src / 'lcflow'}")
    return lcflow


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------

def tail(values):
    """(p, value) for the highest whole percentile with at least ten samples
    above it, or None when there are ten samples or fewer."""
    n = len(values)
    p = (100 * (n - 10)) // n if n > 10 else 0
    if p < 1:
        return None
    return p, sorted(values)[math.ceil(p * n / 100) - 1]


def describe(name, vals, unit):
    t = tail(vals)
    tail_txt = (f"p{t[0]} {t[1]:.6g} {unit}" if t else
                "no percentile has >= 10 samples beyond it")
    return (f"{name:<28} median {statistics.median(vals):.6g} {unit}, "
            f"{tail_txt}, n = {len(vals)}")


def tail_or_max(values):
    """The tail percentile when it lies above the median (n >= 20),
    otherwise the largest sample."""
    t = tail(values)
    return t[1] if t and t[0] > 50 else max(values)


# ---------------------------------------------------------------------------
# measurement passes
# ---------------------------------------------------------------------------

def timed_loop(workload, seconds, between=None):
    """Closed loop: operations back to back until `seconds` have passed
    (the one in flight finishes); always at least one.  between(), if
    given, runs after each operation, outside its timing."""
    results = []
    deadline = time.perf_counter() + seconds
    while not results or time.perf_counter() < deadline:
        results.append(workload.op(len(results)))
        if between is not None:
            between()
    return results


def peak_rss_mb(include_children):
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if include_children:
        kb = max(kb, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


def setup_sample(config):
    """Seconds for one fresh interpreter to run SETUP_SNIPPET."""
    t0 = time.perf_counter()
    # no timeout: with one, subprocess polls for the exit every 50 ms,
    # which would quantize the sample
    subprocess.run([sys.executable, "-c", SETUP_SNIPPET, str(SRC),
                    str(config)], check=True)
    return time.perf_counter() - t0


def traced_pass(workload, start, work):
    """Run workload.trace_ops operations with tracing on.  Returns
    (op results, spans)."""
    tracer = Tracer(work / "spans")
    with tracer:
        results = [workload.op(start + k) for k in range(workload.trace_ops)]
    return results, tracer.collect()


# ---------------------------------------------------------------------------
# per-layer metrics from a traced pass
# ---------------------------------------------------------------------------

SELF_S = (
    "integrator.run",
    "operators.advect_face", "operators.advect_center",
    "operators.laplacian_face", "operators.elastic_stress",
    "operators.grad_sq_director",
    "pressure.solve_helmholtz_neumann", "pressure.solve_poisson_neumann",
    "pressure.project", "pressure.pressure_split",
    "pressure.solve_viscous_helmholtz", "pressure._thomas_batched",
    "diagnostics.conormal_norm_sq", "diagnostics.conormal_energy",
    "diagnostics.energy_balance_residual", "diagnostics.slip_mismatch_trace",
    "diagnostics.grad_u_linf", "diagnostics._time_derivatives",
    "sweep.error_norms",
    "io.read_checkpoint", "io.write_diag_csv", "io.write_sweep_csv",
    "io.write_rate_report", "config.load_config",
)
PER_RECORD = ("operators.curl_center", "operators.director_gradient",
              "operators.fill_ghosts_navier_slip",
              "diagnostics.conormal_norm_sq", "numpy.roll")


def per_layer_metrics(spans, untraced, traced, workload):
    stats, ctx = summarize(spans)

    def calls_in(match, context):
        return sum(1 for i, s in enumerate(spans)
                   if ctx[i] == context and match(s[0]))

    def ratio(a, b):
        return a / b if b else 0.0

    m = {}
    for name in SELF_S:
        m[f"{name}.self_s"] = stats[name]["self_s"] if name in stats else 0.0
    steps = stats.get(STEP, {}).get("calls", 0)
    records = stats.get(RECORD, {}).get("calls", 0)
    for name, count in ((STEP, steps), (RECORD, records)):
        durs = stats[name]["durations"] if count else [0.0]
        m[f"{name}.calls"] = count
        m[f"{name}.ms_p50"] = 1e3 * statistics.median(durs)
        m[f"{name}.ms_tail"] = 1e3 * tail_or_max(durs)
    for name in PER_RECORD:
        m[f"{name}.calls_per_record"] = ratio(
            calls_in(lambda n, name=name: n == name, RECORD), records)
    m["numpy.roll.calls_per_step"] = ratio(
        calls_in(lambda n: n == "numpy.roll", STEP), steps)
    m["scipy.fft.calls_per_step"] = ratio(
        calls_in(lambda n: n.startswith("scipy.fft."), STEP), steps)
    m["diagnostics.record_per_step"] = ratio(m[f"{RECORD}.ms_p50"],
                                             m[f"{STEP}.ms_p50"])

    m.update(workload.layer_metrics(stats))

    traced_s = sum(r.seconds for r in traced)
    covered = sum(t1 - t0 for _, t0, t1, parent, pid in spans
                  if parent < 0 and pid == 0)
    m["other.self_s"] = traced_s - covered
    m["trace.overhead_frac"] = (
        statistics.median(r.seconds for r in traced)
        / statistics.median(r.seconds for r in untraced) - 1.0)
    return m


# ---------------------------------------------------------------------------
# run environment
# ---------------------------------------------------------------------------

def git_commit():
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)))
    except (OSError, subprocess.SubprocessError):
        return "unavailable"
    if out.returncode != 0:
        return "unavailable (not a git checkout)"
    return out.stdout.strip()


def cache_sizes():
    sizes = {}
    for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (idx / "level").read_text().strip()
            kind = (idx / "type").read_text().strip()
            size = (idx / "size").read_text().strip()
        except OSError:
            continue
        if kind in ("Unified", "Data"):
            sizes[f"L{level}"] = size
    return sizes


def environment(workload):
    import numpy
    import scipy
    import scipy.fft
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "scipy_fft_workers": scipy.fft.get_workers(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": git_commit(),
        "cache": cache_sizes(),
        "working_set_bytes_computed": workload.working_set_bytes(),
    }


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def declared_metrics(kind):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def emit(values, kind):
    declared = declared_metrics(kind)
    missing = sorted(set(declared) - set(values))
    if missing:
        raise RuntimeError(f"metrics not computed: {missing}")
    return {name: {"value": values[name], "unit": unit}
            for name, unit in declared.items()}


def measure(workload, seconds, trace):
    """Measure one workload; returns (result dict, info lines)."""
    workload.prepare()
    info = [f"perfbench: workload {workload.name}, seed {workload.seed}, "
            f"{seconds} s, trace {trace}"]

    if trace:
        ops = timed_loop(workload, seconds)
        traced, spans = traced_pass(workload, len(ops), workload.work)
        values = per_layer_metrics(spans, ops, traced, workload)
        values.update(workload.alloc())
        ops = ops + traced
        metrics = emit(values, "per_layer")
        info.append(f"traced pass: {len(traced)} operation(s), {len(spans)} "
                    f"spans, {values[STEP + '.calls']} steps, "
                    f"{values[RECORD + '.calls']} records (ms_tail is the "
                    f"max where n < 20)")
    else:
        # set-up samples are interleaved with the operations, so both see
        # the same stretch of machine load; children's peak RSS then includes
        # these set-up interpreters, which stay far below a forked worker
        setup = []
        ops = timed_loop(workload, seconds,
                         lambda: setup.append(setup_sample(workload.config)))
        while len(setup) < SETUP_REPEATS:
            setup.append(setup_sample(workload.config))
        rss = peak_rss_mb(include_children=workload.forks)
        wall = [r.seconds for r in ops]
        values = {"wall_s": statistics.median(wall),
                  "setup_s": statistics.median(setup),
                  "peak_rss_mb": rss}
        metrics = emit(values, "end_to_end")
        info.append(describe("wall_s", wall, "s"))
        info.append("wall_s samples: " + " ".join(f"{w:.4f}" for w in wall))
        info.append(describe("setup_s", setup, "s"))
        whose = " (max of this process and its children)" if workload.forks else ""
        info.append(f"{'peak_rss_mb':<28} {rss:.6g} MB{whose}")

    attempted = sum(r.attempted for r in ops)
    failed = sum(r.failed for r in ops)
    info.append(f"{'failed_frac':<28} {failed / attempted:.6g} fraction "
                f"({failed} of {attempted} operations)")
    info.append(f"largest deviation from expected output: "
                f"{max(r.deviation for r in ops):.3e} (information, not gated)")
    info += [f"failure: {r.message}" for r in ops if r.failed]
    info.append("environment: " + json.dumps(environment(workload)))
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    return result, info


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    import_lcflow()
    if args.workload == "all":
        # one interpreter per workload, so peak RSS is each workload's own
        for name in WORKLOADS:
            subprocess.run([sys.executable, __file__, "--workload", name,
                            "--seed", str(args.seed), "--seconds",
                            str(args.seconds), "--trace", str(args.trace)],
                           check=True)
        return 0
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    try:
        workload = WORKLOADS[args.workload](WORK, args.seed)
        result, info = measure(workload, args.seconds, args.trace)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    print("\n".join(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

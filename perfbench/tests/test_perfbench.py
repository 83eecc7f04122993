"""Tests of the benchmark's own code, on tiny grids.

    python3 -m pytest -q perfbench/tests
"""

import json
import shutil
import sys
from dataclasses import asdict
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

run.import_lcflow()

import lcflow.integrator  # noqa: E402
from lcflow import SimConfig  # noqa: E402
from tracer import Tracer, summarize  # noqa: E402
from workloads import WORKLOADS, call_cli  # noqa: E402

TINY_BUDGET = """
[grid]
nx = 8
ny = 8
nz = 8
[physics]
eps = 0.01
[time]
dt = 1e-3
t_final = 4e-3
adaptive_dt = no
[ic]
name = shear+twist
[diag]
diag_every = 2
"""
TINY_SWEEP = """
[grid]
nx = 8
ny = 8
nz = 32
[physics]
eps = 1.0
b11 = 1.0
b22 = 1.0
[time]
dt = 2e-3
t_final = 4e-3
adaptive_dt = no
visc_implicit = yes
[ic]
name = shear+twist
[diag]
diag_every = 1
[sweep]
eps_ladder = 0.0625 0.03125
"""
TINY_DIAGNOSE = """
[grid]
nx = 8
ny = 8
nz = 16
[physics]
eps = 0.01
b11 = 1.0
b22 = 1.0
[time]
dt = 1e-3
t_final = 2e-3
[ic]
name = random-solenoidal
amplitude = 0.02
seed = @SEED@
[diag]
diag_every = 1
time_derivs = 1
"""
TINY = {"budget": TINY_BUDGET, "sweep": TINY_SWEEP, "diagnose": TINY_DIAGNOSE}


def tiny_cfg(**kw):
    base = dict(nx=8, ny=8, nz=8, eps=0.01, b11=1.0, b22=1.0, dt=1e-3,
                t_final=4e-3, adaptive_dt=False, ic_name="random-solenoidal",
                amplitude=0.02, seed=5, diag_every=2, conormal_m=2)
    base.update(kw)
    return SimConfig(**base)


@pytest.fixture(scope="module")
def tiny(tmp_path_factory):
    """Tiny configs plus reference outputs made from them."""
    d = tmp_path_factory.mktemp("tiny")
    for name, text in TINY.items():
        (d / f"{name}.cfg").write_text(text)
    ref = d / "reference"
    ref.mkdir()
    assert call_cli(["simulate", "--config", d / "budget.cfg",
                     "--diag-out", ref / "budget_diag.csv"])[0] == 0
    assert call_cli(["sweep", "--config", d / "sweep.cfg", "--out", ref,
                     "--jobs", "2"])[0] == 0
    return d


def make(tiny, name, tmp_path, reference=None):
    work = tmp_path / "work"
    work.mkdir(exist_ok=True)
    return WORKLOADS[name](work, seed=3, config=tiny / f"{name}.cfg",
                           reference=reference or tiny / "reference")


def test_tracing_leaves_outputs_bit_identical(tmp_path):
    original = lcflow.integrator.step
    for cfg in (tiny_cfg(), tiny_cfg(visc_implicit=True, time_derivs=1)):
        _, plain, _ = lcflow.integrator.run(cfg)
        tracer = Tracer(tmp_path)
        with tracer:
            assert lcflow.integrator.step is not original
            _, traced, _ = lcflow.integrator.run(cfg)
        assert lcflow.integrator.step is original
        assert tracer.spans
        assert [asdict(r) for r in traced] == [asdict(r) for r in plain]


def _counts(cfg, tmp_path):
    tracer = Tracer(tmp_path)
    with tracer:
        lcflow.integrator.run(cfg)
    spans = tracer.collect()
    stats, ctx = summarize(spans)
    steps = stats[run.STEP]["calls"]
    records = stats[run.RECORD]["calls"]
    rolls = sum(1 for i, s in enumerate(spans)
                if s[0] == "numpy.roll" and ctx[i] == run.STEP)
    norms = sum(1 for i, s in enumerate(spans)
                if s[0] == "diagnostics.conormal_norm_sq" and ctx[i] == run.RECORD)
    return rolls / steps, norms / records, {k: v["calls"] for k, v in stats.items()}


def test_exact_counts_repeat(tmp_path):
    cfg = tiny_cfg(visc_implicit=False, time_derivs=0)
    first = _counts(cfg, tmp_path)
    assert first[0] == 64      # numpy.roll calls per explicit step
    assert first[1] == 10      # conormal_norm_sq calls per record at m = 2
    assert _counts(cfg, tmp_path) == first


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_declared_metric_is_emitted(tiny, tmp_path, name, trace):
    result, info = run.measure(make(tiny, name, tmp_path), 0, trace)
    kind = "per_layer" if trace else "end_to_end"
    declared = {m["name"]: m["unit"] for m in
                json.loads((run.ROOT / "BENCHMARK.json").read_text())[kind]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(isinstance(v["value"], (int, float))
               for v in result["metrics"].values())
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    json.dumps(result, allow_nan=False)
    if trace and name == "sweep":
        # members ran in forked workers; their spans were merged
        assert result["metrics"]["integrator.step.calls"]["value"] == 6


def test_forced_check_failure_counts(tiny, tmp_path):
    bad = tmp_path / "bad_reference"
    shutil.copytree(tiny / "reference", bad)
    csv = bad / "budget_diag.csv"
    lines = csv.read_text().splitlines()
    cols = lines[1].split(",")
    cols[1] = repr(float(cols[1]) * (1 + 1e-6))   # kinetic energy, first record
    csv.write_text("\n".join([lines[0], ",".join(cols)] + lines[2:]) + "\n")
    result, info = run.measure(make(tiny, "budget", tmp_path, bad), 0, 0)
    assert result["failed"] == result["attempted"] >= 1
    assert not result["correct"]
    assert any(line.startswith("failed_frac") and " 1 fraction" in line
               for line in info)

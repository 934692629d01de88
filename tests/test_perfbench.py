"""The benchmark harness's hooks into the package, checked without a run.

``perfbench/run.py`` builds ``onlinelp sift``'s configs from the command's
own parser, and its traced run wraps package functions by name.  Loading
the script here makes a renamed flag, config field or traced function fail
this suite rather than a benchmark run.  Each committed ``BENCH_*.json``
must name a workload of ``BENCHMARK.json`` and the command that runs it.
"""

import importlib.util
import json
import shlex
import sys
from pathlib import Path

import pytest

from onlinelp.cli import _sift_configs, build_parser

ROOT = Path(__file__).resolve().parents[1]
RUN = ROOT / "perfbench" / "run.py"


@pytest.fixture(scope="module")
def run():
    """perfbench/run.py as a module; the sys.path entries and BLAS thread
    settings it makes on import are undone afterwards."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sys, "path", list(sys.path))
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            mp.delenv(var, raising=False)
        spec = importlib.util.spec_from_file_location("perfbench_run", RUN)
        module = importlib.util.module_from_spec(spec)
        mp.setitem(sys.modules, spec.name, module)   # its dataclasses look it up
        spec.loader.exec_module(module)
    return module


def test_sift_settings_are_the_commands(run):
    # the flags each workload passes, so none of them can go unnoticed
    for name, workload in run.WORKLOADS.items():
        pre, config = run.sift_settings(*workload.sift_flags)
        assert pre.lazy is True, name   # an explicit pre-pass is always lazy
        assert (pre, config) == _sift_configs(build_parser().parse_args(
            ["sift", "--gen", "m=1,n=1,tau=1", *workload.sift_flags])), name


def test_the_tracer_wraps_each_entry_point_and_restores_it(run):
    entry_points = dict(vars(run.api))
    with run.Tracer().installed(run.api):
        assert all(getattr(run.api, name) is not fn for name, fn in entry_points.items())
    assert vars(run.api) == entry_points


@pytest.mark.parametrize("path", sorted(ROOT.glob("BENCH_*.json")), ids=lambda p: p.name)
def test_a_bench_file_names_a_workload_and_the_command_that_runs_it(path):
    bench = json.loads(path.read_text())
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert bench["workload"] in {w["name"] for w in benchmark["workloads"]}
    argv = shlex.split(bench["command"])
    assert argv[:len(benchmark["command"])] == benchmark["command"]
    assert argv[argv.index("--workload") + 1] == bench["workload"]

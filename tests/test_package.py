"""The package root's names, and the library names the benchmark imports."""

import inspect
import os
import subprocess
import sys
from pathlib import Path

import semihartree

ENTRY_POINTS = {"ExperimentConfig", "parse_config", "ConfigError", "NumericalError",
                "SweepError", "SweepReport", "run_sweep", "lemma_check"}


def test_package_root_holds_only_the_entry_points():
    public = {name for name, value in vars(semihartree).items()
              if not name.startswith("_") and not inspect.ismodule(value)}
    assert public == ENTRY_POINTS
    assert isinstance(semihartree.__version__, str)


def test_benchmark_modules_import_and_trace():
    # perfbench/tracing.py wraps library functions by module and name, and
    # perfbench/kernels.py imports single kernels; both run only under the
    # benchmark, so a name they need that the library lost shows up here
    repo = Path(__file__).resolve().parents[1]
    path = os.pathsep.join([str(repo / "perfbench"), str(repo / "src")])
    code = "import tracing, kernels; tracing.install(tracing.Tracer()); tracing.uninstall()"
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env=dict(os.environ, PYTHONPATH=path), timeout=120)
    assert result.returncode == 0, result.stderr

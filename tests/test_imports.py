"""The kernel's import path: numpy only, so a fresh process starts fast."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
BENCH = Path(__file__).resolve().parents[1] / "bench" / "test_kernels.py"


def test_importing_the_kernel_loads_no_scipy():
    code = ("import sys, watertight, watertight.pipeline, watertight.model_io; "
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))")
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_microbenchmarks_import():
    # `bench/` lies outside the test paths, so a kernel name it imports that
    # is renamed or deleted would otherwise break only a hand-run of it.
    spec = importlib.util.spec_from_file_location("bench_test_kernels", BENCH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.test_fit_stack_demo_trapezoids)

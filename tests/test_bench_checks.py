"""The benchmark's output checks pass on one case of each workload.

`perfbench/checks.py` checks every benchmark output against the analytic
circle and surfaces; `perfbench/run.py` refuses a run whose outputs fail
them.  This test loads `workloads.py` and `checks.py` from their files, runs
one case of each workload at seed 0 through `run_pipeline` and a `model_io`
save and load, and asserts that no check fails.  It only reads `perfbench/`.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from watertight import model_io
from watertight.pipeline import run_pipeline

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # Its dataclasses look their module up by name.
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


workloads = load("workloads")
checks = load("checks")


@pytest.mark.parametrize("workload, name", [
    ("dense-march", "level-circle"),
    ("tight-fit", "mirror"),
    ("clip-reduce", "corner-clip"),
])
def test_workload_case_passes_the_output_checks(tmp_path, workload, name):
    (case,) = [c for c in workloads.build_cases(workload, 0) if c.name == name]
    result = run_pipeline(case.surface_a, case.surface_b, case.config)
    saved = model_io.ModelFile(
        surfaces=[case.surface_a, case.surface_b],
        intersection=result.data,
        patch_sets=[model_io.encode_patch_set(result.model.set_a),
                    model_io.encode_patch_set(result.model.set_b)],
        reports=result.report,
    )
    path = tmp_path / "model.json"
    model_io.save_model(saved, str(path))
    loaded = model_io.load_model(str(path))
    fails, _ = checks.check_case(case, result, saved, loaded)
    assert fails == []

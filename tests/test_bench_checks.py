"""The benchmark's output checks pass on every case of each workload.

`perfbench/checks.py` checks every benchmark output against the analytic
circle and surfaces; `perfbench/run.py` refuses a run whose outputs fail
them.  This test loads `workloads.py` and `checks.py` from their files, runs
every case of each workload at seed 0 through `run_pipeline` and a
`model_io` save and load, and asserts that no check fails, that the patch
and control-point counts are the pinned ones and that the post-stitch gap is
exactly zero.  It only reads `perfbench/`.
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


# Patches per side and control points of both sides, at seed 0.
COUNTS = {
    ("dense-march", "level-circle"): (138, 4704),
    ("dense-march", "tilted-arc"): (233, 8065),
    ("tight-fit", "level-circle"): (94, 3456),
    ("tight-fit", "mirror"): (99, 4230),
    ("clip-reduce", "corner-clip"): (90, 1765),
    ("clip-reduce", "off-centre-arc"): (69, 1345),
}


@pytest.mark.parametrize("workload, name", sorted(COUNTS))
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
    sides = (result.model.set_a, result.model.set_b)
    patches, control_points = COUNTS[workload, name]
    assert [len(side.patches) for side in sides] == [patches, patches]
    assert sum(p.control_net.shape[0] * p.control_net.shape[1]
               for side in sides for p in side.patches) == control_points
    assert result.report["post_stitch_gap"]["max"] == 0.0

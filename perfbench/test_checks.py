"""Each output check passes a real output and rejects a perturbed one.

Run from the root of a checkout:

    python3 -m pytest -q perfbench/test_checks.py
"""

from __future__ import annotations

import copy
import dataclasses
import math
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from watertight.bezier import BezierSurface  # noqa: E402


@pytest.fixture(scope="module")
def outcome(tmp_path_factory):
    """The level circle of dense-march at a coarse step, run once."""
    case = workloads.build_cases("dense-march", 0)[0]
    case = dataclasses.replace(case, config=dataclasses.replace(case.config, march_step=0.05))
    path = tmp_path_factory.mktemp("models") / "model.json"
    result, saved, loaded = run.run_case(case, path)
    return Outcome(case, result, saved, loaded)


@dataclasses.dataclass
class Outcome:
    case: object
    result: object
    saved: object
    loaded: object


def _replace_patch(patch_set, index, net):
    patch_set.decomposition.patches[index] = BezierSurface(net)


def test_unperturbed_output_passes(outcome):
    fails, surface_error = checks.check_case(
        outcome.case, outcome.result, outcome.saved, outcome.loaded
    )
    assert fails == []
    assert 0.0 < surface_error < checks.BOUNDARY_SURFACE_TOL


def test_moved_edge_control_point_is_rejected(outcome):
    model = copy.deepcopy(outcome.result.model)
    triple = model.triples[len(model.triples) // 2]
    net = model.set_a.patches[triple.patch_a].control_net.copy()
    row = checks._edge_row(net, triple.edge_a)
    row[1, 2] += 1e-12  # a view into net
    _replace_patch(model.set_a, triple.patch_a, net)
    assert checks.check_stitch(outcome.case, model, outcome.result.report)


def test_dropped_patch_is_rejected(outcome):
    model = copy.deepcopy(outcome.result.model)
    patches = model.set_a.decomposition.patches
    areas = [checks.footprint_area([p.control_net]) for p in patches]
    patches.pop(int(np.argmax(areas)))
    assert checks.check_area(outcome.case, model, outcome.result.data)


def test_shifted_intersection_point_is_rejected(outcome):
    data = copy.deepcopy(outcome.result.data)
    data.points[len(data.points) // 2].position[2] += 1e-8
    assert checks.check_points(outcome.case, data)


def test_off_surface_patches_are_rejected(outcome):
    stitched = {t.patch_a for t in outcome.result.model.triples}
    interior = next(i for i in range(len(outcome.result.model.set_a.patches))
                    if i not in stitched)
    model = copy.deepcopy(outcome.result.model)
    net = model.set_a.patches[interior].control_net.copy()
    net[0, 0, 2] += 1e-10
    _replace_patch(model.set_a, interior, net)
    assert checks.check_surface(outcome.case, model)[0]

    model = copy.deepcopy(outcome.result.model)
    boundary = min(stitched)
    net = model.set_a.patches[boundary].control_net.copy()
    net[net.shape[0] // 2, net.shape[1] // 2, 2] += 1e-2
    _replace_patch(model.set_a, boundary, net)
    assert checks.check_surface(outcome.case, model)[0]


def test_round_trip_change_is_rejected(outcome):
    loaded = copy.deepcopy(outcome.loaded)
    record = loaded.patch_sets[0]["patches"][0]["control_points"]
    record[0][0][2] = float(np.nextafter(record[0][0][2], np.inf))
    assert checks.check_round_trip(outcome.case, outcome.saved, loaded)

    loaded = copy.deepcopy(outcome.loaded)
    point = loaded.intersection.points[0]
    point.params_a[0] = np.nextafter(point.params_a[0], np.inf)
    assert checks.check_round_trip(outcome.case, outcome.saved, loaded)


def _strip_area(cx, cy, r, n=400_000):
    """Midpoint-rule area of the disk inside the unit square."""
    xs = (np.arange(n) + 0.5) / n
    half = np.sqrt(np.clip(r * r - (xs - cx) ** 2, 0.0, None))
    top = np.minimum(cy + half, 1.0)
    bottom = np.maximum(cy - half, 0.0)
    return float(np.sum(np.clip(top - bottom, 0.0, None)) / n)


@pytest.mark.parametrize("circle", [
    (0.5, 0.5, 0.2),      # inside the square
    (0.65, 0.5, 0.44),    # crosses u = 1
    (0.75, 0.75, 0.65),   # covers the corner (1, 1)
    (0.8, 0.5, 0.58),     # crosses v = 0, v = 1 and u = 1
])
def test_disk_square_area(circle):
    cx, cy, r = circle
    exact = checks.disk_square_area(cx, cy, r)
    assert exact == pytest.approx(_strip_area(cx, cy, r), abs=1e-7)
    if r < min(cx, cy, 1 - cx, 1 - cy):
        assert exact == pytest.approx(math.pi * r * r, rel=1e-14)


def test_circle_of_the_workloads():
    for name in run.WORKLOADS:
        for case in workloads.build_cases(name, 7):
            cx, cy, r = case.circle
            t = np.linspace(0.0, 2.0 * math.pi, 17)
            x, y = cx + r * np.cos(t), cy + r * np.sin(t)
            assert np.allclose(case.quad_a.height(x, y), case.quad_b.height(x, y),
                               atol=1e-14)

"""Saving and loading a whole model through model_io."""

import copy
import json

import numpy as np
import pytest

from watertight import model_io
from watertight.bezier import BezierCurve, PiecewiseBezierCurve
from watertight.errors import ParseError
from watertight.intersect import (
    IntersectionData,
    IntersectionPoint,
    interpolate_domain_curve,
    interpolate_space_curve,
    lift_domain_curve,
)
from watertight.pipeline import PipelineConfig, run_pipeline
from watertight.shapes import paraboloid_patch, plane_patch


def assert_curves_equal(a, b):
    assert np.array_equal(a.breakpoints, b.breakpoints)
    assert np.array_equal(a.polygons, b.polygons)


def test_demo_model_round_trips_bit_for_bit(tmp_path):
    surfaces = [paraboloid_patch(), plane_patch(0.0, 0.0, 0.04)]
    result = run_pipeline(*surfaces, PipelineConfig(march_step=0.18))
    saved = model_io.ModelFile(
        surfaces=surfaces,
        intersection=result.data,
        patch_sets=[model_io.encode_patch_set(result.model.set_a),
                    model_io.encode_patch_set(result.model.set_b)],
        reports=result.report,
    )
    path = tmp_path / "demo.json"
    model_io.save_model(saved, str(path))
    loaded = model_io.load_model(str(path))
    # The lifted polylines are derived: the file stores only their count.
    stored = json.loads(path.read_text())["intersection"]
    assert not [key for key in stored if key.startswith("lifted")]
    assert stored["lift_samples"] == len(result.data.lifted_a)

    for a, b in zip(saved.surfaces, loaded.surfaces, strict=True):
        assert np.array_equal(a.control_net, b.control_net)
    for patch_set, record in zip((result.model.set_a, result.model.set_b), loaded.patch_sets,
                                 strict=True):
        nets = [p.control_net for p in patch_set.patches]
        back = [p.control_net for p in model_io.decode_patch_surfaces(record)]
        assert len(nets) > 0 and len(back) == len(nets)
        for a, b in zip(nets, back):
            assert np.array_equal(a, b)

    data, back = saved.intersection, loaded.intersection
    assert back.closed == data.closed
    assert len(back.points) == len(data.points) > 2
    for p, q in zip(data.points, back.points):
        for name in ("position", "params_a", "params_b", "residual_a", "residual_b"):
            assert np.array_equal(getattr(p, name), getattr(q, name))
    for name in ("curve_c", "domain_curve_a", "domain_curve_b"):
        assert_curves_equal(getattr(data, name), getattr(back, name))
    assert np.array_equal(data.lifted_a, back.lifted_a)
    assert np.array_equal(data.lifted_b, back.lifted_b)
    assert loaded.reports == saved.reports
    assert loaded.version == model_io.FORMAT_VERSION == "3"
    traps = [c for rec in loaded.patch_sets for c in rec["cells"] if c["kind"] == "trapezoid"]
    assert traps and all(c["s_axis"] in ("u", "v") and c["s_reversed"] in (True, False)
                         for c in traps)


def first_trapezoid(record):
    return next(c for c in record["cells"] if c["kind"] == "trapezoid")


def in_patch_set(edit):
    """An edit of the first patch set's record, as an edit of the whole file."""
    def edit_file(raw):
        return "patch_sets[0]." + edit(raw["patch_sets"][0])
    return edit_file


@in_patch_set
def set_kind(record):
    record["cells"][0]["kind"] = "hexagon"
    return "cells[0].kind"


def set_bounds(value):
    @in_patch_set
    def edit(record):
        record["cells"][0]["bounds"] = value
        return "cells[0].bounds"
    return edit


def set_trapezoid(field, value):
    @in_patch_set
    def edit(record):
        cell = first_trapezoid(record)
        cell[field] = value
        return f"cells[{record['cells'].index(cell)}].{field}"
    return edit


def set_boundary(field, value):
    @in_patch_set
    def edit(record):
        record["boundary"][0][field] = value(record) if callable(value) else value
        return f"boundary[0].{field}"
    return edit


def set_intersection(field, value):
    def edit(raw):
        raw["intersection"][field] = value
        return f"intersection.{field}"
    return edit


def set_point(field, value):
    def edit(raw):
        raw["intersection"]["points"][1][field] = value
        return f"intersection.points[1].{field}"
    return edit


def set_at(keys, value, field):
    """An edit that puts value at raw[keys[0]][keys[1]]...; the error names field."""
    def edit(raw):
        target = raw
        for key in keys[:-1]:
            target = target[key]
        target[keys[-1]] = value
        return field
    return edit


def map_points(curve, fn):
    """An edit that applies fn to every control point of an intersection curve."""
    def edit(raw):
        record = raw["intersection"][curve]
        record["segments"] = [[fn(point) for point in seg] for seg in record["segments"]]
        return f"intersection.{curve}"
    return edit


def shift_breakpoint(curve):
    """An edit that moves an intersection curve's second breakpoint halfway to its first."""
    def edit(raw):
        breaks = raw["intersection"][curve]["breakpoints"]
        breaks[1] = 0.5 * (breaks[0] + breaks[1])
        return f"intersection.{curve}"
    return edit


NET = ["surfaces", 0, "control_points"]
PATCH_NET = ["patch_sets", 0, "patches", 0, "control_points"]
CURVE_C = ["intersection", "curve_c"]


@pytest.fixture(scope="module")
def demo_record():
    surfaces = [paraboloid_patch(), plane_patch(0.0, 0.0, 0.04)]
    result = run_pipeline(*surfaces, PipelineConfig(march_step=0.18))
    model = model_io.ModelFile(
        surfaces=surfaces,
        intersection=result.data,
        patch_sets=[model_io.encode_patch_set(result.model.set_a)],
        reports=result.report,
    )
    return model_io.model_to_dict(model)


@pytest.mark.parametrize("edit", [
    set_kind,
    set_bounds("nonsense"),
    set_bounds([0.0, 1.0, 0.5]),
    set_bounds([0.0, 1.0, 0.0, float("inf")]),
    set_bounds([0.0, 1.0, True, 1.0]),
    set_bounds([0, 10**400, 0, 1]),
    set_bounds([0.6, 0.4, 0.0, 1.0]),
    set_bounds([0.0, 1.0, 0.0, 1.5]),
    set_bounds([-0.1, 0.5, 0.0, 1.0]),
    set_trapezoid("s_axis", "x"),
    set_trapezoid("s_reversed", "yes"),
    set_trapezoid("s_reversed", 1),
    set_boundary("edge", "diagonal"),
    set_boundary("patch", lambda record: len(record["patches"])),
    set_boundary("patch", -1),
    set_boundary("patch", True),
    set_point("residual_a", "nan"),
    set_point("residual_b", "-inf"),
    set_intersection("closed", "no"),
    set_point("residual_a", float("nan")),
    set_point("residual_b", -1e-12),
    set_point("residual_a", False),
    set_point("residual_b", 10**400),
    set_intersection("closed", 0),
    set_intersection("lift_samples", True),
    set_intersection("lift_samples", 1),
    set_intersection("lift_samples", 41.0),
    set_at(NET + [0, 0, 0], "0.25", "surfaces[0].control_points"),
    set_at(NET + [0, 1, 2], True, "surfaces[0].control_points"),
    set_at(PATCH_NET + [0, 0, 1], "0.25", "patch_sets[0].patches[0].control_points"),
    set_at(CURVE_C + ["segments", 0, 1, 0], True, "intersection.curve_c.segments[0]"),
    set_at(["intersection", "domain_curve_a", "breakpoints", 1], "0.25",
           "intersection.domain_curve_a.breakpoints"),
    set_at(CURVE_C + ["breakpoints", 1], True, "intersection.curve_c.breakpoints"),
    set_point("position", [0.5, 0.5]),
    set_point("params_a", [0.5, 0.5, 0.5]),
    set_at(CURVE_C + ["segments", 0, 1], [0.5, 0.5], "intersection.curve_c.segments[0]"),
    set_at(["surfaces"], 2, "surfaces"),
    set_intersection("points", 2),
    set_at(CURVE_C + ["segments"], 2, "intersection.curve_c.segments"),
    set_at(["patch_sets", 0, "patches"], 2, "patch_sets[0].patches"),
    set_trapezoid("w_span", "abc"),
    set_trapezoid("w_span", [0.5, 0.25]),
    set_trapezoid("boundary_fn", "abc"),
    set_trapezoid("boundary_fn", []),
    set_trapezoid("fit_residual", -1),
    set_at(["reports", "patches_a"], "many", "reports.patches_a"),
    set_at(["reports", "closed"], "yes", "reports.closed"),
    set_at(["reports", "stitch_deviation"], -1.0, "reports.stitch_deviation"),
    set_at(["reports", "post_stitch_gap", "max"], "0", "reports.post_stitch_gap.max"),
    map_points("domain_curve_a", lambda point: point[:1]),
    map_points("domain_curve_b", lambda point: point + [0.0]),
    map_points("curve_c", lambda point: point[:2]),
    shift_breakpoint("domain_curve_a"),
], ids=[
    "kind", "bounds-not-a-list", "bounds-three-numbers", "bounds-infinite", "bounds-bool",
    "bounds-huge-int", "bounds-u-reversed", "bounds-v-past-one", "bounds-u-below-zero",
    "s-axis", "s-reversed-str", "s-reversed-int", "edge", "patch-past-end", "patch-negative",
    "patch-bool", "residual-nan-str", "residual-minus-inf-str", "closed-str", "residual-nan",
    "residual-negative", "residual-bool", "residual-huge-int", "closed-int",
    "lift-samples-bool", "lift-samples-one", "lift-samples-float",
    "net-str", "net-bool", "patch-net-str", "segment-bool", "breakpoint-str",
    "breakpoint-bool", "position-two", "params-three", "segment-ragged",
    "surfaces-number", "points-number", "segments-number", "patches-number",
    "w-span-str", "w-span-reversed", "boundary-fn-str", "boundary-fn-empty",
    "fit-residual-negative", "report-count-str", "report-closed-str",
    "report-deviation-negative", "report-gap-str",
    "domain-curve-1d", "domain-curve-3d", "curve-c-2d", "domain-breakpoints-differ",
])
def test_invalid_patch_set_values_are_rejected(tmp_path, demo_record, edit):
    raw = copy.deepcopy(demo_record)
    field = edit(raw)
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(raw))
    with pytest.raises(ParseError) as err:
        model_io.load_model(str(path))
    assert err.value.path == field


def test_mixed_segment_sizes_are_rejected(tmp_path, demo_record):
    # A curve has one degree: a 3-point polygon among 4-point ones.
    raw = copy.deepcopy(demo_record)
    segments = raw["intersection"]["curve_c"]["segments"]
    assert len(segments[0]) == len(segments[1]) == 4
    segments[1] = [segments[1][0], segments[1][1], segments[1][3]]
    path = tmp_path / "mixed.json"
    path.write_text(json.dumps(raw))
    with pytest.raises(ParseError) as err:
        model_io.load_model(str(path))
    assert err.value.path == "intersection.curve_c.segments"


def test_piecewise_curves_build_no_segment_curves(tmp_path, monkeypatch):
    # Piecewise curves are stacked polygons: building, subdividing,
    # evaluating, interpolating, saving and loading them makes no
    # per-segment BezierCurve.
    builds = []
    original = BezierCurve.__post_init__

    def counting(self):
        builds.append(1)
        original(self)

    monkeypatch.setattr(BezierCurve, "__post_init__", counting)
    rng = np.random.default_rng(23)
    polygons = rng.uniform(0.0, 1.0, (300, 4, 2))
    polygons[1:, 0] = polygons[:-1, -1]
    curve = PiecewiseBezierCurve(polygons, np.linspace(0.0, 1.0, 301))
    split = curve.subdivide_at(rng.uniform(0.0, 1.0, 64))
    ws = np.linspace(0.0, 1.0, 1001)
    assert split.evaluate_many(ws).shape == split.derivative_many(ws).shape == (1001, 2)

    angles = np.linspace(0.0, 2.0 * np.pi, 200)
    params = 0.5 + 0.2 * np.stack([np.cos(angles), np.sin(angles)], axis=1)
    params[-1] = params[0]
    positions = np.hstack([params, np.full((200, 1), 0.04)])
    curve_c = interpolate_space_curve(positions)
    domain = interpolate_domain_curve(params, breakpoints=curve_c.breakpoints)
    surfaces = [paraboloid_patch(), plane_patch(0.0, 0.0, 0.04)]
    lifted = [lift_domain_curve(s, domain, 41) for s in surfaces]
    points = [IntersectionPoint(x, uv, uv, 0.0, 0.0) for x, uv in zip(positions, params)]
    data = IntersectionData(points, curve_c, domain, domain, *lifted, closed=True)
    path = tmp_path / "curves.json"
    model_io.save_model(model_io.ModelFile(surfaces=surfaces, intersection=data), str(path))
    back = model_io.load_model(str(path)).intersection
    assert not builds
    for name in ("curve_c", "domain_curve_a", "domain_curve_b"):
        assert_curves_equal(getattr(data, name), getattr(back, name))


def test_version_2_files_are_rejected(tmp_path, demo_record):
    # A version "2" file stored the lifted polylines in place of their count.
    raw = copy.deepcopy(demo_record)
    raw["version"] = "2"
    samples = raw["intersection"].pop("lift_samples")
    raw["intersection"]["lifted_a"] = raw["intersection"]["lifted_b"] = [[0.0, 0.0, 0.0]] * samples
    path = tmp_path / "old.json"
    path.write_text(json.dumps(raw))
    with pytest.raises(ParseError) as err:
        model_io.load_model(str(path))
    assert err.value.path == "version"


def test_unedited_demo_record_loads(tmp_path, demo_record):
    path = tmp_path / "demo.json"
    path.write_text(json.dumps(demo_record))
    assert len(model_io.load_model(str(path)).patch_sets) == 1

"""Saving and loading a whole model through model_io."""

import base64
import copy
import json
import math
import os

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

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


def blob_code(record):
    return "f8" if "f8" in record else "i8"


def blob_array(record):
    """A writable copy of the array a blob record holds."""
    code = blob_code(record)
    raw = base64.b64decode(record[code], validate=True)
    return np.frombuffer(raw, dtype="<" + code).reshape(record["shape"]).copy()


def blob(values, code="f8"):
    arr = np.asarray(values, dtype="<" + code)
    return {"shape": list(arr.shape), code: base64.b64encode(arr.tobytes()).decode("ascii")}


def number_lists(obj, path=""):
    """JSON paths of every list that holds a float, outside the reports."""
    if isinstance(obj, dict):
        return [p for key, value in obj.items() if key != "reports"
                for p in number_lists(value, f"{path}.{key}")]
    if isinstance(obj, list):
        if any(type(x) is float for x in obj):
            return [path]
        return [p for k, value in enumerate(obj) for p in number_lists(value, f"{path}[{k}]")]
    return []


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
    stored = json.loads(path.read_text())
    # The lifted polylines are derived: the file stores only their count.
    assert not [key for key in stored["intersection"] if key.startswith("lifted")]
    assert stored["intersection"]["lift_samples"] == len(result.data.lifted_a)
    # Nets, curves and columns are array blobs: no list of numbers is left.
    assert number_lists(stored) == []
    blobs = [stored["surfaces"]["nets"]] + [rec["nets"] for rec in stored["patch_sets"]] + [
        stored["intersection"][name][field]
        for name in ("curve_c", "domain_curve_a", "domain_curve_b")
        for field in ("breakpoints", "polygons")
    ]
    assert all(set(record) == {"shape", "f8"} for record in blobs)

    for a, b in zip(saved.surfaces, loaded.surfaces, strict=True):
        assert np.array_equal(a.control_net, b.control_net)
    assert loaded.patch_sets == saved.patch_sets
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
    assert loaded.version == model_io.FORMAT_VERSION == "4"
    traps = [c for rec in loaded.patch_sets for c in rec["cells"] if c["kind"] == "trapezoid"]
    assert traps and all(c["s_axis"] in ("u", "v") and c["s_reversed"] in (True, False)
                         for c in traps)


def walk(raw, keys):
    for key in keys:
        raw = raw[key]
    return raw


def set_at(keys, value, field):
    """An edit that puts value at raw[keys[0]][keys[1]]...; the error names field.
    A callable value is called with the whole file."""
    def edit(raw):
        walk(raw, keys[:-1])[keys[-1]] = value(raw) if callable(value) else value
        return field
    return edit


def edit_array(keys, fn, field):
    """An edit that replaces the blob at keys by one of fn(its array)."""
    def edit(raw):
        target = walk(raw, keys[:-1])
        record = target[keys[-1]]
        target[keys[-1]] = blob(fn(blob_array(record)), blob_code(record))
        return field
    return edit


def set_row(keys, index, value, field):
    """An edit that sets blob_array[index] = value; a callable value is
    called with the whole file."""
    def edit(raw):
        arr = blob_array(walk(raw, keys))
        arr[index] = value(raw) if callable(value) else value
        walk(raw, keys[:-1])[keys[-1]] = blob(arr, blob_code(walk(raw, keys)))
        return field
    return edit


def set_intersection(field, value):
    return set_at(["intersection", field], value, f"intersection.{field}")


PATCH_SET = ["patch_sets", 0]
CELLS = PATCH_SET + ["cells"]
BOUNDARY = PATCH_SET + ["boundary"]
POINTS = ["intersection", "points"]
CURVE_C = ["intersection", "curve_c"]
DOMAIN_A = ["intersection", "domain_curve_a"]
DOMAIN_B = ["intersection", "domain_curve_b"]


def field(keys):
    head, *rest = keys
    return head + "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in rest)


def set_bounds(row):
    return set_row(CELLS + ["bounds"], 0, row, field(CELLS + ["bounds"]))


def patch_count(raw):
    return raw["patch_sets"][0]["degrees"]["shape"][0]


def shift_breakpoint(raw):
    """Move domain curve a's second breakpoint halfway to its first."""
    breaks = blob_array(walk(raw, DOMAIN_A + ["breakpoints"]))
    breaks[1] = 0.5 * (breaks[0] + breaks[1])
    walk(raw, DOMAIN_A)["breakpoints"] = blob(breaks)
    return "intersection.domain_curve_a"


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
    set_at(CELLS + ["kind", 0], "hexagon", field(CELLS + ["kind"])),
    set_at(CELLS + ["bounds"], "nonsense", field(CELLS + ["bounds"])),
    edit_array(CELLS + ["bounds"], lambda a: a[:, :3], field(CELLS + ["bounds"])),
    set_row(CELLS + ["bounds"], (0, 3), math.inf, field(CELLS + ["bounds"])),
    set_at(CELLS + ["bounds", "f8"], True, field(CELLS + ["bounds"])),
    set_at(CELLS + ["bounds", "shape", 0], 10**400, field(CELLS + ["bounds"])),
    set_bounds([0.6, 0.4, 0.0, 1.0]),
    set_bounds([0.0, 1.0, 0.0, 1.5]),
    set_bounds([-0.1, 0.5, 0.0, 1.0]),
    set_at(CELLS + ["s_axis", 0], "x", field(CELLS + ["s_axis"])),
    set_at(CELLS + ["s_reversed", 0], "yes", field(CELLS + ["s_reversed"])),
    set_at(CELLS + ["s_reversed", 0], 1, field(CELLS + ["s_reversed"])),
    set_at(BOUNDARY + ["edge", 0], "diagonal", field(BOUNDARY + ["edge"])),
    set_row(BOUNDARY + ["patch"], 0, patch_count, field(BOUNDARY + ["patch"])),
    set_row(BOUNDARY + ["patch"], 0, -1, field(BOUNDARY + ["patch"])),
    set_at(BOUNDARY + ["patch", "i8"], True, field(BOUNDARY + ["patch"])),
    set_at(POINTS + ["residuals", "f8"], "nan", "intersection.points.residuals"),
    set_at(POINTS + ["residuals", "f8"], "-inf", "intersection.points.residuals"),
    set_intersection("closed", "no"),
    set_row(POINTS + ["residuals"], (1, 0), math.nan, "intersection.points.residuals"),
    set_row(POINTS + ["residuals"], (1, 1), -1e-12, "intersection.points.residuals"),
    set_at(POINTS + ["residuals"], False, "intersection.points.residuals"),
    set_at(POINTS + ["residuals", "shape", 0], 10**400, "intersection.points.residuals"),
    set_intersection("closed", 0),
    set_intersection("lift_samples", True),
    set_intersection("lift_samples", 1),
    set_intersection("lift_samples", 41.0),
    set_at(["surfaces", "nets", "f8"], "0.25", "surfaces.nets"),
    set_at(["surfaces", "nets", "f8"], True, "surfaces.nets"),
    set_at(PATCH_SET + ["nets", "f8"], "0.25", field(PATCH_SET + ["nets"])),
    set_at(CURVE_C + ["polygons"], True, "intersection.curve_c.polygons"),
    set_at(DOMAIN_A + ["breakpoints"], "0.25", "intersection.domain_curve_a.breakpoints"),
    set_at(CURVE_C + ["breakpoints", "f8"], True, "intersection.curve_c.breakpoints"),
    edit_array(POINTS + ["position"], lambda a: a[:, :2], "intersection.points.position"),
    edit_array(POINTS + ["params_a"], lambda a: np.hstack([a, a[:, :1]]),
               "intersection.points.params_a"),
    set_at(CURVE_C + ["polygons", "shape"], lambda raw: [
        math.prod(walk(raw, CURVE_C)["polygons"]["shape"][:2]), 3,
    ], "intersection.curve_c.polygons"),
    set_at(["surfaces"], 2, "surfaces"),
    set_intersection("points", 2),
    set_at(CURVE_C + ["polygons"], 2, "intersection.curve_c.polygons"),
    set_at(PATCH_SET + ["nets"], 2, field(PATCH_SET + ["nets"])),
    set_at(CELLS + ["w_span"], "abc", field(CELLS + ["w_span"])),
    set_row(CELLS + ["w_span"], 0, [0.5, 0.25], field(CELLS + ["w_span"])),
    set_at(CELLS + ["boundary_fn"], "abc", field(CELLS + ["boundary_fn"])),
    set_row(CELLS + ["boundary_fn_sizes"], 0, 0, field(CELLS + ["boundary_fn_sizes"])),
    set_row(CELLS + ["fit_residual"], 0, -1.0, field(CELLS + ["fit_residual"])),
    set_at(["reports", "patches_a"], "many", "reports.patches_a"),
    set_at(["reports", "closed"], "yes", "reports.closed"),
    set_at(["reports", "stitch_deviation"], -1.0, "reports.stitch_deviation"),
    set_at(["reports", "post_stitch_gap", "max"], "0", "reports.post_stitch_gap.max"),
    edit_array(DOMAIN_A + ["polygons"], lambda a: a[..., :1],
               "intersection.domain_curve_a.polygons"),
    edit_array(DOMAIN_B + ["polygons"], lambda a: np.concatenate([a, a[..., :1]], axis=-1),
               "intersection.domain_curve_b.polygons"),
    edit_array(CURVE_C + ["polygons"], lambda a: a[..., :2], "intersection.curve_c.polygons"),
    shift_breakpoint,
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
    # A curve has one degree: a 3-point polygon among 4-point ones leaves
    # the blob short of the bytes its shape declares.
    raw = copy.deepcopy(demo_record)
    record = raw["intersection"]["curve_c"]["polygons"]
    polygons = blob_array(record)
    assert polygons.shape[1] == 4
    mixed = [polygons[0], polygons[1][[0, 1, 3]], *polygons[2:]]
    data = b"".join(np.asarray(p, dtype="<f8").tobytes() for p in mixed)
    record["f8"] = base64.b64encode(data).decode("ascii")
    path = tmp_path / "mixed.json"
    path.write_text(json.dumps(raw))
    with pytest.raises(ParseError) as err:
        model_io.load_model(str(path))
    assert err.value.path == "intersection.curve_c.polygons"


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


def test_version_3_files_are_rejected(tmp_path, demo_record):
    # A version "3" file wrote every number as a JSON decimal: nets and
    # curve segments as nested lists.
    raw = copy.deepcopy(demo_record)
    raw["version"] = "3"
    nets = blob_array(raw["surfaces"]["nets"])
    raw["surfaces"] = [{"degree_u": 2, "degree_v": 2,
                        "control_points": nets[:9].reshape(3, 3, 3).tolist()}]
    curve = raw["intersection"]["curve_c"]
    curve["breakpoints"] = blob_array(curve["breakpoints"]).tolist()
    curve["segments"] = blob_array(curve.pop("polygons")).tolist()
    path = tmp_path / "old.json"
    path.write_text(json.dumps(raw))
    with pytest.raises(ParseError) as err:
        model_io.load_model(str(path))
    assert err.value.path == "version"


def test_unedited_demo_record_loads(tmp_path, demo_record):
    path = tmp_path / "demo.json"
    path.write_text(json.dumps(demo_record))
    assert len(model_io.load_model(str(path)).patch_sets) == 1


def test_saved_file_gets_the_mode_of_a_plain_file(tmp_path, demo_record):
    plain = tmp_path / "plain.json"
    with open(plain, "w") as handle:
        handle.write("{}")
    saved = tmp_path / "saved.json"
    model_io.save_model(model_io.ModelFile(surfaces=[paraboloid_patch()]), str(saved))
    assert os.stat(saved).st_mode == os.stat(plain).st_mode
    assert sorted(os.listdir(tmp_path)) == ["plain.json", "saved.json"]


def test_file_that_is_not_utf8_is_a_parse_error(tmp_path):
    path = tmp_path / "utf16.json"
    path.write_bytes(b"\xff\xfe" + '{"version": "4"}'.encode("utf-16-le"))
    with pytest.raises(ParseError) as err:
        model_io.load_model(str(path))
    assert err.value.path == ""


def test_deeply_nested_file_is_a_parse_error(tmp_path):
    path = tmp_path / "nested.json"
    path.write_text("[" * 200_000)
    with pytest.raises(ParseError) as err:
        model_io.load_model(str(path))
    assert err.value.path == ""


def blob_keys(raw, keys=()):
    """Key paths of every blob record in a file."""
    if isinstance(raw, dict):
        if "shape" in raw:
            return [keys]
        return [k for key, value in raw.items() for k in blob_keys(value, keys + (key,))]
    if isinstance(raw, list):
        return [k for i, value in enumerate(raw) for k in blob_keys(value, keys + (i,))]
    return []


def mutate(draw, raw):
    """Apply one drawn mutation to a format-4 file in place."""
    blobs = blob_keys(raw)
    kind = draw(st.sampled_from(["truncate", "non-base64", "shape", "non-finite",
                                 "wrong-type", "degrees", "boundary-patch", "cell-kind"]))
    if kind in ("truncate", "non-base64"):
        record = walk(raw, draw(st.sampled_from(
            [k for k in blobs if walk(raw, k)[blob_code(walk(raw, k))]])))
        text = record[blob_code(record)]
        cut = draw(st.integers(0, len(text) - 1))
        if kind == "truncate":
            record[blob_code(record)] = text[:cut]
        else:
            extra = draw(st.sampled_from("!*.-_ :\n\x00é="))
            record[blob_code(record)] = text[:cut] + extra + text[cut:]
    elif kind == "shape":
        shape = walk(raw, draw(st.sampled_from(blobs)))["shape"]
        axis = draw(st.integers(0, len(shape) - 1))
        old = math.prod(shape)
        shape[axis] = draw(st.integers(0, 10**6) | st.integers(10**18, 10**30))
        assume(math.prod(shape) != old)
    elif kind == "non-finite":
        keys = draw(st.sampled_from([k for k in blobs if "f8" in walk(raw, k)]))
        arr = blob_array(walk(raw, keys))
        arr.reshape(-1)[draw(st.integers(0, arr.size - 1))] = draw(
            st.sampled_from([math.nan, math.inf, -math.inf]))
        walk(raw, keys[:-1])[keys[-1]] = blob(arr)
    elif kind == "wrong-type":
        keys = draw(st.sampled_from(blobs))
        walk(raw, keys[:-1])[keys[-1]] = draw(
            st.lists(st.floats(allow_nan=False), max_size=4) | st.text(max_size=8) | st.booleans())
    elif kind == "degrees":
        keys = draw(st.sampled_from([("surfaces", "degrees"), ("patch_sets", 0, "degrees")]))
        arr = blob_array(walk(raw, keys))
        index = (draw(st.integers(0, len(arr) - 1)), draw(st.integers(0, 1)))
        arr[index] += draw(st.integers(-3, 3).filter(bool))
        walk(raw, keys[:-1])[keys[-1]] = blob(arr, "i8")
    elif kind == "boundary-patch":
        record = raw["patch_sets"][0]["boundary"]
        arr = blob_array(record["patch"])
        arr[draw(st.integers(0, len(arr) - 1))] = draw(
            st.integers(-2**63, -1) | st.integers(patch_count(raw), 2**63 - 1))
        record["patch"] = blob(arr, "i8")
    else:
        kinds = raw["patch_sets"][0]["cells"]["kind"]
        kinds[draw(st.integers(0, len(kinds) - 1))] = draw(
            st.text(max_size=12).filter(lambda s: s not in ("rectangle", "trapezoid"))
            | st.integers() | st.none())


@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_mutated_files_raise_parse_error_with_a_path(tmp_path, demo_record, data):
    raw = copy.deepcopy(demo_record)
    mutate(data.draw, raw)
    path = tmp_path / "mutated.json"
    path.write_text(json.dumps(raw))
    with pytest.raises(ParseError) as err:
        model_io.load_model(str(path))
    assert err.value.path

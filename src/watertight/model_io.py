"""Versioned text model format, version "3".

JSON with a strict schema; any violation raises ParseError naming its path.
Unknown fields are rejected, lists must be lists and numbers finite JSON
numbers (not strings or bools) in arrays that are not ragged, dimensions
are cross-checked against declared degrees and curve dimensions (domain
curves lie on the space curve's breakpoints), and the values of cells,
boundary records, intersection points and reports are checked.  Numbers
round-trip bitwise (shortest round-trippable decimals via repr).  Writes
are atomic (temp file plus rename).

The file holds only what cannot be recomputed exactly.  An intersection
record stores the sample count of its lifted polylines, not the polylines:
loading lifts each domain curve through its surface (the model's first two
surfaces) with `intersect.lift_domain_curve`, which is deterministic, so the
loaded `lifted_a` / `lifted_b` equal the saved ones bit for bit when they
were lifted the same way.  Version "2" files, which stored the polylines,
are rejected.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .bezier import BezierCurve, BezierSurface, Edge, PiecewiseBezierCurve
from .errors import ParseError
from .intersect import IntersectionData, IntersectionPoint, lift_domain_curve
from .segmentation import RECTANGLE, TRAPEZOID

FORMAT_VERSION = "3"

_GAP_KEYS = {"max", "rms", "max_gap", "rms_gap", "sample_count", "worst_point", "flagged"}
_GAP_REPORTS = {"pre_stitch_gap_a", "pre_stitch_gap_b", "post_stitch_gap"}
_REPORT_COUNTS = {"intersection_points", "patches_a", "patches_b", "boundary_pairs",
                  "sample_count", "flagged"}
_REPORT_KEYS = _GAP_REPORTS | {"intersection_points", "closed", "patches_a", "patches_b",
                               "boundary_pairs", "stitch_deviation"}


@dataclass(eq=False)
class ModelFile:
    surfaces: list
    version: str = FORMAT_VERSION
    intersection: IntersectionData | None = None
    patch_sets: list | None = None
    reports: dict | None = None


# ---------------------------------------------------------------------------
# Encoding
# ---------------------------------------------------------------------------

def _encode_surface(surface: BezierSurface) -> dict:
    return {
        "degree_u": surface.degree_u,
        "degree_v": surface.degree_v,
        "control_points": surface.control_net.tolist(),
    }


def _encode_curve(curve: PiecewiseBezierCurve) -> dict:
    return {
        "breakpoints": curve.breakpoints.tolist(),
        "segments": [seg.control_points.tolist() for seg in curve.segments],
    }


def _encode_intersection(data: IntersectionData) -> dict:
    return {
        "closed": bool(data.closed),
        "points": [
            {
                "position": p.position.tolist(),
                "params_a": p.params_a.tolist(),
                "params_b": p.params_b.tolist(),
                "residual_a": float(p.residual_a),
                "residual_b": float(p.residual_b),
            }
            for p in data.points
        ],
        "curve_c": _encode_curve(data.curve_c),
        "domain_curve_a": _encode_curve(data.domain_curve_a),
        "domain_curve_b": _encode_curve(data.domain_curve_b),
        "lift_samples": len(data.lifted_a),
    }


def encode_patch_set(patch_set) -> dict:
    """Serializable record of a stitched or unstitched PatchSet."""
    dec = patch_set.decomposition
    cells = []
    for cell in dec.cells:
        record = {
            "kind": cell.kind,
            "bounds": [float(x) for x in cell.bounds],
        }
        if cell.w_span is not None:
            record["w_span"] = [float(w) for w in cell.w_span]
        if cell.case is not None:
            record["s_axis"] = "uv"[cell.case.s_axis]
            record["s_reversed"] = cell.case.s_reversed
        if cell.boundary_fn is not None:
            record["boundary_fn"] = cell.boundary_fn.coefficients.tolist()
            record["fit_residual"] = float(cell.fit_residual)
        cells.append(record)
    boundary = [
        {"patch": int(i), "edge": dec.curved_edges[i].value}
        for i in dec.boundary_indices
    ]
    return {
        "patches": [_encode_surface(p) for p in dec.patches],
        "cells": cells,
        "boundary": boundary,
    }


def model_to_dict(model: ModelFile) -> dict:
    out = {
        "version": model.version,
        "surfaces": [_encode_surface(s) for s in model.surfaces],
    }
    if model.intersection is not None:
        out["intersection"] = _encode_intersection(model.intersection)
    if model.patch_sets is not None:
        out["patch_sets"] = model.patch_sets
    if model.reports is not None:
        out["reports"] = model.reports
    return out


def save_model(model: ModelFile, path: str) -> None:
    payload = json.dumps(model_to_dict(model))
    _atomic_write(path, payload + "\n")


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# ---------------------------------------------------------------------------
# Decoding and validation
# ---------------------------------------------------------------------------

def _require(ok, path: str, message: str, *args) -> None:
    """Raise ParseError at `path` unless `ok`, only then formatting `message`."""
    if not ok:
        raise ParseError(message.format(*args), path)


def _check_keys(obj: dict, allowed: set, required: set, path: str) -> None:
    _require(isinstance(obj, dict), path, "expected an object")
    for key in obj:
        if key not in allowed:
            raise ParseError(f"unknown field '{key}'", f"{path}.{key}" if path else key)
    for key in required:
        if key not in obj:
            raise ParseError(f"missing field '{key}'", path)


def _list(value, path: str) -> list:
    _require(isinstance(value, list), path, "expected a list")
    return value


def _number_grid(values, path: str, depth: int) -> np.ndarray:
    """A `depth`-level nested list of JSON numbers (ints or floats, not bools
    or strings), not ragged and not empty, as a finite float array: built
    from the leaves, flattened level by level, and reshaped."""
    message = "expected a finite, non-empty {}-level number array"
    shape, level = [], [values]
    for _ in range(depth):
        sizes = set(map(len, level)) if set(map(type, level)) <= {list} else set()
        _require(len(sizes) == 1 and 0 not in sizes, path, message, depth)
        shape += sizes
        level = list(chain.from_iterable(level))
    _require(set(map(type, level)) <= {int, float}, path, message, depth)
    try:
        arr = np.array(level, dtype=float)
    except OverflowError:  # an integer beyond the float range
        raise ParseError(message.format(depth), path)
    _require(np.isfinite(arr).all(), path, message, depth)
    return arr.reshape(shape)


def _finite_number(value) -> bool:
    """A JSON number, not a bool, that converts to a finite float."""
    try:
        return type(value) in (int, float) and math.isfinite(value)
    except OverflowError:  # an integer beyond the float range
        return False


def _numbers(values, size: int, path: str) -> list:
    """A list of `size` finite JSON numbers, checked one by one: the short
    lists of points, cells and reports are too many for `_number_grid`."""
    _require(type(values) is list and len(values) == size and all(map(_finite_number, values)),
             path, "expected {} finite numbers", size)
    return values


def _non_negative(value, path: str) -> float:
    _require(_finite_number(value) and value >= 0, path,
             "{!r} is not a finite non-negative number", value)
    return float(value)


def _count(value) -> bool:
    return type(value) is int and value >= 0


def _surface_net(obj: dict, path: str) -> np.ndarray:
    """The checked control net of a surface record."""
    keys = {"degree_u", "degree_v", "control_points"}
    _check_keys(obj, keys, keys, path)
    du, dv = obj["degree_u"], obj["degree_v"]
    _require(_count(du) and _count(dv), path, "degrees must be non-negative integers")
    net = _number_grid(obj["control_points"], f"{path}.control_points", 3)
    _require(net.shape == (du + 1, dv + 1, 3), f"{path}.control_points",
             "control point grid {} does not match degrees ({}, {})", net.shape, du, dv)
    return net


def _decode_curve(obj: dict, path: str, dim: int, breakpoints=None) -> PiecewiseBezierCurve:
    """A piecewise curve of `dim`-coordinate points, on `breakpoints` if given."""
    _check_keys(obj, {"breakpoints", "segments"}, {"breakpoints", "segments"}, path)
    breaks = _number_grid(obj["breakpoints"], f"{path}.breakpoints", 1)
    segments = [
        BezierCurve(_number_grid(seg, f"{path}.segments[{k}]", 2))
        for k, seg in enumerate(_list(obj["segments"], f"{path}.segments"))
    ]
    try:
        curve = PiecewiseBezierCurve(segments, breaks)
    except ValueError as err:
        raise ParseError(str(err), path)
    _require(curve.dim == dim, path, "points have {} coordinates, not {}", curve.dim, dim)
    _require(breakpoints is None or np.array_equal(curve.breakpoints, breakpoints), path,
             "breakpoints differ from the space curve's")
    return curve


def _decode_intersection(obj: dict, path: str, surfaces: list) -> IntersectionData:
    keys = {"closed", "points", "curve_c", "domain_curve_a", "domain_curve_b", "lift_samples"}
    _check_keys(obj, keys, keys, path)
    _require(isinstance(obj["closed"], bool), f"{path}.closed", "closed must be true or false")
    samples = obj["lift_samples"]
    _require(_count(samples) and samples >= 2, f"{path}.lift_samples",
             "lift_samples {!r} is not an integer of at least 2", samples)
    _require(len(surfaces) >= 2, "surfaces", "an intersection needs the two surfaces it lifts onto")
    points = []
    for k, rec in enumerate(_list(obj["points"], f"{path}.points")):
        ppath = f"{path}.points[{k}]"
        fields = {"position", "params_a", "params_b", "residual_a", "residual_b"}
        _check_keys(rec, fields, fields, ppath)
        points.append(
            IntersectionPoint(
                position=_numbers(rec["position"], 3, f"{ppath}.position"),
                params_a=_numbers(rec["params_a"], 2, f"{ppath}.params_a"),
                params_b=_numbers(rec["params_b"], 2, f"{ppath}.params_b"),
                residual_a=_non_negative(rec["residual_a"], f"{ppath}.residual_a"),
                residual_b=_non_negative(rec["residual_b"], f"{ppath}.residual_b"),
            )
        )
    curve_c = _decode_curve(obj["curve_c"], f"{path}.curve_c", 3)
    domain_a, domain_b = (_decode_curve(obj[name], f"{path}.{name}", 2, curve_c.breakpoints)
                          for name in ("domain_curve_a", "domain_curve_b"))
    return IntersectionData(
        points=points,
        curve_c=curve_c,
        domain_curve_a=domain_a,
        domain_curve_b=domain_b,
        lifted_a=lift_domain_curve(surfaces[0], domain_a, samples),
        lifted_b=lift_domain_curve(surfaces[1], domain_b, samples),
        closed=obj["closed"],
    )


def _validate_cell(rec: dict, path: str) -> None:
    keys = {"kind", "bounds", "w_span", "s_axis", "s_reversed", "boundary_fn", "fit_residual"}
    _check_keys(rec, keys, {"kind", "bounds"}, path)
    _require(rec["kind"] in (RECTANGLE, TRAPEZOID), f"{path}.kind",
             "cell kind {!r} is not one of {!r}, {!r}", rec["kind"], RECTANGLE, TRAPEZOID)
    u0, u1, v0, v1 = _numbers(rec["bounds"], 4, f"{path}.bounds")
    _require(0.0 <= u0 < u1 <= 1.0 and 0.0 <= v0 < v1 <= 1.0, f"{path}.bounds",
             "bounds {} do not span a box in [0, 1]^2", rec["bounds"])
    if "w_span" in rec:
        w0, w1 = _numbers(rec["w_span"], 2, f"{path}.w_span")
        _require(0.0 <= w0 < w1 <= 1.0, f"{path}.w_span",
                 "w_span {} is not an interval of [0, 1]", rec["w_span"])
    _require(rec.get("s_axis", "u") in ("u", "v"), f"{path}.s_axis",
             "s_axis {!r} is not 'u' or 'v'", rec.get("s_axis"))
    _require(isinstance(rec.get("s_reversed", False), bool), f"{path}.s_reversed",
             "s_reversed must be true or false")
    fn = rec.get("boundary_fn", [0.0])
    _require(type(fn) is list and fn and all(map(_finite_number, fn)), f"{path}.boundary_fn",
             "boundary_fn must be a non-empty list of finite numbers")
    if "fit_residual" in rec:
        _non_negative(rec["fit_residual"], f"{path}.fit_residual")


def _validate_patch_set(obj: dict, path: str) -> dict:
    _check_keys(obj, {"patches", "cells", "boundary"}, {"patches", "cells"}, path)
    patches = _list(obj["patches"], f"{path}.patches")
    for k, rec in enumerate(patches):
        _surface_net(rec, f"{path}.patches[{k}]")
    for k, rec in enumerate(_list(obj["cells"], f"{path}.cells")):
        _validate_cell(rec, f"{path}.cells[{k}]")
    edges = [edge.value for edge in Edge]
    for k, rec in enumerate(_list(obj.get("boundary", []), f"{path}.boundary")):
        rpath = f"{path}.boundary[{k}]"
        _check_keys(rec, {"patch", "edge"}, {"patch", "edge"}, rpath)
        _require(_count(rec["patch"]) and rec["patch"] < len(patches), f"{rpath}.patch",
                 "patch index {!r} is not one of the {} patches", rec["patch"], len(patches))
        _require(rec["edge"] in edges, f"{rpath}.edge", "edge {!r} is not one of {}",
                 rec["edge"], edges)
    return obj


def _validate_reports(obj: dict, path: str, keys=_REPORT_KEYS) -> dict:
    """A report or gap record: bools, points, counts, non-negative numbers."""
    _check_keys(obj, keys, set(), path)
    for key, value in obj.items():
        kpath = f"{path}.{key}"
        if key in _GAP_REPORTS:
            _validate_reports(value, kpath, _GAP_KEYS)
        elif key == "closed":
            _require(isinstance(value, bool), kpath, "closed must be true or false")
        elif key == "worst_point":
            _numbers(value, 3, kpath)
        elif key in _REPORT_COUNTS:
            _require(_count(value), kpath, "{} {!r} is not a non-negative integer", key, value)
        else:
            _non_negative(value, kpath)
    return obj


def load_model(path: str) -> ModelFile:
    try:
        with open(path) as handle:
            raw = json.load(handle)
    except json.JSONDecodeError as err:
        raise ParseError(f"invalid JSON at line {err.lineno}: {err.msg}", path)
    top_keys = {"version", "surfaces", "intersection", "patch_sets", "reports"}
    _check_keys(raw, top_keys, {"version", "surfaces"}, "")
    _require(raw["version"] == FORMAT_VERSION, "version",
             "unsupported format version {!r}", raw["version"])
    surfaces = [
        BezierSurface(_surface_net(rec, f"surfaces[{k}]"))
        for k, rec in enumerate(_list(raw["surfaces"], "surfaces"))
    ]
    intersection = None
    if "intersection" in raw:
        intersection = _decode_intersection(raw["intersection"], "intersection", surfaces)
    patch_sets = None
    if "patch_sets" in raw:
        patch_sets = [
            _validate_patch_set(rec, f"patch_sets[{k}]")
            for k, rec in enumerate(_list(raw["patch_sets"], "patch_sets"))
        ]
    reports = None
    if "reports" in raw:
        reports = _validate_reports(raw["reports"], "reports")
    return ModelFile(
        surfaces=surfaces,
        version=raw["version"],
        intersection=intersection,
        patch_sets=patch_sets,
        reports=reports,
    )


def decode_patch_surfaces(patch_set_record: dict) -> list:
    """BezierSurface patches stored in a patch_sets record."""
    return [
        BezierSurface(_surface_net(rec, f"patches[{k}]"))
        for k, rec in enumerate(_list(patch_set_record["patches"], "patches"))
    ]

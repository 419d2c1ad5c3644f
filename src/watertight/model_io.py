"""Versioned text model format, version "3".

JSON with a strict schema: unknown fields are rejected with the offending
path, dimensions are cross-checked against declared degrees, the values of
cell and boundary records are checked (cell kind, bounds inside the unit
square, orientation, edge name, patch index), the intersection's scalars are
checked (residuals finite and non-negative, `closed` a bool, `lift_samples`
an int of at least 2), and numbers round-trip bitwise (shortest
round-trippable decimals via repr).  Writes are atomic (temp file plus
rename).

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
from dataclasses import dataclass, field

import numpy as np

from .bezier import BezierCurve, BezierSurface, Edge, PiecewiseBezierCurve
from .errors import ParseError
from .intersect import IntersectionData, IntersectionPoint, lift_domain_curve
from .segmentation import RECTANGLE, TRAPEZOID

FORMAT_VERSION = "3"

_GAP_KEYS = {"max_gap", "rms_gap", "sample_count", "worst_point", "flagged"}
_REPORT_KEYS = {
    "intersection_points",
    "closed",
    "patches_a",
    "patches_b",
    "boundary_pairs",
    "pre_stitch_gap_a",
    "pre_stitch_gap_b",
    "post_stitch_gap",
    "stitch_deviation",
}


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

def _check_keys(obj: dict, allowed: set, required: set, path: str) -> None:
    if not isinstance(obj, dict):
        raise ParseError("expected an object", path)
    for key in obj:
        if key not in allowed:
            raise ParseError(f"unknown field '{key}'", f"{path}.{key}" if path else key)
    for key in required:
        if key not in obj:
            raise ParseError(f"missing field '{key}'", path)


def _number_grid(values, path: str, depth: int):
    arr = np.asarray(values, dtype=float)
    if arr.ndim != depth or not np.all(np.isfinite(arr)):
        raise ParseError(f"expected a finite {depth}-level number array", path)
    return arr


def _decode_surface(obj: dict, path: str) -> BezierSurface:
    _check_keys(obj, {"degree_u", "degree_v", "control_points"},
                {"degree_u", "degree_v", "control_points"}, path)
    du, dv = obj["degree_u"], obj["degree_v"]
    if not (isinstance(du, int) and isinstance(dv, int) and du >= 0 and dv >= 0):
        raise ParseError("degrees must be non-negative integers", path)
    try:
        net = _number_grid(obj["control_points"], f"{path}.control_points", 3)
    except ValueError:
        raise ParseError("ragged control point grid", f"{path}.control_points")
    if net.shape != (du + 1, dv + 1, 3):
        raise ParseError(
            f"control point grid {net.shape} does not match degrees ({du}, {dv})",
            f"{path}.control_points",
        )
    return BezierSurface(net)


def _decode_curve(obj: dict, path: str) -> PiecewiseBezierCurve:
    _check_keys(obj, {"breakpoints", "segments"}, {"breakpoints", "segments"}, path)
    breaks = _number_grid(obj["breakpoints"], f"{path}.breakpoints", 1)
    segments = []
    for k, seg in enumerate(obj["segments"]):
        pts = _number_grid(seg, f"{path}.segments[{k}]", 2)
        segments.append(BezierCurve(pts))
    try:
        return PiecewiseBezierCurve(segments, breaks)
    except ValueError as err:
        raise ParseError(str(err), path)


def _finite_number(value) -> bool:
    """A JSON number, not a bool, that converts to a finite float."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an integer beyond the float range
        return False


def _residual(value, path: str) -> float:
    if not (_finite_number(value) and value >= 0):
        raise ParseError(f"residual {value!r} is not a finite non-negative number", path)
    return float(value)


def _decode_intersection(obj: dict, path: str, surfaces: list) -> IntersectionData:
    keys = {
        "closed", "points", "curve_c", "domain_curve_a", "domain_curve_b", "lift_samples",
    }
    _check_keys(obj, keys, keys, path)
    if not isinstance(obj["closed"], bool):
        raise ParseError("closed must be true or false", f"{path}.closed")
    samples = obj["lift_samples"]
    if not (isinstance(samples, int) and not isinstance(samples, bool) and samples >= 2):
        raise ParseError(f"lift_samples {samples!r} is not an integer of at least 2",
                         f"{path}.lift_samples")
    if len(surfaces) < 2:
        raise ParseError("an intersection needs the two surfaces it lifts onto", "surfaces")
    points = []
    for k, rec in enumerate(obj["points"]):
        ppath = f"{path}.points[{k}]"
        fields = {"position", "params_a", "params_b", "residual_a", "residual_b"}
        _check_keys(rec, fields, fields, ppath)
        points.append(
            IntersectionPoint(
                position=_number_grid(rec["position"], f"{ppath}.position", 1),
                params_a=_number_grid(rec["params_a"], f"{ppath}.params_a", 1),
                params_b=_number_grid(rec["params_b"], f"{ppath}.params_b", 1),
                residual_a=_residual(rec["residual_a"], f"{ppath}.residual_a"),
                residual_b=_residual(rec["residual_b"], f"{ppath}.residual_b"),
            )
        )
    domain_a = _decode_curve(obj["domain_curve_a"], f"{path}.domain_curve_a")
    domain_b = _decode_curve(obj["domain_curve_b"], f"{path}.domain_curve_b")
    return IntersectionData(
        points=points,
        curve_c=_decode_curve(obj["curve_c"], f"{path}.curve_c"),
        domain_curve_a=domain_a,
        domain_curve_b=domain_b,
        lifted_a=lift_domain_curve(surfaces[0], domain_a, samples),
        lifted_b=lift_domain_curve(surfaces[1], domain_b, samples),
        closed=obj["closed"],
    )


def _validate_cell(rec: dict, path: str) -> None:
    keys = {"kind", "bounds", "w_span", "s_axis", "s_reversed", "boundary_fn", "fit_residual"}
    _check_keys(rec, keys, {"kind", "bounds"}, path)
    if rec["kind"] not in (RECTANGLE, TRAPEZOID):
        raise ParseError(f"cell kind {rec['kind']!r} is not one of {RECTANGLE!r}, {TRAPEZOID!r}",
                         f"{path}.kind")
    bounds = rec["bounds"]
    if not (isinstance(bounds, list) and len(bounds) == 4
            and all(_finite_number(x) for x in bounds)):
        raise ParseError("bounds must be 4 finite numbers", f"{path}.bounds")
    u0, u1, v0, v1 = bounds
    if not (0.0 <= u0 < u1 <= 1.0 and 0.0 <= v0 < v1 <= 1.0):
        raise ParseError(f"bounds {bounds} do not span a box in [0, 1]^2", f"{path}.bounds")
    if "s_axis" in rec and rec["s_axis"] not in ("u", "v"):
        raise ParseError(f"s_axis {rec['s_axis']!r} is not 'u' or 'v'", f"{path}.s_axis")
    if "s_reversed" in rec and not isinstance(rec["s_reversed"], bool):
        raise ParseError("s_reversed must be true or false", f"{path}.s_reversed")


def _validate_patch_set(obj: dict, path: str) -> dict:
    _check_keys(obj, {"patches", "cells", "boundary"}, {"patches", "cells"}, path)
    for k, rec in enumerate(obj["patches"]):
        _decode_surface(rec, f"{path}.patches[{k}]")
    for k, rec in enumerate(obj.get("cells", [])):
        _validate_cell(rec, f"{path}.cells[{k}]")
    edges = [edge.value for edge in Edge]
    for k, rec in enumerate(obj.get("boundary", [])):
        rpath = f"{path}.boundary[{k}]"
        _check_keys(rec, {"patch", "edge"}, {"patch", "edge"}, rpath)
        patch = rec["patch"]
        if not (isinstance(patch, int) and not isinstance(patch, bool)
                and 0 <= patch < len(obj["patches"])):
            raise ParseError(f"patch index {patch!r} is not one of the "
                             f"{len(obj['patches'])} patches", f"{rpath}.patch")
        if rec["edge"] not in edges:
            raise ParseError(f"edge {rec['edge']!r} is not one of {edges}", f"{rpath}.edge")
    return obj


def _validate_reports(obj: dict, path: str) -> dict:
    _check_keys(obj, _REPORT_KEYS, set(), path)
    for key in ("pre_stitch_gap_a", "pre_stitch_gap_b", "post_stitch_gap"):
        if key in obj:
            _check_keys(obj[key], _GAP_KEYS | {"max", "rms"}, set(), f"{path}.{key}")
    return obj


def load_model(path: str) -> ModelFile:
    try:
        with open(path) as handle:
            raw = json.load(handle)
    except json.JSONDecodeError as err:
        raise ParseError(f"invalid JSON at line {err.lineno}: {err.msg}", path)
    top_keys = {"version", "surfaces", "intersection", "patch_sets", "reports"}
    _check_keys(raw, top_keys, {"version", "surfaces"}, "")
    if raw["version"] != FORMAT_VERSION:
        raise ParseError(f"unsupported format version {raw['version']!r}", "version")
    surfaces = [
        _decode_surface(rec, f"surfaces[{k}]") for k, rec in enumerate(raw["surfaces"])
    ]
    intersection = None
    if "intersection" in raw:
        intersection = _decode_intersection(raw["intersection"], "intersection", surfaces)
    patch_sets = None
    if "patch_sets" in raw:
        patch_sets = [
            _validate_patch_set(rec, f"patch_sets[{k}]")
            for k, rec in enumerate(raw["patch_sets"])
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
        _decode_surface(rec, f"patches[{k}]")
        for k, rec in enumerate(patch_set_record["patches"])
    ]

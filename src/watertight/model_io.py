"""Versioned model file, format "4": JSON whose numbers travel in array blobs.

Every float array is one blob record ``{"shape": [...], "f8": <base64>}``,
the little-endian float64 bytes of the array.  It is written straight from
numpy and read back with one ``np.frombuffer``, so numbers round-trip bit
for bit with no decimal text in between.  Integer arrays (degrees, patch
indices, coefficient counts) are blobs of little-endian int64 under ``"i8"``.

The layout:

- ``surfaces`` and each patch set hold all their nets in two blobs: a
  (P, 2) ``degrees`` array and an (N, 3) ``nets`` array of every control
  point, patch after patch in row-major order, with N the sum of
  (degree_u + 1)(degree_v + 1).
- A piecewise curve is its ``breakpoints`` (S+1,) and its stacked control
  ``polygons`` (S, degree+1, dim).
- The intersection points are columns: ``position`` (n, 3), ``params_a``
  and ``params_b`` (n, 2) and ``residuals`` (n, 2).
- A patch set's cells are columns too.  ``kind`` is a list of names and
  ``bounds`` a (C, 4) blob.  The optional fields come in three groups:
  ``w_span``; ``s_axis`` with ``s_reversed``; ``boundary_fn`` with
  ``fit_residual``.  Each group has a list of booleans (``has_w_span``,
  ``has_case``, ``has_fit``) naming the cells that hold it, and one row per
  such cell in its columns.  The boundary polynomials are one flat
  coefficient blob plus a ``boundary_fn_sizes`` blob.  A patch set's
  ``boundary`` holds a ``patch`` index blob and a list of ``edge`` names.
- ``reports`` stays plain JSON.

Loading checks each array once with numpy: the blob's text, byte count and
shape; the shape against the declared degrees, counts and dimensions; every
float finite; and the interval, sign and index-range rules of its field.
Name columns are checked against their allowed names in one set test.  Any
violation raises ParseError naming its JSON path; a rule on values names
the first row that breaks it.  A file that is not UTF-8 JSON, or nests too
deeply to parse, raises ParseError at path "".

In memory a patch set is the record `encode_patch_set` returns: patches
with nested-list control points, and cells and boundary pairs as one dict
each.  `load_model` gives back records equal to the saved ones.

The file holds only what cannot be recomputed exactly.  An intersection
record stores the sample count of its lifted polylines, not the polylines:
loading lifts each domain curve through its surface (the model's first two
surfaces) with `intersect.lift_domain_curve`, which is deterministic, so the
loaded `lifted_a` / `lifted_b` equal the saved ones bit for bit when they
were lifted the same way.  Files of formats "2" and "3", which wrote every
number as a JSON decimal, are rejected.

Writes are atomic (temp file plus rename).  The file gets the mode a plain
``open(path, "w")`` would give it: 0o666 less the umask.
"""

from __future__ import annotations

import binascii
import json
import math
import os
from dataclasses import dataclass
from itertools import chain, compress

import numpy as np

from .bezier import BezierSurface, Edge, PiecewiseBezierCurve
from .errors import ParseError
from .intersect import IntersectionData, IntersectionPoint, lift_domain_curve
from .segmentation import RECTANGLE, TRAPEZOID

FORMAT_VERSION = "4"

_DTYPES = {"f8": np.dtype("<f8"), "i8": np.dtype("<i8")}
_KINDS = (RECTANGLE, TRAPEZOID)
_AXES = ("u", "v")
_EDGES = tuple(edge.value for edge in Edge)
_FLAGS = (False, True)

_POINT_COLUMNS = {"position": 3, "params_a": 2, "params_b": 2, "residuals": 2}
_CELL_COLUMNS = {"kind", "bounds", "has_w_span", "w_span", "has_case", "s_axis", "s_reversed",
                 "has_fit", "boundary_fn", "boundary_fn_sizes", "fit_residual"}
_PATCH_SET_KEYS = {"degrees", "nets", "cells", "boundary"}

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

def _blob(values, code: str = "f8") -> dict:
    """The blob record of an array: its shape and its little-endian bytes."""
    arr = np.asarray(values, dtype=_DTYPES[code])
    text = binascii.b2a_base64(arr.tobytes(), newline=False).decode("ascii")
    return {"shape": list(arr.shape), code: text}


def _encode_nets(degrees: list, points) -> dict:
    return {"degrees": _blob(np.reshape(degrees, (-1, 2)), "i8"),
            "nets": _blob(np.reshape(points, (-1, 3)))}


def _encode_curve(curve: PiecewiseBezierCurve) -> dict:
    return {"breakpoints": _blob(curve.breakpoints), "polygons": _blob(curve.polygons)}


def _encode_intersection(data: IntersectionData) -> dict:
    points = data.points
    return {
        "closed": bool(data.closed),
        "points": {
            "position": _blob(np.reshape([p.position for p in points], (-1, 3))),
            "params_a": _blob(np.reshape([p.params_a for p in points], (-1, 2))),
            "params_b": _blob(np.reshape([p.params_b for p in points], (-1, 2))),
            "residuals": _blob(np.reshape([(p.residual_a, p.residual_b) for p in points],
                                          (-1, 2))),
        },
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
        "patches": [
            {"degree_u": p.degree_u, "degree_v": p.degree_v,
             "control_points": p.control_net.tolist()}
            for p in dec.patches
        ],
        "cells": cells,
        "boundary": boundary,
    }


def _encode_patch_set_record(record: dict) -> dict:
    """The columns of an `encode_patch_set` record, as the file stores them."""
    patches, cells, boundary = record["patches"], record["cells"], record["boundary"]
    has_w = ["w_span" in c for c in cells]
    has_case = ["s_axis" in c for c in cells]
    has_fit = ["boundary_fn" in c for c in cells]
    cased, fitted = list(compress(cells, has_case)), list(compress(cells, has_fit))
    out = _encode_nets(
        [(p["degree_u"], p["degree_v"]) for p in patches],
        np.fromiter(chain.from_iterable(chain.from_iterable(chain.from_iterable(
            p["control_points"] for p in patches))), dtype=float),
    )
    out["cells"] = {
        "kind": [c["kind"] for c in cells],
        "bounds": _blob(np.reshape([c["bounds"] for c in cells], (-1, 4))),
        "has_w_span": has_w,
        "w_span": _blob(np.reshape([c["w_span"] for c in compress(cells, has_w)], (-1, 2))),
        "has_case": has_case,
        "s_axis": [c["s_axis"] for c in cased],
        "s_reversed": [c["s_reversed"] for c in cased],
        "has_fit": has_fit,
        "boundary_fn": _blob(list(chain.from_iterable(c["boundary_fn"] for c in fitted))),
        "boundary_fn_sizes": _blob([len(c["boundary_fn"]) for c in fitted], "i8"),
        "fit_residual": _blob([c["fit_residual"] for c in fitted]),
    }
    out["boundary"] = {"patch": _blob([b["patch"] for b in boundary], "i8"),
                       "edge": [b["edge"] for b in boundary]}
    return out


def model_to_dict(model: ModelFile) -> dict:
    surfaces = model.surfaces
    out = {
        "version": model.version,
        "surfaces": _encode_nets(
            [(s.degree_u, s.degree_v) for s in surfaces],
            np.concatenate([s.control_net.reshape(-1, 3) for s in surfaces]
                           or [np.empty((0, 3))]),
        ),
    }
    if model.intersection is not None:
        out["intersection"] = _encode_intersection(model.intersection)
    if model.patch_sets is not None:
        out["patch_sets"] = [_encode_patch_set_record(rec) for rec in model.patch_sets]
    if model.reports is not None:
        out["reports"] = model.reports
    return out


def save_model(model: ModelFile, path: str) -> None:
    payload = json.dumps(model_to_dict(model))
    _atomic_write(path, payload + "\n")


def _atomic_write(path: str, text: str) -> None:
    # The temp file sits next to `path`, so the rename stays on one file
    # system.  os.open applies the umask to 0o666 as a plain open would.
    tmp = f"{path}.{os.getpid()}.{os.urandom(6).hex()}.tmp"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
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


def _rows(ok: np.ndarray, path: str, message: str, values: np.ndarray) -> None:
    """Raise ParseError at `path` naming the first row where `ok` is false."""
    if not ok.all():
        k = int(np.argmin(ok))
        raise ParseError(f"row {k}: " + message.format(values[k].tolist()), path)


def _check_keys(obj: dict, allowed: set, required: set, path: str) -> None:
    _require(isinstance(obj, dict), path, "expected an object")
    for key in obj:
        if key not in allowed:
            raise ParseError(f"unknown field '{key}'", f"{path}.{key}" if path else key)
    for key in required:
        if key not in obj:
            raise ParseError(f"missing field '{key}'", path)


def _array(obj, path: str, ndim: int, code: str = "f8") -> np.ndarray:
    """The `ndim`-dimensional array of a blob record, finite if it holds floats."""
    _require(type(obj) is dict and obj.keys() == {"shape", code}, path,
             "expected an array record with fields 'shape' and '{}'", code)
    shape, text = obj["shape"], obj[code]
    _require(type(shape) is list and len(shape) == ndim
             and all(type(n) is int and n >= 0 for n in shape), path,
             "shape {!r} is not a list of {} non-negative integers", shape, ndim)
    _require(type(text) is str, path, "'{}' must be base64 text", code)
    try:
        raw = binascii.a2b_base64(text)
    except ValueError as err:  # binascii.Error, or text that is not ASCII
        raise ParseError(f"'{code}' is not base64: {err}", path)
    # a2b_base64 skips characters outside the alphabet: only the canonical
    # text of the decoded bytes is accepted.
    _require(binascii.b2a_base64(raw, newline=False).decode("ascii") == text, path,
             "'{}' is not the canonical base64 text of its bytes", code)
    dtype = _DTYPES[code]
    _require(len(raw) == math.prod(shape) * dtype.itemsize, path,
             "{} bytes do not hold an array of shape {}", len(raw), shape)
    arr = np.frombuffer(bytearray(raw), dtype).reshape(shape)
    _require(code != "f8" or np.isfinite(arr).all(), path, "expected finite numbers")
    return arr


def _names(values, path: str, allowed: tuple, size: int | None = None) -> list:
    """A list of `size` entries (any number if None), each one of `allowed`
    and of its type (so 1 is not True)."""
    _require(type(values) is list and size in (None, len(values)), path,
             "expected a list of {} entries", "any number of" if size is None else size)
    if not (set(map(type, values)) <= set(map(type, allowed)) and set(values) <= set(allowed)):
        k = next(k for k, value in enumerate(values)
                 if not any(type(value) is type(name) and value == name for name in allowed))
        raise ParseError(f"row {k}: {values[k]!r} is not one of {allowed}", path)
    return values


def _finite_number(value) -> bool:
    """A JSON number, not a bool, that converts to a finite float."""
    try:
        return type(value) in (int, float) and math.isfinite(value)
    except OverflowError:  # an integer beyond the float range
        return False


def _non_negative(value, path: str) -> float:
    _require(_finite_number(value) and value >= 0, path,
             "{!r} is not a finite non-negative number", value)
    return float(value)


def _count(value) -> bool:
    return type(value) is int and value >= 0


def _decode_nets(obj: dict, path: str):
    """The (P, 2) degrees and (N, 3) points of a nets record, checked
    against each other.  `obj`'s keys are checked by the caller."""
    degrees = _array(obj["degrees"], f"{path}.degrees", 2, "i8")
    points = _array(obj["nets"], f"{path}.nets", 2)
    _require(degrees.shape[1] == 2, f"{path}.degrees", "expected two degrees a patch")
    _require(points.shape[1] == 3, f"{path}.nets", "points have {} coordinates, not 3",
             points.shape[1])
    count = len(points)
    _require(((degrees >= 0) & (degrees < count)).all(), f"{path}.degrees",
             "degrees must be non-negative and below the point count {}", count)
    # Each size is at most count**2, and their sum is checked only once each
    # is at most count: no int64 product or sum here can overflow.
    sizes = (degrees + 1).prod(axis=1)
    _require(len(sizes) <= count and (sizes <= count).all() and sizes.sum() == count,
             f"{path}.nets", "{} points do not fill {} nets of the declared degrees",
             count, len(sizes))
    return degrees, points


def _net_runs(degrees: np.ndarray, points: np.ndarray):
    """(degree_u, degree_v, nets) for each run of consecutive patches of one
    degree pair; nets is a (count, degree_u+1, degree_v+1, 3) view of points."""
    if not len(degrees):
        return
    ends = [*(np.flatnonzero((degrees[1:] != degrees[:-1]).any(axis=1)) + 1).tolist(),
            len(degrees)]
    offsets = np.concatenate([[0], np.cumsum((degrees + 1).prod(axis=1))]).tolist()
    start = 0
    for end in ends:
        du, dv = degrees[start].tolist()
        yield du, dv, points[offsets[start]:offsets[end]].reshape(end - start, du + 1, dv + 1, 3)
        start = end


def _decode_surfaces(obj: dict, path: str) -> list:
    _check_keys(obj, {"degrees", "nets"}, {"degrees", "nets"}, path)
    return [BezierSurface(net) for _, _, run in _net_runs(*_decode_nets(obj, path))
            for net in run]


def _decode_curve(obj: dict, path: str, dim: int, breakpoints=None) -> PiecewiseBezierCurve:
    """A piecewise curve of `dim`-coordinate points, on `breakpoints` if given."""
    _check_keys(obj, {"breakpoints", "polygons"}, {"breakpoints", "polygons"}, path)
    breaks = _array(obj["breakpoints"], f"{path}.breakpoints", 1)
    polygons = _array(obj["polygons"], f"{path}.polygons", 3)
    _require(polygons.shape[2] == dim, f"{path}.polygons", "points have {} coordinates, not {}",
             polygons.shape[2], dim)
    try:
        curve = PiecewiseBezierCurve(polygons, breaks)
    except ValueError as err:
        raise ParseError(str(err), path)
    _require(breakpoints is None or np.array_equal(curve.breakpoints, breakpoints), path,
             "breakpoints differ from the space curve's")
    return curve


def _decode_points(obj: dict, path: str) -> list:
    _check_keys(obj, set(_POINT_COLUMNS), set(_POINT_COLUMNS), path)
    columns = {}
    for name, width in _POINT_COLUMNS.items():
        arr = columns[name] = _array(obj[name], f"{path}.{name}", 2)
        _require(arr.shape[1] == width, f"{path}.{name}", "expected {} numbers a point, not {}",
                 width, arr.shape[1])
        _require(len(arr) == len(columns["position"]), f"{path}.{name}",
                 "{} rows, not one for each of the {} positions", len(arr),
                 len(columns["position"]))
    residuals = columns["residuals"]
    _rows((residuals >= 0.0).all(axis=1), f"{path}.residuals",
          "residuals {} are not non-negative", residuals)
    return [
        IntersectionPoint(position=x, params_a=a, params_b=b, residual_a=ra, residual_b=rb)
        for x, a, b, (ra, rb) in zip(columns["position"], columns["params_a"],
                                     columns["params_b"], residuals.tolist())
    ]


def _decode_intersection(obj: dict, path: str, surfaces: list) -> IntersectionData:
    keys = {"closed", "points", "curve_c", "domain_curve_a", "domain_curve_b", "lift_samples"}
    _check_keys(obj, keys, keys, path)
    _require(isinstance(obj["closed"], bool), f"{path}.closed", "closed must be true or false")
    samples = obj["lift_samples"]
    _require(_count(samples) and samples >= 2, f"{path}.lift_samples",
             "lift_samples {!r} is not an integer of at least 2", samples)
    _require(len(surfaces) >= 2, "surfaces", "an intersection needs the two surfaces it lifts onto")
    points = _decode_points(obj["points"], f"{path}.points")
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


def _decode_cells(obj: dict, path: str) -> list:
    """The cell records of a patch set's cell columns."""
    _check_keys(obj, _CELL_COLUMNS, _CELL_COLUMNS, path)
    kinds = _names(obj["kind"], f"{path}.kind", _KINDS)

    bounds = _array(obj["bounds"], f"{path}.bounds", 2)
    _require(bounds.shape == (len(kinds), 4), f"{path}.bounds",
             "shape {} is not four numbers for each of the {} cells", bounds.shape, len(kinds))
    u0, u1, v0, v1 = bounds.T
    _rows((0.0 <= u0) & (u0 < u1) & (u1 <= 1.0) & (0.0 <= v0) & (v0 < v1) & (v1 <= 1.0),
          f"{path}.bounds", "bounds {} do not span a box in [0, 1]^2", bounds)

    has_w = _names(obj["has_w_span"], f"{path}.has_w_span", _FLAGS, len(kinds))
    w_span = _array(obj["w_span"], f"{path}.w_span", 2)
    _require(w_span.shape == (sum(has_w), 2), f"{path}.w_span",
             "shape {} is not two numbers for each of the {} cells that have one",
             w_span.shape, sum(has_w))
    _rows((0.0 <= w_span[:, 0]) & (w_span[:, 0] < w_span[:, 1]) & (w_span[:, 1] <= 1.0),
          f"{path}.w_span", "w_span {} is not an interval of [0, 1]", w_span)

    has_case = _names(obj["has_case"], f"{path}.has_case", _FLAGS, len(kinds))
    axes = _names(obj["s_axis"], f"{path}.s_axis", _AXES, sum(has_case))
    flips = _names(obj["s_reversed"], f"{path}.s_reversed", _FLAGS, sum(has_case))

    has_fit = _names(obj["has_fit"], f"{path}.has_fit", _FLAGS, len(kinds))
    coefficients = _array(obj["boundary_fn"], f"{path}.boundary_fn", 1)
    sizes = _array(obj["boundary_fn_sizes"], f"{path}.boundary_fn_sizes", 1, "i8")
    # With each size at most the coefficient count, their sum cannot overflow.
    _require(sizes.shape == (sum(has_fit),)
             and ((sizes >= 1) & (sizes <= len(coefficients))).all()
             and sizes.sum() == len(coefficients), f"{path}.boundary_fn_sizes",
             "expected one size of at least 1 for each of the {} fitted cells, "
             "summing to the {} coefficients", sum(has_fit), len(coefficients))
    residuals = _array(obj["fit_residual"], f"{path}.fit_residual", 1)
    _require(residuals.shape == sizes.shape, f"{path}.fit_residual",
             "{} residuals, not one for each of the {} fitted cells", len(residuals), len(sizes))
    _rows(residuals >= 0.0, f"{path}.fit_residual", "fit_residual {} is negative", residuals)

    records = [{"kind": k, "bounds": b} for k, b in zip(kinds, bounds.tolist())]
    for record, w in zip(compress(records, has_w), w_span.tolist()):
        record["w_span"] = w
    for record, axis, flip in zip(compress(records, has_case), axes, flips):
        record["s_axis"], record["s_reversed"] = axis, flip
    flat, ends = coefficients.tolist(), np.cumsum(sizes).tolist()
    for record, start, end, residual in zip(compress(records, has_fit), [0, *ends], ends,
                                            residuals.tolist()):
        record["boundary_fn"], record["fit_residual"] = flat[start:end], residual
    return records


def _decode_boundary(obj: dict, path: str, patches: int) -> list:
    _check_keys(obj, {"patch", "edge"}, {"patch", "edge"}, path)
    index = _array(obj["patch"], f"{path}.patch", 1, "i8")
    _rows((0 <= index) & (index < patches), f"{path}.patch",
          f"patch index {{}} is not one of the {patches} patches", index)
    edges = _names(obj["edge"], f"{path}.edge", _EDGES, len(index))
    return [{"patch": i, "edge": e} for i, e in zip(index.tolist(), edges)]


def _decode_patch_set(obj: dict, path: str) -> dict:
    """The `encode_patch_set` record of a patch set's columns."""
    _check_keys(obj, _PATCH_SET_KEYS, _PATCH_SET_KEYS, path)
    degrees, points = _decode_nets(obj, path)
    return {
        "patches": [
            {"degree_u": du, "degree_v": dv, "control_points": net}
            for du, dv, run in _net_runs(degrees, points) for net in run.tolist()
        ],
        "cells": _decode_cells(obj["cells"], f"{path}.cells"),
        "boundary": _decode_boundary(obj["boundary"], f"{path}.boundary", len(degrees)),
    }


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
            _require(type(value) is list and len(value) == 3 and all(map(_finite_number, value)),
                     kpath, "expected 3 finite numbers")
        elif key in _REPORT_COUNTS:
            _require(_count(value), kpath, "{} {!r} is not a non-negative integer", key, value)
        else:
            _non_negative(value, kpath)
    return obj


def load_model(path: str) -> ModelFile:
    try:
        with open(path, "rb") as handle:
            raw = json.loads(handle.read().decode("utf-8"))
    except UnicodeDecodeError as err:
        raise ParseError(f"{path} is not UTF-8 text: {err.reason} at byte {err.start}")
    except json.JSONDecodeError as err:
        raise ParseError(f"{path} is not JSON: {err.msg} at line {err.lineno}")
    except RecursionError:
        raise ParseError(f"{path} nests lists or objects too deeply to parse")
    top_keys = {"version", "surfaces", "intersection", "patch_sets", "reports"}
    _check_keys(raw, top_keys, {"version", "surfaces"}, "")
    _require(raw["version"] == FORMAT_VERSION, "version",
             "unsupported format version {!r}", raw["version"])
    surfaces = _decode_surfaces(raw["surfaces"], "surfaces")
    intersection = None
    if "intersection" in raw:
        intersection = _decode_intersection(raw["intersection"], "intersection", surfaces)
    patch_sets = None
    if "patch_sets" in raw:
        records = raw["patch_sets"]
        _require(type(records) is list, "patch_sets", "expected a list")
        patch_sets = [_decode_patch_set(rec, f"patch_sets[{k}]") for k, rec in enumerate(records)]
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

"""Bit-exact file formats: GSF fields, Middlebury FLO flows, PPM/FRM frames,
JSON weight/bank documents, and the bench/stability CSVs.

All binary formats are little-endian.  Save followed by load reproduces the
in-memory object bit-exactly (in-memory float64 values are expected to be
f32-representable for the f32-on-disk formats; loaders always produce such
values).  Malformed files (bad magic numbers, truncated payloads, bad
declared sizes, JSON documents of the wrong structure) raise FormatError
naming the byte offset; a JSON structure error names offset 0.
"""

from __future__ import annotations

import csv
import json
import math
import struct
from pathlib import Path

import numpy as np

from splatvid.core import (
    Density,
    FlowField,
    FrameBuffer,
    GaussianField,
    ShapeError,
    ValidationError,
    covariance_violations,
)
from splatvid.cpb import CpbBank, FuserWeights
from splatvid.metrics import StabilityReport

GSF_MAGIC = b"GSF1"
FRM_MAGIC = b"FRM1"
FLO_MAGIC = 202021.25
WEIGHTS_FORMAT = "gsw1"


class FormatError(ValueError):
    """Malformed file: bad magic, truncation, or inconsistent declared sizes."""

    def __init__(self, message: str, offset: int | None = None):
        if offset is not None:
            message = f"{message} (byte offset {offset})"
        super().__init__(message)
        self.offset = offset


def _read_exact(data: bytes, offset: int, count: int, what: str) -> bytes:
    if offset + count > len(data):
        raise FormatError(f"truncated while reading {what}", offset)
    return data[offset : offset + count]


def _check_finite(arr: np.ndarray, what: str, offset: int) -> None:
    if not np.all(np.isfinite(arr)):
        raise FormatError(f"non-finite values in {what}", offset)


def _f4_payload(payload: bytes, shape: tuple[int, ...]) -> np.ndarray:
    """A little-endian float32 payload as a float64 array of shape.

    The cast is silent on a signalling NaN, which _check_finite then
    rejects, so a malformed payload raises FormatError even when warnings
    are errors.
    """
    with np.errstate(invalid="ignore"):
        return np.frombuffer(payload, dtype="<f4").reshape(shape).astype(np.float64)


# --- GSF -------------------------------------------------------------------

def save_gsf(path, f: GaussianField) -> None:
    n = f.n_gaussians
    rec = np.empty((n, 8), dtype="<f4")
    rec[:, 0:2] = f.offsets
    rec[:, 2:4] = f.sigmas
    rec[:, 4] = f.rhos
    rec[:, 5:8] = f.colors
    header = GSF_MAGIC + struct.pack(
        "<IIBfI",
        f.lr_width,
        f.lr_height,
        0 if f.density is Density.ONE_PER_PIXEL else 1,
        f.timestamp,
        n,
    )
    Path(path).write_bytes(header + rec.tobytes())


def load_gsf(path) -> GaussianField:
    data = Path(path).read_bytes()
    if _read_exact(data, 0, 4, "magic") != GSF_MAGIC:
        raise FormatError(f"bad GSF magic {data[:4]!r}", 0)
    lr_w, lr_h, dens, ts, count = struct.unpack(
        "<IIBfI", _read_exact(data, 4, 17, "header")
    )
    if dens not in (0, 1):
        raise FormatError(f"bad density byte {dens}", 12)
    if not 0.0 <= ts <= 1.0:  # validate_field's rule; also rejects NaN
        raise FormatError(f"timestamp {ts!r} outside [0, 1]", 13)
    density = Density.ONE_PER_PIXEL if dens == 0 else Density.ONE_PER_FOUR_PIXELS
    gw, gh = density.grid_shape(lr_w, lr_h)
    if count != gw * gh:
        raise FormatError(f"declared count {count} != grid size {gw * gh}", 17)
    payload = _read_exact(data, 21, count * 32, "gaussian records")
    rec = _f4_payload(payload, (count, 8))
    _check_finite(rec, "gaussian records", 21)
    # Columns 2:5 are (sigma_x, sigma_y, rho); offsets and colors are only checked finite.
    bad = np.flatnonzero(covariance_violations(rec[:, 2:5]))
    if bad.size:
        i, j = divmod(int(bad[0]), 3)
        name = ("sigma_x", "sigma_y", "rho")[j]
        raise FormatError(
            f"record {i}: {name}={float(rec[i, 2 + j])!r} breaks the covariance rule",
            21 + 4 * (8 * i + 2 + j),
        )
    return GaussianField(
        lr_width=lr_w,
        lr_height=lr_h,
        density=density,
        offsets=rec[:, 0:2],
        sigmas=rec[:, 2:4],
        rhos=rec[:, 4],
        colors=rec[:, 5:8],
        timestamp=float(np.float32(ts)),
        max_offset=np.inf,
    )


# --- FLO (Middlebury) ------------------------------------------------------

def save_flo(path, flow: FlowField) -> None:
    header = struct.pack("<fii", FLO_MAGIC, flow.width, flow.height)
    Path(path).write_bytes(header + flow.vectors.astype("<f4").tobytes())


def load_flo(path) -> FlowField:
    data = Path(path).read_bytes()
    (tag,) = struct.unpack("<f", _read_exact(data, 0, 4, "magic"))
    if tag != np.float32(FLO_MAGIC):
        raise FormatError(f"bad FLO magic {tag!r}", 0)
    w, h = struct.unpack("<ii", _read_exact(data, 4, 8, "dimensions"))
    if w <= 0 or h <= 0:
        raise FormatError(f"bad FLO dimensions {w}x{h}", 4)
    payload = _read_exact(data, 12, w * h * 8, "flow vectors")
    vec = _f4_payload(payload, (h, w, 2))
    _check_finite(vec, "flow vectors", 12)
    return FlowField(vec)


# --- Frames ----------------------------------------------------------------

def save_ppm(path, frame: FrameBuffer) -> None:
    """Viewable 8-bit output: values = round(clamp01(v) * 255)."""
    header = f"P6\n{frame.width} {frame.height}\n255\n".encode("ascii")
    body = np.round(np.clip(frame.pixels, 0.0, 1.0) * 255.0).astype(np.uint8)
    Path(path).write_bytes(header + body.tobytes())


_PPM_SPACE = b" \t\n\v\f\r"


def _ppm_header(data: bytes) -> tuple[int, int, int]:
    """Parse a netpbm P6 header: the magic, then width, height and maxval as
    decimal tokens separated by whitespace that may hold ``#`` comments (to
    the end of the line), then exactly one whitespace byte.  A token may
    have leading zeros; without them, one of more than 19 digits fails.

    Only maxval 255 is supported.  Returns (width, height, raster offset).
    """
    if not data.startswith(b"P6"):
        raise FormatError(f"bad PPM magic {data[:2]!r}", 0)
    pos = 2
    values = []
    for what in ("width", "height", "maxval"):
        start = pos
        while pos < len(data) and (data[pos] in _PPM_SPACE or data[pos] == ord("#")):
            if data[pos] == ord("#"):
                while pos < len(data) and data[pos] not in b"\n\r":
                    pos += 1
            else:
                pos += 1
        if pos == len(data):
            raise FormatError(f"truncated PPM header before {what}", pos)
        if pos == start:
            raise FormatError(f"bad PPM header: no whitespace before {what}", pos)
        digits_at = pos
        while pos < len(data) and data[pos : pos + 1].isdigit():
            pos += 1
        if pos == digits_at:
            raise FormatError(f"bad PPM header: {what} is not a decimal number", pos)
        token = data[digits_at:pos].lstrip(b"0") or b"0"
        if len(token) > 19:  # above 2**63: more bytes than any file holds
            raise FormatError(f"bad PPM header: {what} too large for any file", digits_at)
        values.append((int(token), digits_at))
    if pos == len(data):
        raise FormatError("truncated PPM header after maxval", pos)
    if data[pos] not in _PPM_SPACE:
        raise FormatError("bad PPM header: no whitespace after maxval", pos)
    (w, w_at), (h, h_at), (maxval, maxval_at) = values
    if w < 1 or h < 1:
        raise FormatError(f"bad PPM dimensions {w}x{h}", w_at if w < 1 else h_at)
    if maxval != 255:
        raise FormatError(f"unsupported PPM maxval {maxval}", maxval_at)
    return w, h, pos + 1


def load_ppm(path) -> FrameBuffer:
    data = Path(path).read_bytes()
    w, h, offset = _ppm_header(data)
    body = _read_exact(data, offset, w * h * 3, "pixel data")
    px = np.frombuffer(body, dtype=np.uint8).reshape(h, w, 3).astype(np.float64)
    return FrameBuffer(px / 255.0)


def save_frm(path, frame: FrameBuffer) -> None:
    """Lossless f32 intermediate frame."""
    header = FRM_MAGIC + struct.pack("<II", frame.width, frame.height)
    Path(path).write_bytes(header + frame.pixels.astype("<f4").tobytes())


def load_frm(path) -> FrameBuffer:
    data = Path(path).read_bytes()
    if _read_exact(data, 0, 4, "magic") != FRM_MAGIC:
        raise FormatError(f"bad FRM magic {data[:4]!r}", 0)
    w, h = struct.unpack("<II", _read_exact(data, 4, 8, "dimensions"))
    if w == 0 or h == 0:
        raise FormatError(f"bad FRM dimensions {w}x{h}", 4)
    payload = _read_exact(data, 12, w * h * 12, "pixel data")
    px = _f4_payload(payload, (h, w, 3))
    _check_finite(px, "pixel data", 12)
    return FrameBuffer(px)


# --- Weights / bank JSON ---------------------------------------------------

def save_weights(path, entries: dict[str, np.ndarray]) -> None:
    doc = {
        "format": WEIGHTS_FORMAT,
        "entries": {
            name: {
                "shape": list(np.asarray(arr).shape),
                "data": np.asarray(arr, dtype=np.float64).ravel().tolist(),
            }
            for name, arr in entries.items()
        },
    }
    Path(path).write_text(json.dumps(doc))


def _entry_array(name: str, entry) -> np.ndarray:
    """One {"shape": [...], "data": [...]} entry as a float64 array."""
    if not isinstance(entry, dict) or entry.keys() != {"shape", "data"}:
        raise FormatError(f"entry {name!r} is not a {{shape, data}} object", 0)
    shape, data = entry["shape"], entry["data"]
    if not isinstance(shape, list) or any(type(d) is not int or d < 0 for d in shape):
        raise FormatError(f"entry {name!r}: bad shape {shape!r}", 0)
    try:
        arr = np.array(data) if isinstance(data, list) else None
    except ValueError:  # ragged nesting
        arr = None
    if arr is None or arr.ndim != 1 or arr.dtype.kind not in "iuf":
        raise FormatError(f"entry {name!r}: data is not a flat list of numbers", 0)
    if arr.size != math.prod(shape):
        raise FormatError(f"entry {name!r}: {arr.size} values for shape {shape}", 0)
    arr = arr.astype(np.float64)
    _check_finite(arr, f"entry {name!r}", 0)
    return arr.reshape(shape)


def load_weights(path) -> dict[str, np.ndarray]:
    try:
        text = Path(path).read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"weights file is not UTF-8: {exc.reason}", exc.start) from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"bad weights JSON: {exc}", exc.pos) from exc
    except (ValueError, RecursionError) as exc:  # an int too long, nesting too deep
        raise FormatError(f"bad weights JSON: {exc}", 0) from exc
    if not isinstance(doc, dict):
        raise FormatError("weights document is not a JSON object", 0)
    if doc.get("format") != WEIGHTS_FORMAT:
        raise FormatError(f"bad weights format tag {doc.get('format')!r}", 0)
    unknown = set(doc) - {"format", "entries"}
    if unknown:
        raise FormatError(f"unknown top-level keys {sorted(unknown)}", 0)
    entries = doc.get("entries", {})
    if not isinstance(entries, dict):
        raise FormatError("'entries' is not an object", 0)
    return {name: _entry_array(name, entry) for name, entry in entries.items()}


def save_bank(path, bank: CpbBank) -> None:
    save_weights(path, {"bank": bank.params})


def load_bank(path) -> CpbBank:
    entries = load_weights(path)
    if "bank" not in entries:
        raise FormatError("bank file missing 'bank' entry", 0)
    try:
        return CpbBank(entries["bank"])
    except (ShapeError, ValidationError) as exc:
        raise FormatError(f"bad bank entry: {exc}", 0) from exc


def save_fuser(path, w: FuserWeights) -> None:
    save_weights(path, {"fuser.weight": w.weights, "fuser.bias": w.bias})


def load_fuser(path) -> FuserWeights:
    entries = load_weights(path)
    try:
        return FuserWeights(entries["fuser.weight"], entries["fuser.bias"])
    except KeyError as exc:
        raise FormatError(f"fuser file missing entry {exc}", 0) from exc
    except (ShapeError, ValidationError) as exc:
        raise FormatError(f"bad fuser entries: {exc}", 0) from exc


# --- CSV reports -----------------------------------------------------------

BENCH_CSV_HEADER = [
    "temporal_scale",
    "spatial_scale",
    "shared_ms",
    "per_frame_ms_mean",
    "total_ms",
    "runs",
]


def save_bench_csv(path, records) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(BENCH_CSV_HEADER)
        for r in records:
            writer.writerow(
                [r.temporal_scale, r.spatial_scale, r.shared_ms, r.per_frame_ms_mean, r.total_ms, r.runs]
            )


def save_stability_csv(path, report: StabilityReport) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["gap", "pixel_pearson", "pixel_cosine", "cov_pearson", "cov_cosine"])
        for i, g in enumerate(report.gaps):
            writer.writerow(
                [
                    g,
                    report.pixel_pearson[i],
                    report.pixel_cosine[i],
                    report.cov_pearson[i],
                    report.cov_cosine[i],
                ]
            )

"""Span tracing of splatvid's public functions, installed from outside.

``Tracer.install()`` replaces each spanned function with a wrapper on its
home module and on every splatvid module that re-binds it by
``from ... import`` (``fit.render_windows``, ``pipeline.render_tiled``,
``cpb.conv2d`` and so on).  Calls that go through the module attribute, as
the package's own cross-module calls do, are then traced.

A span has a name, start, end, parent and the pair it belongs to.  Spans
are only recorded inside ``pair()``, kept in memory and written out by
``dump()`` when the run ends.  The program is single-threaded, so a span's
self time is its duration minus its children's durations, and the self
times of one pair add up to the pair's wall time.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
from dataclasses import dataclass

import numpy as np

# Module -> public functions that get a span.  core, metrics, synth and cli
# are not spanned: core types sit inside every call, metrics and synth serve
# only the benchmark, and cli is not on the measured path.
SPANNED = {
    "pipeline": ("build_shared_context", "derive_field", "render_at"),
    "fit": ("fit_frame", "loss", "init_field"),
    "raster": ("render_windows", "render_tiled"),
    "cpb": ("project_grid_to_bank", "fuse", "resample"),
    "nnops": ("conv2d",),
    "motion": (
        "scale_flows",
        "backward_warp",
        "predict_fusion",
        "fuse_features",
        "decode_gaussians",
        "apply_window",
        "flow_magnitude_window_logits",
        "compute_window_map",
    ),
    "fileio": ("load_ppm", "load_flo", "load_bank", "load_fuser", "save_ppm"),
}
SPAN_NAMES = tuple(f"{m}.{f}" for m, fns in SPANNED.items() for f in fns)
ROOT_SPAN = "bench.pair"


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans; -1 for a pair's root span
    pair: int
    error: bool


def _embed(params: np.ndarray) -> np.ndarray:
    """(sigma_x, sigma_y, rho) -> (log sigma_x, log sigma_y, atanh rho), the
    space in which cpb snaps a covariance to its nearest bank entry."""
    return np.concatenate(
        [np.log(params[..., 0:2]), np.arctanh(params[..., 2:3])], axis=-1
    )


class PairCounters:
    """Counts recorded at span boundaries, for one pair."""

    def __init__(self):
        self.out_px = 0
        # Sum over renders of the truncation boxes' area (2 r s sigma_x) *
        # (2 r s sigma_y): computed from the field, not measured.
        self.window_px = 0.0
        self.snap_err: list[float] = []
        self.window_map_mean: list[float] = []

    def on_render(self, args, out) -> None:
        f, cfg = args[0], args[1]
        self.out_px += out.width * out.height
        box = 2.0 * cfg.truncation_radius * cfg.scale
        self.window_px += float(np.sum(box * f.sigmas[:, 0] * box * f.sigmas[:, 1]))

    def on_snap(self, args, out) -> None:
        d = _embed(args[0].params) - _embed(out.params)
        self.snap_err.append(float(np.mean(np.linalg.norm(d, axis=-1))))

    def on_window_map(self, args, out) -> None:
        self.window_map_mean.append(float(np.mean(out.values)))


HOOKS = {
    "raster.render_windows": PairCounters.on_render,
    "raster.render_tiled": PairCounters.on_render,
    "cpb.project_grid_to_bank": PairCounters.on_snap,
    "motion.compute_window_map": PairCounters.on_window_map,
}


class Tracer:
    def __init__(self):
        self.spans: list[Span | None] = []
        self.counters: dict[int, PairCounters] = {}
        self._stack: list[int] = []
        self._pair: int | None = None
        self._originals: list[tuple[object, str, object]] = []

    def install(self) -> None:
        """Wrap every spanned function wherever a splatvid module binds it."""
        modules = {
            name: mod
            for name, mod in sys.modules.items()
            if name == "splatvid" or name.startswith("splatvid.")
        }
        wrappers = {}
        for mod_name, fns in SPANNED.items():
            home = modules[f"splatvid.{mod_name}"]
            for fn_name in fns:
                original = getattr(home, fn_name)
                name = f"{mod_name}.{fn_name}"
                wrappers[id(original)] = (original, self._wrap(name, original))
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                if id(value) in wrappers and wrappers[id(value)][0] is value:
                    self._originals.append((mod, attr, value))
                    setattr(mod, attr, wrappers[id(value)][1])

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._originals):
            setattr(mod, attr, value)
        self._originals.clear()

    def _wrap(self, name, fn):
        hook = HOOKS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer._pair is None:
                return fn(*args, **kwargs)
            idx = tracer._open()
            start = time.perf_counter()
            error = True
            try:
                out = fn(*args, **kwargs)
                error = False
            finally:
                tracer._close(idx, name, start, error)
            if hook is not None:
                hook(tracer.counters[tracer._pair], args, out)
            return out

        return traced

    def _open(self) -> int:
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, name: str, start: float, error: bool) -> None:
        end = time.perf_counter()
        self._stack.pop()
        parent = self._stack[-1] if self._stack else -1
        self.spans[idx] = Span(name, start, end, parent, self._pair, error)

    @contextlib.contextmanager
    def pair(self, pair_id: int):
        """Record every span inside the block under one root span."""
        self._pair = pair_id
        self.counters[pair_id] = PairCounters()
        idx = self._open()
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(idx, ROOT_SPAN, start, False)
            self._pair = None

    def self_times(self) -> dict[int, dict[str, list[float]]]:
        """pair -> span name -> [self seconds, calls, errors]."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                child[s.parent] += s.end - s.start
        out: dict[int, dict[str, list[float]]] = {}
        for i, s in enumerate(self.spans):
            row = out.setdefault(s.pair, {}).setdefault(s.name, [0.0, 0, 0])
            row[0] += (s.end - s.start) - child[i]
            row[1] += 1
            row[2] += int(s.error)
        return out

    def dump(self, path) -> None:
        spans = [
            [s.name, s.start, s.end, s.parent, s.pair, s.error] for s in self.spans
        ]
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "pair", "error"],
                       "spans": spans}, fh)

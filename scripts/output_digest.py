#!/usr/bin/env python3
"""Same-outputs check: digests of every array an interpolation run produces.

    python3 scripts/output_digest.py --workload fit-ridge --seeds 1-10 --parent HEAD
    python3 scripts/output_digest.py --workload all --seeds 1-10 --parent HEAD

For each seed the inputs come from perfbench/workloads.py and pass through
PPM, FLO and JSON files as perfbench/run.py passes them.  The run then
builds the shared context, derives and renders every timestamp, and hashes
(SHA-256 of dtype, shape and bytes) both endpoint fields, every
derive_field array, every render_at frame and the stage counters.

Each tree runs in an interpreter of its own, on one BLAS thread, with
splatvid imported from its own src/ and the workloads from its own
perfbench/.  Without --parent the script prints this checkout's digests,
one combined digest per seed.  With --parent it exports REV with
scripts/ab_bench.py's ``export`` (``git archive``) and compares both trees'
digests in order: it exits 1 and names the first array that differs, or
reports how many arrays are bit-equal.  ``--workload all`` checks every
workload of BENCHMARK.json in turn against one export of REV, and exits 1
if any of them differs.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import subprocess
import sys
import tempfile
from pathlib import Path

from ab_bench import ROOT, export  # scripts/ab_bench.py

FIELD_ARRAYS = ("offsets", "sigmas", "rhos", "colors")


def seed_range(arg: str) -> list[int]:
    """'3' or '1-10' as a list of seeds."""
    lo, _, hi = arg.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def digest(data) -> str:
    """SHA-256 of a string, or of an array's dtype, shape and bytes."""
    import numpy as np  # not at the top: run.import_program sets BLAS threads first

    if isinstance(data, str):
        return hashlib.sha256(data.encode()).hexdigest()
    arr = np.ascontiguousarray(data)
    h = hashlib.sha256(f"{arr.dtype.str} {arr.shape} ".encode())
    h.update(arr.tobytes())
    return h.hexdigest()


def field_digests(name: str, f) -> list[tuple[str, str]]:
    meta = repr((f.lr_width, f.lr_height, f.density.value, f.timestamp, f.max_offset))
    out = [(f"{name}.meta", digest(meta))]
    out += [(f"{name}.{a}", digest(getattr(f, a))) for a in FIELD_ARRAYS]
    return out


def tree_digests(tree: Path, workload: str, seeds: list[int]) -> list[tuple[str, str]]:
    """Every (name, digest) of the runs of tree's program, in run order."""
    sys.path[:0] = [str(tree / "perfbench")]
    import run  # tree's perfbench/run.py

    if Path(run.__file__).resolve().parent != tree / "perfbench":
        sys.exit(f"output_digest: imported run.py from {run.__file__}, not {tree}")
    run.import_program()  # one BLAS thread, then splatvid from tree's src/
    import workloads

    from splatvid import fileio, pipeline

    w = workloads.WORKLOADS[workload]
    out = []
    for seed in seeds:
        with tempfile.TemporaryDirectory(prefix="output_digest-") as tmp:
            paths = run.write_inputs(fileio, w.make(seed, *w.size), Path(tmp))
            frames = fileio.load_ppm(paths.frame0), fileio.load_ppm(paths.frame1)
            flows = fileio.load_flo(paths.m01), fileio.load_flo(paths.m10)
            opts = dataclasses.replace(
                w.options,
                bank=fileio.load_bank(paths.bank),
                fuser=fileio.load_fuser(paths.fuser),
            )
        ctx = pipeline.build_shared_context(*frames, flows, opts)
        rows = field_digests("field0", ctx.field0) + field_digests("field1", ctx.field1)
        for t in w.timestamps:
            f = pipeline.derive_field(ctx, t)
            rows += field_digests(f"t={t:g} derive", f)
            rows.append((f"t={t:g} frame", digest(pipeline.render_at(ctx, f, w.scale).pixels)))
        rows.append(("stage_counters", digest(json.dumps(ctx.stage_counters, sort_keys=True))))
        out += [(f"seed {seed} {name}", d) for name, d in rows]
    return out


def run_tree(tree: Path, workload: str, seeds: str) -> list[tuple[str, str]]:
    """tree_digests in a fresh interpreter, so each tree imports only its own code."""
    cmd = [sys.executable, __file__, "--workload", workload, "--seeds", seeds,
           "--tree", str(tree)]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"output_digest: the run in {tree} failed:\n{proc.stderr}")
    return [tuple(row) for row in json.loads(proc.stdout.strip().splitlines()[-1])]


def compare(workload: str, seeds: str, parent, change) -> int:
    """Report whether both trees' digests agree in order; 0 if they do."""
    for (p_name, p_digest), (c_name, c_digest) in zip(parent, change):
        if p_name != c_name or p_digest != c_digest:
            where = c_name if p_name == c_name else f"{c_name} (parent: {p_name})"
            print(f"{workload}: first difference at {where}")
            return 1
    if len(parent) != len(change):
        print(f"{workload}: {len(parent)} arrays at the parent, {len(change)} here")
        return 1
    print(f"{workload}: all {len(change)} arrays bit-equal, seeds {seeds}")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, help="a workload name, or all")
    ap.add_argument("--seeds", default="1-10", help="N or A-B (default 1-10)")
    ap.add_argument("--parent", help="git revision to compare this checkout with")
    ap.add_argument("--tree", type=Path, help=argparse.SUPPRESS)  # worker mode
    args = ap.parse_args(argv)
    seeds = seed_range(args.seeds)

    if args.tree is not None:
        print(json.dumps(tree_digests(args.tree.resolve(), args.workload, seeds)))
        return 0

    names = [args.workload]
    if args.workload == "all":
        doc = json.loads((ROOT / "BENCHMARK.json").read_text())
        names = [w["name"] for w in doc["workloads"]]
    if args.parent is None:
        for name in names:
            change = run_tree(ROOT, name, args.seeds)
            for seed in seeds:
                rows = [d for n, d in change if n.startswith(f"seed {seed} ")]
                print(f"{name} seed {seed}: {len(rows)} arrays, "
                      f"sha256 {digest(''.join(rows))}")
        return 0
    print(f"comparing with {args.parent}")
    failed = 0
    with tempfile.TemporaryDirectory(prefix="output_digest-") as tmp:
        export(args.parent, Path(tmp))
        for name in names:
            parent = run_tree(Path(tmp), name, args.seeds)
            change = run_tree(ROOT, name, args.seeds)
            failed |= compare(name, args.seeds, parent, change)
    return failed


if __name__ == "__main__":
    sys.exit(main())

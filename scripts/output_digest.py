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
digests in order: it exits 1, names the first array that differs and
prints the largest absolute difference over the endpoint fields, the
derived fields and the frames, then each seed's largest frame difference
(so a rounding-level change shows which seeds amplify it), or it reports
how many arrays are bit-equal.  For that report each run also writes its
arrays to a temporary .npz file, which the comparing process reads and
deletes.
``--workload all`` checks every workload of BENCHMARK.json in turn against
one export of REV, and exits 1 if any of them differs.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from ab_bench import ROOT, export  # scripts/ab_bench.py

FIELD_ARRAYS = ("offsets", "sigmas", "rhos", "colors")
# The kinds of array whose largest difference a comparison reports, each
# named by what its array names contain.
KINDS = {
    "endpoint fields": (" field0.", " field1."),
    "derived fields": (" derive.",),
    "frames": (" frame",),
}


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


def field_digests(name: str, f, arrays: dict) -> list[tuple[str, str]]:
    """The digests of f's metadata and arrays; the arrays go into arrays."""
    meta = repr((f.lr_width, f.lr_height, f.density.value, f.timestamp, f.max_offset))
    out = [(f"{name}.meta", digest(meta))]
    for a in FIELD_ARRAYS:
        arrays[f"{name}.{a}"] = getattr(f, a)
        out.append((f"{name}.{a}", digest(arrays[f"{name}.{a}"])))
    return out


def tree_digests(
    tree: Path, workload: str, seeds: list[int]
) -> tuple[list[tuple[str, str]], dict]:
    """Every (name, digest) of the runs of tree's program, in run order, and
    every array among them by name."""
    sys.path[:0] = [str(tree / "perfbench")]
    import run  # tree's perfbench/run.py

    if Path(run.__file__).resolve().parent != tree / "perfbench":
        sys.exit(f"output_digest: imported run.py from {run.__file__}, not {tree}")
    run.import_program()  # one BLAS thread, then splatvid from tree's src/
    import workloads

    from splatvid import fileio, pipeline

    w = workloads.WORKLOADS[workload]
    out, arrays = [], {}
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
        seed_arrays = {}
        rows = field_digests("field0", ctx.field0, seed_arrays)
        rows += field_digests("field1", ctx.field1, seed_arrays)
        for t in w.timestamps:
            f = pipeline.derive_field(ctx, t)
            rows += field_digests(f"t={t:g} derive", f, seed_arrays)
            seed_arrays[f"t={t:g} frame"] = pipeline.render_at(ctx, f, w.scale).pixels
            rows.append((f"t={t:g} frame", digest(seed_arrays[f"t={t:g} frame"])))
        rows.append(("stage_counters", digest(json.dumps(ctx.stage_counters, sort_keys=True))))
        out += [(f"seed {seed} {name}", d) for name, d in rows]
        arrays.update({f"seed {seed} {name}": a for name, a in seed_arrays.items()})
    return out, arrays


def run_tree(
    tree: Path, workload: str, seeds: str
) -> tuple[list[tuple[str, str]], Path]:
    """tree_digests in a fresh interpreter, so each tree imports only its own
    code: its digests and the temporary .npz of its arrays, which the
    caller deletes."""
    cmd = [sys.executable, __file__, "--workload", workload, "--seeds", seeds,
           "--tree", str(tree)]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"output_digest: the run in {tree} failed:\n{proc.stderr}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    return [tuple(row) for row in out["digests"]], Path(out["arrays"])


def differences(parent_npz: Path, change_npz: Path):
    """(name, largest absolute difference) of every array name both runs
    hold (inf where the shapes differ), in sorted name order."""
    import numpy as np

    with np.load(parent_npz) as par, np.load(change_npz) as chg:
        for name in sorted(set(par.files) & set(chg.files)):
            a, b = par[name], chg[name]
            if a.shape != b.shape:
                yield name, np.inf
            else:
                yield name, float(np.abs(a - b).max(initial=0.0))


def largest_differences(parent_npz: Path, change_npz: Path) -> dict[str, float]:
    """Per kind of array, the largest absolute difference between the two
    runs' arrays of the same name (inf where the shapes differ)."""
    worst = dict.fromkeys(KINDS, 0.0)
    for name, diff in differences(parent_npz, change_npz):
        kind = next(k for k, marks in KINDS.items() if any(m in name for m in marks))
        worst[kind] = max(worst[kind], diff)
    return worst


def frame_differences_by_seed(parent_npz: Path, change_npz: Path) -> dict[int, float]:
    """Per seed, ascending, the largest absolute difference over its frames."""
    worst: dict[int, float] = {}
    for name, diff in differences(parent_npz, change_npz):
        if any(m in name for m in KINDS["frames"]):
            seed = int(name.split()[1])  # "seed N ..."
            worst[seed] = max(worst.get(seed, 0.0), diff)
    return dict(sorted(worst.items()))


def compare(workload: str, seeds: str, parent, change) -> int:
    """Report whether both trees' digests agree in order; 0 if they do.

    parent and change are run_tree's (digests, npz) of each tree."""
    (par, par_npz), (chg, chg_npz) = parent, change
    for (p_name, p_digest), (c_name, c_digest) in zip(par, chg):
        if p_name != c_name or p_digest != c_digest:
            where = c_name if p_name == c_name else f"{c_name} (parent: {p_name})"
            print(f"{workload}: first difference at {where}")
            break
    else:
        if len(par) == len(chg):
            print(f"{workload}: all {len(chg)} arrays bit-equal, seeds {seeds}")
            return 0
        print(f"{workload}: {len(par)} arrays at the parent, {len(chg)} here")
    worst = largest_differences(par_npz, chg_npz)
    print(f"{workload}: largest absolute difference, seeds {seeds}: "
          + ", ".join(f"{kind} {diff:.3g}" for kind, diff in worst.items()))
    by_seed = frame_differences_by_seed(par_npz, chg_npz)
    print(f"{workload}: largest frame difference by seed: "
          + ", ".join(f"{seed} {diff:.3g}" for seed, diff in by_seed.items()))
    return 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, help="a workload name, or all")
    ap.add_argument("--seeds", default="1-10", help="N or A-B (default 1-10)")
    ap.add_argument("--parent", help="git revision to compare this checkout with")
    ap.add_argument("--tree", type=Path, help=argparse.SUPPRESS)  # worker mode
    args = ap.parse_args(argv)
    seeds = seed_range(args.seeds)

    if args.tree is not None:
        rows, arrays = tree_digests(args.tree.resolve(), args.workload, seeds)
        import numpy as np

        fd, npz = tempfile.mkstemp(prefix="output_digest-", suffix=".npz")
        with os.fdopen(fd, "wb") as fh:
            np.savez(fh, **arrays)
        print(json.dumps({"digests": rows, "arrays": npz}))
        return 0

    names = [args.workload]
    if args.workload == "all":
        doc = json.loads((ROOT / "BENCHMARK.json").read_text())
        names = [w["name"] for w in doc["workloads"]]
    if args.parent is None:
        for name in names:
            change, npz = run_tree(ROOT, name, args.seeds)
            npz.unlink()
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
            try:
                failed |= compare(name, args.seeds, parent, change)
            finally:
                parent[1].unlink()
                change[1].unlink()
    return failed


if __name__ == "__main__":
    sys.exit(main())

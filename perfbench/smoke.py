#!/usr/bin/env python3
"""Self-test of the benchmark on tiny inputs; takes well under a minute.

    python3 perfbench/smoke.py

For every workload it checks that:
  * an untraced run prints exactly the end-to-end metrics of BENCHMARK.json,
    each with its unit, and a correct result with no failures;
  * a traced run prints exactly the per-layer metrics, each with its unit;
  * the ``.calls`` counts of two traced runs are identical;
  * in every traced pair, the self times of the spans add up to the pair's
    wall time, recomputed from the written span file;
  * a second seed runs clean as well.
It also checks that run.py exits non-zero, printing no result, when the
checkout has no ``src/``, and reports whether the known defects that the
workloads avoid are still present.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 180


def run(*args: str, cwd: Path = ROOT) -> tuple[int, list[str], str]:
    proc = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT_S,
    )
    return proc.returncode, proc.stdout.splitlines(), proc.stderr


def bench(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    code, lines, err = run("--workload", workload, "--seed", str(seed),
                           "--seconds", "0.5", "--trace", str(trace), "--tiny")
    if code != 0:
        raise AssertionError(f"{workload} seed {seed} trace {trace}: exit {code}\n{err}")
    result = json.loads(lines[-1])
    info = json.loads(lines[-2])["info"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, (
        f"{workload} seed {seed}: {result['attempted']} attempted, "
        f"{result['failed']} failed, correct={result['correct']}\n{err}"
    )
    return result, info


def check_metrics(result: dict, spec: list[dict], what: str) -> None:
    want = {m["name"]: m["unit"] for m in spec}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == want, f"{what}: missing {sorted(set(want) - set(got))}, " \
        f"extra {sorted(set(got) - set(want))}, or units differ"
    for k, v in result["metrics"].items():
        assert isinstance(v["value"], (int, float)), f"{what}: {k} = {v['value']!r}"


def check_span_sums(info: dict) -> None:
    """Self times of one pair's spans add up to the pair's wall time."""
    doc = json.loads((ROOT / info["spans_file"]).read_text())
    spans = [dict(zip(doc["fields"], s)) for s in doc["spans"]]
    child = [0.0] * len(spans)
    for s in spans:
        if s["parent"] >= 0:
            assert spans[s["parent"]]["pair"] == s["pair"], "span parent in another pair"
            child[s["parent"]] += s["end"] - s["start"]
    walls = {p["pair"]: p["wall_s"] for p in info["traced_pairs"]}
    sums: dict[int, float] = {}
    for i, s in enumerate(spans):
        sums[s["pair"]] = sums.get(s["pair"], 0.0) + (s["end"] - s["start"]) - child[i]
    assert sums.keys() == walls.keys(), (sorted(sums), sorted(walls))
    for pair, total in sums.items():
        # The wall time is taken just outside the root span.
        assert abs(total - walls[pair]) <= 1e-3 + 1e-3 * walls[pair], (
            f"pair {pair}: span self times sum to {total:.6f} s, wall {walls[pair]:.6f} s"
        )


def check_bare_directory() -> None:
    """Without src/, run.py must fail without printing a result."""
    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        (bare / "perfbench").mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for f in (ROOT / "perfbench").glob("*.py"):
            shutil.copy(f, bare / "perfbench")
        code, lines, _ = run("--workload", "fit-ridge", "--seed", "1", "--seconds", "1",
                             "--trace", "0", cwd=bare)
        assert code != 0, "run.py succeeded in a checkout without src/"
        assert not any(ln.startswith('{"correct"') for ln in lines), "printed a result"
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def report_known_defects() -> None:
    """Print whether the defects the workloads record are still present."""
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np

    from splatvid import pipeline, raster, synth
    from splatvid.core import Density, ShapeError
    from splatvid.fit import FitConfig

    f0, f1, m01, m10 = synth.translating_blob_pair(24, 16, (2.0, 0.0))
    opts = pipeline.PipelineOptions(
        density=Density.ONE_PER_FOUR_PIXELS,
        fit=FitConfig(iterations=1, truncation_radius=3.0),
        refine_iterations=0,
    )
    try:
        pipeline.build_shared_context(f0, f1, (m01, m10), opts)
        print("known defect: density 1:4 through build_shared_context: fixed")
    except ShapeError as exc:
        print(f"known defect: density 1:4 through build_shared_context: present ({exc})")
    field = pipeline.build_shared_context(
        f0, f1, (m01, m10), pipeline.PipelineOptions(fit=FitConfig(iterations=1),
                                                      refine_iterations=0)
    ).field0
    means = [
        float(np.mean(raster.render_tiled(field, raster.RenderConfig(scale=s)).pixels))
        for s in (1.0, 4.0)
    ]
    print(f"known defect: mean pixel value at scale 1 vs 4: {means[0]:.4f} vs {means[1]:.4f}")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for w in spec["workloads"]:
        name = w["name"]
        result, _ = bench(name, 1, 0)
        check_metrics(result, spec["end_to_end"], f"{name} untraced")
        bench(name, 2, 0)
        traced = []
        for _ in range(2):
            result, info = bench(name, 1, 1)
            check_metrics(result, spec["per_layer"], f"{name} traced")
            check_span_sums(info)  # before the next run overwrites the span file
            traced.append((result, info))
        calls = [
            {k: v["value"] for k, v in r["metrics"].items() if k.endswith(".calls")}
            for r, _ in traced
        ]
        assert calls[0] == calls[1], f"{name}: .calls differ between two runs"
        print(f"{name}: ok")
    check_bare_directory()
    print("bare directory: run.py exits non-zero without a result")
    report_known_defects()
    return 0


if __name__ == "__main__":
    sys.exit(main())

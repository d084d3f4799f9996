#!/usr/bin/env python3
"""A/B benchmark: alternating perfbench runs of a parent revision and this checkout.

    python3 scripts/ab_bench.py --parent HEAD --workload fit-ridge --seeds 10 --seconds 36

The parent side is the parent revision's committed files, exported with
``git archive`` into a temporary directory, as a benchmark of a commit sees
them.  The change side is this checkout's working tree.  Pair i runs

    python3 perfbench/run.py --workload W --seed i --seconds S --trace 0

once on each side, the parent first on odd seeds, so that slow drifts of
the machine's speed fall on both sides alike.  The result is written to
BENCH_<workload>.json at the root of this checkout: every run's
result line, the machine line of the first run and, per end-to-end metric,
each side's quartiles (linear interpolation), the number of pairs in which
the change is better or worse by the direction BENCHMARK.json gives, the
largest difference within one seed and, for a metric with a BENCHMARK.json
bound, whether the change's median is worse than the parent's by more than
bound * |parent median| ("past_bound").  The printout ends with one line
naming every metric past its bound, or "none".  A run that fails stops the
script.

    python3 scripts/ab_bench.py --parent HEAD --workload interp-x32 --claim shared_s

With --claim METRIC the printout and the file also say whether a gain in
METRIC may be claimed: the change must be better in at least nine tenths of
the pairs (a tie counts for neither side), and its median must be better
than the parent's by more than the parent's interquartile range.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, check=True, capture_output=True, text=True
    ).stdout.strip()


def export(rev: str, dest: Path) -> None:
    """Write rev's committed files under dest."""
    archive = subprocess.run(
        ["git", "archive", "--format=tar", rev], cwd=ROOT, check=True, capture_output=True
    ).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def run_once(root: Path, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """(machine, result) of one perfbench run in the checkout at root."""
    cmd = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"ab_bench: {' '.join(cmd)} in {root} failed:\n{proc.stderr}")
    machine = json.loads(lines[0])["machine"]
    return machine, json.loads(lines[-1])


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def summarize(runs: list[dict], better: dict[str, str], bounds: dict[str, float]) -> dict:
    """Per end-to-end metric: both sides' quartiles, the per-seed pairs and,
    for a metric in bounds, whether the change's median is past its bound."""
    by_side: dict[str, dict[int, dict]] = {"parent": {}, "change": {}}
    for r in runs:
        by_side[r["side"]][r["seed"]] = r["result"]["metrics"]
    seeds = sorted(by_side["parent"])
    summary = {}
    for name in by_side["parent"][seeds[0]]:
        par = [by_side["parent"][s][name]["value"] for s in seeds]
        chg = [by_side["change"][s][name]["value"] for s in seeds]
        sign = 1.0 if better.get(name, "lower") == "lower" else -1.0
        gains = [sign * (p - c) for p, c in zip(par, chg)]
        summary[name] = {
            "parent": quartiles(par),
            "change": quartiles(chg),
            "pairs_change_better": sum(g > 0 for g in gains),
            "pairs_change_worse": sum(g < 0 for g in gains),
            "max_abs_seed_diff": max(abs(g) for g in gains),
        }
        if name in bounds:
            p, c = summary[name]["parent"]["median"], summary[name]["change"]["median"]
            summary[name]["past_bound"] = sign * (c - p) > bounds[name] * abs(p)
    return summary


def claim(summary: dict, name: str, better: dict[str, str], pairs: int) -> dict:
    """Whether summarize's result over pairs pairs lets a gain in metric
    name be claimed: better in at least 9 of every 10 pairs, and a median
    gain, in better's direction, larger than the parent's interquartile
    range."""
    s = summary[name]
    p, c = s["parent"], s["change"]
    iqr = p["q3"] - p["q1"]
    sign = 1.0 if better.get(name, "lower") == "lower" else -1.0
    gain = sign * (p["median"] - c["median"])
    return {
        "metric": name,
        "pairs_change_better": s["pairs_change_better"],
        "pairs": pairs,
        "median_gain": gain,
        "parent_iqr": iqr,
        "holds": 10 * s["pairs_change_better"] >= 9 * pairs and gain > iqr,
    }


def claim_line(workload: str, c: dict) -> str:
    """One line stating claim's result."""
    return (
        f"{workload} claim {c['metric']}: better in {c['pairs_change_better']}/"
        f"{c['pairs']} pairs, median gain {c['median_gain']:.5g} against parent "
        f"IQR {c['parent_iqr']:.5g}: {'HOLDS' if c['holds'] else 'NOT MET'}"
    )


def past_bound(summary: dict) -> list[str]:
    """The metrics of summarize's result whose change median is past its bound."""
    return [name for name, s in summary.items() if s.get("past_bound")]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="git revision of the parent side")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=int, default=10, help="pairs, seeds 1..N")
    ap.add_argument("--seconds", type=float, default=36.0, help="--seconds of each run")
    ap.add_argument("--parent-label", help="describes the parent (default: its subject)")
    ap.add_argument("--change-label", help="describes the change (default: HEAD + edits)")
    ap.add_argument("--claim", metavar="METRIC", help="end-to-end metric whose gain to test")
    args = ap.parse_args(argv)
    if args.seeds < 2:
        ap.error("--seeds must be at least 2 for quartiles")

    parent_label = args.parent_label or git("log", "-1", "--format=%h %s", args.parent)
    change_label = args.change_label or "working tree on " + git(
        "log", "-1", "--format=%h %s", "HEAD"
    )
    end_to_end = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    better = {m["name"]: m["better"] for m in end_to_end}
    bounds = {m["name"]: m["bound"] for m in end_to_end if "bound" in m}
    if args.claim and args.claim not in better:
        ap.error(f"--claim {args.claim} is not an end-to-end metric of BENCHMARK.json")
    runs, machine = [], None
    with tempfile.TemporaryDirectory(prefix="ab_bench-") as tmp:
        parent_root = Path(tmp)
        export(args.parent, parent_root)
        roots = {"parent": parent_root, "change": ROOT}
        for seed in range(1, args.seeds + 1):
            order = ("parent", "change") if seed % 2 else ("change", "parent")
            pair = {}
            for side in order:
                machine_now, result = run_once(
                    roots[side], args.workload, seed, args.seconds
                )
                machine = machine or machine_now
                pair[side] = {
                    "seed": seed,
                    "side": side,
                    "ran_first": side == order[0],
                    "result": result,
                }
                print(f"ab_bench: {args.workload} seed {seed} {side} done", file=sys.stderr)
            runs += [pair["parent"], pair["change"]]

    summary = summarize(runs, better, bounds)
    doc = {
        "workload": args.workload,
        "command": "python3 perfbench/run.py --workload "
        f"{args.workload} --seed SEED --seconds {args.seconds:g} --trace 0",
        "design": f"{args.seeds} alternating parent/change pairs, seeds 1-{args.seeds}, "
        "seed i on both sides of pair i, parent first on odd seeds; quartiles by "
        "linear interpolation",
        "parent": parent_label,
        "change": change_label,
        "machine": machine,
        "runs": runs,
        "summary": summary,
    }
    if args.claim:
        doc["claim"] = claim(summary, args.claim, better, args.seeds)
    out = ROOT / f"BENCH_{args.workload}.json"
    out.write_text(json.dumps(doc, indent=1) + "\n")
    for name, s in summary.items():
        p, c = s["parent"], s["change"]
        rel = (c["median"] / p["median"] - 1.0) * 100.0 if p["median"] else 0.0
        print(
            f"{name:18s} {p['median']:.5g} [{p['q1']:.5g}, {p['q3']:.5g}] -> "
            f"{c['median']:.5g} [{c['q1']:.5g}, {c['q3']:.5g}] ({rel:+.1f} %), "
            f"better {s['pairs_change_better']}/{args.seeds}, "
            f"worse {s['pairs_change_worse']}/{args.seeds}"
            + (", PAST BOUND" if s.get("past_bound") else "")
        )
    if args.claim:
        print(claim_line(args.workload, doc["claim"]))
    print(f"wrote {out}")
    print(f"{args.workload} past bound: {', '.join(past_bound(summary)) or 'none'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

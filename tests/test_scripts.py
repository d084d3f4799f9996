"""The tooling behind same-outputs and no-regression claims: the summary of
scripts/ab_bench.py and the digest comparison of scripts/output_digest.py,
on synthetic runs, digests and .npz files."""

import json
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def scripts():
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(ROOT / "scripts"))
        import ab_bench
        import output_digest

        yield ab_bench, output_digest


def run(side, seed, **values):
    metrics = {name: {"value": v} for name, v in values.items()}
    return {"side": side, "seed": seed, "result": {"metrics": metrics}}


class TestAbBenchSummary:
    def test_quartiles_and_pairs_follow_the_benchmark_directions(self, scripts):
        ab_bench, _ = scripts
        doc = json.loads((ROOT / "BENCHMARK.json").read_text())
        better = {m["name"]: m["better"] for m in doc["end_to_end"]}
        assert (better["pair_s"], better["fit_psnr_db"]) == ("lower", "higher")
        parent = {"pair_s": [1.0, 2.0, 3.0, 4.0], "fit_psnr_db": [30.0] * 4}
        change = {"pair_s": [0.5, 2.5, 2.0, 4.0], "fit_psnr_db": [31.0, 29.0, 30.0, 32.0]}
        runs = []
        for i, seed in enumerate([1, 2, 3, 4]):
            for side, values in (("parent", parent), ("change", change)):
                runs.append(run(side, seed, **{k: v[i] for k, v in values.items()}))
        summary = ab_bench.summarize(runs, better, {})
        # Inclusive (linear) quartiles of 1, 2, 3, 4.
        assert summary["pair_s"]["parent"] == {"q1": 1.75, "median": 2.5, "q3": 3.25}
        assert summary["pair_s"]["change"]["median"] == 2.25
        # Lower is better: 0.5 < 1 and 2 < 3 win, 2.5 > 2 loses, 4 = 4 ties.
        assert summary["pair_s"]["pairs_change_better"] == 2
        assert summary["pair_s"]["pairs_change_worse"] == 1
        assert summary["pair_s"]["max_abs_seed_diff"] == 1.0
        # Higher is better: 31 and 32 win, 29 loses.
        psnr = summary["fit_psnr_db"]
        assert (psnr["pairs_change_better"], psnr["pairs_change_worse"]) == (2, 1)
        assert psnr["max_abs_seed_diff"] == 2.0


    def test_past_bound_follows_the_benchmark_bounds(self, scripts):
        # A change median worse than the parent's by more than bound *
        # |parent median|, in the metric's direction, is past its bound:
        # setup_s at +27 % against its 25 % is, pair_s at +20 % is not, and
        # a PSNR 6 % lower is past its 5 %; a better median never is.
        ab_bench, _ = scripts
        doc = json.loads((ROOT / "BENCHMARK.json").read_text())
        better = {m["name"]: m["better"] for m in doc["end_to_end"]}
        bounds = {m["name"]: m["bound"] for m in doc["end_to_end"]}
        assert (bounds["setup_s"], bounds["pair_s"], bounds["fit_psnr_db"]) == (
            0.25, 0.25, 0.05
        )
        parent = {"setup_s": 0.1, "pair_s": 1.0, "fit_psnr_db": 30.0, "shared_s": 1.0}
        change = {"setup_s": 0.127, "pair_s": 1.2, "fit_psnr_db": 28.2, "shared_s": 0.5}
        runs = [
            run(side, seed, **values)
            for seed in (1, 2)
            for side, values in (("parent", parent), ("change", change))
        ]
        summary = ab_bench.summarize(runs, better, bounds)
        assert ab_bench.past_bound(summary) == ["setup_s", "fit_psnr_db"]
        assert summary["pair_s"]["past_bound"] is False
        assert summary["shared_s"]["past_bound"] is False
        assert "past_bound" not in ab_bench.summarize(runs, better, {})["setup_s"]


    @staticmethod
    def claim_of(ab_bench, parent, change, name="shared_s"):
        runs = []
        for seed, (p, c) in enumerate(zip(parent, change), start=1):
            runs += [run("parent", seed, **{name: p}), run("change", seed, **{name: c})]
        better = {"shared_s": "lower", "fit_psnr_db": "higher"}
        return ab_bench.claim(ab_bench.summarize(runs, better, {}), name, better, len(parent))

    def test_claim_holds_on_nine_of_ten_pairs_and_a_gap_beyond_the_iqr(self, scripts):
        ab_bench, _ = scripts
        # Parent quartiles 1.0225 / 1.045 / 1.0675 (IQR 0.045); the change
        # is 0.1 lower except in one pair, a tie counting for neither side.
        parent = [1.0 + 0.01 * i for i in range(10)]
        change = [p - 0.1 for p in parent[:9]] + [parent[9]]
        c = self.claim_of(ab_bench, parent, change)
        assert (c["pairs_change_better"], c["pairs"]) == (9, 10)
        assert c["parent_iqr"] == pytest.approx(0.045)
        assert c["median_gain"] == pytest.approx(0.1) and c["holds"] is True
        line = ab_bench.claim_line("interp-x32", c)
        assert line.startswith("interp-x32 claim shared_s: better in 9/10 pairs")
        assert line.endswith(": HOLDS")
        # Higher is better for a PSNR: the same numbers read as a loss.
        c = self.claim_of(ab_bench, parent, change, "fit_psnr_db")
        assert c["pairs_change_better"] == 0 and c["holds"] is False

    def test_claim_misses_on_eight_pairs_or_a_gap_inside_the_iqr(self, scripts):
        ab_bench, _ = scripts
        parent = [1.0 + 0.01 * i for i in range(10)]
        # Eight of ten pairs better, with a large median gain.
        change = [p - 0.1 for p in parent[:8]] + [p + 0.1 for p in parent[8:]]
        c = self.claim_of(ab_bench, parent, change)
        assert c["pairs_change_better"] == 8 and c["median_gain"] > c["parent_iqr"]
        assert c["holds"] is False
        assert ab_bench.claim_line("w", c).endswith(": NOT MET")
        # Ten of ten pairs better, by less than the parent's IQR of 0.045.
        c = self.claim_of(ab_bench, parent, [p - 0.04 for p in parent])
        assert c["pairs_change_better"] == 10 and c["median_gain"] < c["parent_iqr"]
        assert c["holds"] is False


class TestOutputDigest:
    def test_seed_range(self, scripts):
        _, output_digest = scripts
        assert output_digest.seed_range("3") == [3]
        assert output_digest.seed_range("1-10") == list(range(1, 11))
        assert output_digest.seed_range("2-2") == [2]

    @staticmethod
    def side(tmp_path, name, arrays, digest):
        npz = tmp_path / f"{name}.npz"
        np.savez(npz, **arrays)
        return [(k, digest(a)) for k, a in arrays.items()], npz

    @staticmethod
    def arrays():
        rng = np.random.default_rng(0)
        return {
            "seed 1 field0.offsets": rng.uniform(0, 1, (6, 2)),
            "seed 1 t=0.5 derive.offsets": rng.uniform(0, 1, (6, 2)),
            "seed 1 t=0.5 frame": rng.integers(0, 4, (4, 3, 3)) / 4.0,  # exact steps
        }

    def test_identical_digests_compare_equal(self, scripts, tmp_path, capsys):
        _, output_digest = scripts
        par = self.side(tmp_path, "parent", self.arrays(), output_digest.digest)
        chg = self.side(tmp_path, "change", self.arrays(), output_digest.digest)
        assert output_digest.compare("w", "1", par, chg) == 0
        assert capsys.readouterr().out == "w: all 3 arrays bit-equal, seeds 1\n"

    def test_one_changed_array_is_named_with_its_largest_difference(
        self, scripts, tmp_path, capsys
    ):
        _, output_digest = scripts
        changed = self.arrays()
        changed["seed 1 t=0.5 frame"][2, 1, 0] += 0.25
        par = self.side(tmp_path, "parent", self.arrays(), output_digest.digest)
        chg = self.side(tmp_path, "change", changed, output_digest.digest)
        assert output_digest.compare("w", "1", par, chg) == 1
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "w: first difference at seed 1 t=0.5 frame"
        worst = output_digest.largest_differences(par[1], chg[1])
        assert worst == {"endpoint fields": 0.0, "derived fields": 0.0, "frames": 0.25}
        assert out[1].endswith("endpoint fields 0, derived fields 0, frames 0.25")
        assert out[2] == "w: largest frame difference by seed: 1 0.25"

    def test_each_seed_reports_its_own_largest_frame_difference(
        self, scripts, tmp_path, capsys
    ):
        _, output_digest = scripts
        rng = np.random.default_rng(1)
        parent = {
            f"seed {seed} t={t} frame": rng.integers(0, 4, (4, 3, 3)) / 4.0
            for seed in (2, 10)
            for t in (0.25, 0.5)
        }
        parent["seed 2 field0.offsets"] = rng.uniform(0, 1, (6, 2))
        changed = {k: v.copy() for k, v in parent.items()}
        changed["seed 2 t=0.25 frame"][0, 0, 0] += 0.125
        changed["seed 2 t=0.5 frame"][1, 2, 1] -= 0.5
        changed["seed 2 field0.offsets"][0, 0] += 1.0  # not a frame
        changed["seed 10 t=0.5 frame"][3, 0, 2] += 0.25
        par = self.side(tmp_path, "parent", parent, output_digest.digest)
        chg = self.side(tmp_path, "change", changed, output_digest.digest)
        by_seed = output_digest.frame_differences_by_seed(par[1], chg[1])
        assert by_seed == {2: 0.5, 10: 0.25}
        assert output_digest.compare("w", "2-10", par, chg) == 1
        out = capsys.readouterr().out.splitlines()
        assert out[-1] == "w: largest frame difference by seed: 2 0.5, 10 0.25"

    def test_a_shape_change_is_an_infinite_difference(self, scripts, tmp_path):
        _, output_digest = scripts
        changed = self.arrays()
        changed["seed 1 field0.offsets"] = changed["seed 1 field0.offsets"][:5]
        par = self.side(tmp_path, "parent", self.arrays(), output_digest.digest)
        chg = self.side(tmp_path, "change", changed, output_digest.digest)
        worst = output_digest.largest_differences(par[1], chg[1])
        assert worst["endpoint fields"] == np.inf and worst["frames"] == 0.0

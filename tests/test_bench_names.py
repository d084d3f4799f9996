"""Every name the benchmark harness binds must exist in the package.

perfbench/tracing.py wraps each SPANNED function by name and perfbench/run.py
calls public names, so deleting one of them breaks the benchmark; this test
makes such a deletion fail here instead.  The same holds for the
PipelineOptions attributes that perfbench reads and replaces, the keywords
it builds FitConfig and PipelineOptions with, the arguments it calls
motion.scale_flows with, and the SharedContext attributes it reads.
"""

import dataclasses
import importlib
from pathlib import Path

import numpy as np

import splatvid
from splatvid import cpb, motion, pipeline, synth
from splatvid.core import Density
from splatvid.fit import FitConfig
from splatvid.pipeline import PipelineOptions
from splatvid.raster import Normalization, RenderConfig

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_spanned_names_are_callables(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    for mod_name, fns in tracing.SPANNED.items():
        mod = importlib.import_module(f"splatvid.{mod_name}")
        for fn in fns:
            assert callable(getattr(mod, fn, None)), f"splatvid.{mod_name}.{fn}"


def test_public_names_resolve():
    for name in splatvid.__all__:
        assert hasattr(splatvid, name), name


def test_render_options_read_by_quality():
    # perfbench/run.py quality() renders field 0 with these three values.
    opts = PipelineOptions()
    cfg = RenderConfig(
        scale=2.0,
        truncation_radius=opts.truncation_radius,
        normalization=opts.normalization,
        clamp_output=opts.clamp_output,
    )
    assert (cfg.truncation_radius, cfg.normalization, cfg.clamp_output) == (
        3.0,
        Normalization.PAPER_DET,
        True,
    )


def test_options_replaced_by_workloads_and_run():
    # perfbench/workloads.py and run.py replace these fields on a workload's
    # options.
    bank = cpb.default_bank()
    fuser = cpb.baseline_fuser(bank)
    fit = FitConfig(iterations=1, normalization=Normalization.SQRT_DET)
    opts = dataclasses.replace(
        PipelineOptions(), fit=fit, refine_iterations=1, bank=bank, fuser=fuser
    )
    assert opts.fit is fit and opts.refine_iterations == 1
    assert opts.bank is bank and opts.fuser is fuser
    assert opts.normalization is Normalization.SQRT_DET


def test_keywords_perfbench_builds_options_with():
    # perfbench/workloads.py _opts and perfbench/smoke.py build options with
    # exactly these keywords.
    fit = FitConfig(iterations=2, truncation_radius=3.0)
    opts = PipelineOptions(fit=fit, refine_iterations=0)
    assert opts.fit.iterations == 2 and opts.fit.truncation_radius == 3.0
    opts = PipelineOptions(
        density=Density.ONE_PER_FOUR_PIXELS, fit=fit, refine_iterations=0
    )
    assert opts.density is Density.ONE_PER_FOUR_PIXELS
    opts = PipelineOptions(fit=FitConfig(iterations=1), refine_iterations=0)
    assert opts.fit.iterations == 1 and opts.refine_iterations == 0
    # perfbench/run.py shortens a workload's fit for its warm-up pair.
    assert dataclasses.replace(fit, iterations=1).iterations == 1


def test_scale_flows_takes_the_spanned_arguments():
    # perfbench/tracing.py spans motion.scale_flows(m01, m10, t).
    m01 = synth.uniform_flow(4, 3, 2.0, 0.0)
    m10 = synth.uniform_flow(4, 3, -2.0, 0.0)
    m_t0 = motion.scale_flows(m01, m10, 0.25)
    assert np.array_equal(m_t0.vectors, 0.25 * m10.vectors)


def test_context_attributes_read_by_run():
    # perfbench/run.py reads these from a built context; acceptance
    # criterion 7 replaces the options of a built (frozen) context.
    frame0, frame1, m01, m10 = synth.translating_blob_pair(8, 6, (1.0, 0.0), radius=1.5)
    opts = PipelineOptions(fit=FitConfig(iterations=1), refine_iterations=0)
    ctx = pipeline.build_shared_context(frame0, frame1, (m01, m10), opts)
    assert ctx.field0.lr_width == ctx.field1.lr_width == 8
    assert ctx.options is opts
    assert ctx.stage_counters == {"flow-load": 1, "fit": 1, "window-map": 1}
    other = dataclasses.replace(opts, aow=False)
    local = dataclasses.replace(ctx, options=other)
    assert local.options is other and local.field0 is ctx.field0
    assert ctx.options is opts

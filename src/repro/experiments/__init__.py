"""Experiment drivers: one module per table / figure of the paper.

* Tables 1-4: :mod:`repro.experiments.tables`
* Figure 1:   :mod:`repro.experiments.fig1_stage_speedup`
* Figure 2:   :mod:`repro.experiments.fig2_preparator_speedup`
* Figure 3:   :mod:`repro.experiments.fig3_io_read`
* Figure 4:   :mod:`repro.experiments.fig4_io_write`
* Figure 5:   :mod:`repro.experiments.fig5_pipeline_speedup`
* Figure 6:   :mod:`repro.experiments.fig6_scalability`
* Table 5:    :mod:`repro.experiments.table5_min_config`
* Figure 7:   :mod:`repro.experiments.fig7_tpch`
* Figure 8:   :mod:`repro.experiments.fig8_out_of_core` (extension: eager vs
  streaming execution on a memory-constrained machine)
* Figure 9:   :mod:`repro.experiments.fig9_advisor` (extension: advisor
  accuracy — predicted-fastest configuration vs the measured winner)
* Everything: :mod:`repro.experiments.report`

Every driver runs its matrix slice through :class:`repro.Session` and
aggregates the returned :class:`~repro.results.ResultSet`; pass an existing
session as ``setup=`` to share generated datasets and engines across drivers.
"""

from .context import ExperimentConfig
from .common import prepare

__all__ = ["ExperimentConfig", "prepare"]

"""Evaluation harness: the paper's Table I and Figures 2-3, plus the
scaling artifacts (``clusterscale``, ``socscale``).

Artifacts are built on the unified experiment API (:mod:`repro.api`):
each module registers itself with ``@artifact(...)`` and runs its
measurements through ``Workload``/``Backend``/``Sweep``.  Figure 2's
paired-variant view (:class:`KernelMeasurement` over two
:class:`repro.api.RunRecord` objects) and :func:`geomean` live in
:mod:`repro.eval.fig2`.
"""

from .parallel import default_jobs, run_sharded

# Importing the artifact modules populates the ``repro.api`` artifact
# registry, so library users see the same registry the CLI dispatches
# from (not just after a ``python -m repro.eval`` run).
from . import (  # noqa: F401
    clusterscale,
    composite,
    fig2,
    fig3,
    report,
    socscale,
    streamscale,
    table1,
)
from .fig2 import KernelMeasurement, VariantMeasurement, geomean

__all__ = [
    "KernelMeasurement",
    "VariantMeasurement",
    "default_jobs",
    "geomean",
    "run_sharded",
]

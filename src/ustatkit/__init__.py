"""U-statistic toolkit: enumeration, decomposition, tails, and experiments.

The package computes complete, weighted, and incomplete U-statistics whose
kernels take values in a finite-dimensional space equipped with an l^s norm,
decomposes kernels into degenerate Hoeffding components, and runs empirical
verification experiments for the deviation, moment, weak-norm, and tightness
bounds that govern such statistics.
"""

__version__ = "0.1.0"

import os as _os
import sys as _sys

# numpy's bundled OpenBLAS starts a worker thread per core inside `import
# numpy`, which costs more than most runs here, whose products are too
# small to repay it; and a threaded ddot sums in an order set by the core
# count, which moves the last bits of tails.norm_moment.  So when ustatkit
# loads numpy, it loads a one-thread BLAS, unless the user chose a thread
# count (once numpy is loaded the variable could no longer take effect).
if "numpy" not in _sys.modules and not any(
        name in _os.environ
        for name in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")):
    _os.environ["OPENBLAS_NUM_THREADS"] = "1"
del _os, _sys

from .combinatorics import (
    count_tuples,
    enumerate_tuples,
    rank_tuple,
    unrank_many,
    unrank_tuple,
)
from .harness import ExperimentConfig, InequalityReport, run_experiment
from .hoeffding import (
    check_degeneracy,
    project_component,
    project_degenerate_level,
    reconstruct_identity_check,
)
from .holder import (
    HolderParams,
    calibrate_epsilon,
    dyadic_increment_exceedance,
    holder_norm,
    holder_norm_grid,
    holder_norm_quantiles,
    holder_norms,
)
from .incomplete import (
    SamplingDesign,
    WeightSet,
    bernoulli_sum_moment_check,
    draw_design,
    incomplete_ustat,
)
from .kernels import (
    Distribution,
    Kernel,
    builtin_kernel,
    kernel_from_expression,
    stream,
)
from .spaces import BanachSpaceDescriptor, real_line
from .tails import (
    EmpiricalTail,
    conditional_moment_tail,
    norm_moment,
    tail_integral,
    weak_lp_norm,
)
from .ustat import (
    PartialSumPath,
    UStatResult,
    complete_ustat,
    decomposition_identity_check,
    partial_sum_path,
    projection_ustat,
)

__all__ = [
    "__version__",
    "BanachSpaceDescriptor",
    "Distribution",
    "EmpiricalTail",
    "ExperimentConfig",
    "HolderParams",
    "InequalityReport",
    "Kernel",
    "PartialSumPath",
    "SamplingDesign",
    "UStatResult",
    "WeightSet",
    "bernoulli_sum_moment_check",
    "builtin_kernel",
    "calibrate_epsilon",
    "check_degeneracy",
    "complete_ustat",
    "conditional_moment_tail",
    "count_tuples",
    "decomposition_identity_check",
    "draw_design",
    "dyadic_increment_exceedance",
    "enumerate_tuples",
    "holder_norm",
    "holder_norm_grid",
    "holder_norm_quantiles",
    "holder_norms",
    "incomplete_ustat",
    "kernel_from_expression",
    "norm_moment",
    "partial_sum_path",
    "project_component",
    "project_degenerate_level",
    "projection_ustat",
    "rank_tuple",
    "real_line",
    "reconstruct_identity_check",
    "run_experiment",
    "stream",
    "tail_integral",
    "unrank_many",
    "unrank_tuple",
    "weak_lp_norm",
]

"""Bootstrap inference for large precision matrices under temporal
dependence: node-wise Lasso estimation with bias correction, kernel long-run
covariance estimation, and kernel multiplier bootstrap confidence regions,
tests and support recovery."""

__version__ = "0.1.0"

from .bootstrap import (
    BootstrapConfig,
    BootstrapResult,
    gaussian_mult_factor,
    kmb_draws,
)
from .core import (
    Dataset,
    IndexSet,
    RngSpec,
    SymMatrix,
    center,
    index_set_all_offdiag,
    index_set_from_blocks,
)
from .errors import PrecbootError
from .inference import (
    BlockTestResult,
    TestOutcome,
    bh_select,
    block_test_matrix,
    recover_support,
    test_structure,
)
from .longrun import (
    KernelSpec,
    andrews_bandwidth,
    kernel_eval,
    multiplier_cov,
    w_diag,
)
from .nodewise import LassoConfig, NodewiseFit, fit_all
from .pipeline import PipelineFit, fit_pipeline
from .precision import estimate_omega, estimate_v
from .simulate import (
    CoverageReport,
    DgpSpec,
    build_sigma,
    coverage_experiment,
    generate,
    true_zero_set,
)

__all__ = [name for name in dir() if not name.startswith("_")]

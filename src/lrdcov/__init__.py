"""Simultaneous inference for covariance and precision matrices of
long-range dependent Gaussian time series.

The package covers process modelling (analytic autocovariances, precision,
Gaussian reference covariances), fast FFT batch simulation, covariance and
precision estimation, block-bootstrap confidence regions, two-sample
distances, a Monte-Carlo experiment harness, and a real-data graph pipeline.
"""

from .bootstrap import (BootstrapDistribution, ConfidenceRegion, DefaultBlocks,
                        FixedBlocks, TheoreticalBlocks, confidence_region,
                        covariance_blocks, default_block_length, precision_blocks,
                        quantile, resolve_block_length, theoretical_block_length)
from .errors import (DimensionTooLargeError, HighDimensionError, InvalidPlanError,
                     LrdcovError, MemoryBudgetError, NearSingularError,
                     NotInvertibleError, OutOfRegimeError, TruncationExceededError,
                     ZeroVarianceError)
from .estimate import EstimateResult, max_deviation, sample_covariance, sample_precision
from .gaussref import GaussianReference, MatrixReference, build_reference, sample_max_abs
from .harness import (ALL_TARGETS, CellResult, ExperimentConfig, SkippedTarget,
                      run_cell, run_grid)
from .metrics import (DistanceReport, distance_report, ecdf_points,
                      kolmogorov_distance, qq_pairs, wasserstein1)
from .model import (CoefficientSpec, ProcessTruth, autocovariance,
                    autocovariance_sequence, banded_spec, beta_tilde, coefficient,
                    condition1_constant, condition2_partial, custom_spec,
                    gamma_tail_bound, gaussian_long_run_covariance,
                    omega_transformed_long_run, process_truth, theoretical_rates,
                    toeplitz_spec)
from .pipeline import (AcfSignificance, EdgeSet, EdgeStat, SubjectSeries,
                       acf_significance, aggregate_group, hurst_exponent, ingest,
                       subject_diagnostics, subject_graph, write_diagnostics_csv,
                       write_edges_csv)
from .simulate import (SampleBatch, SimulationPlan, load_batch, save_batch,
                       simulate_multidimensional)

__version__ = "0.1.0"

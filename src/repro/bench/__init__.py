"""Benchmark/experiment harness regenerating the paper's evaluation.

``repro.bench`` is consumed by the pytest files under ``benchmarks/``:
:mod:`~repro.bench.runner` owns the shared (cached) datasets and scale
knobs, :mod:`~repro.bench.campaign` the parallel fault-tolerant
measurement-campaign engine behind them, :mod:`~repro.bench.experiments`
implements one function per table/figure, and
:mod:`~repro.bench.tables` renders results next to the paper's reported
numbers.
"""

from .campaign import (  # noqa: F401
    CampaignProgress,
    CampaignResult,
    MatrixResult,
    run_campaign,
)

from .experiments import (  # noqa: F401
    MODELS,
    classification_accuracy,
    classification_table,
    corpus_statistics,
    feature_importance,
    format_gflops_sweep,
    imp_features_table,
    indirect_vs_direct,
    regression_rme_by_feature_set,
    regression_rme_per_format,
    slowdown_analysis,
    twin_matrices,
)
from .runner import (  # noqa: F401
    CONFIGS,
    bench_config,
    bench_corpus,
    bench_dataset,
)
from .tables import caption, format_pct, render_series, render_table  # noqa: F401

__all__ = [
    "CONFIGS",
    "MODELS",
    "CampaignProgress",
    "CampaignResult",
    "MatrixResult",
    "run_campaign",
    "bench_config",
    "bench_corpus",
    "bench_dataset",
    "corpus_statistics",
    "twin_matrices",
    "format_gflops_sweep",
    "classification_accuracy",
    "classification_table",
    "imp_features_table",
    "feature_importance",
    "slowdown_analysis",
    "regression_rme_by_feature_set",
    "regression_rme_per_format",
    "indirect_vs_direct",
    "render_table",
    "render_series",
    "format_pct",
    "caption",
]

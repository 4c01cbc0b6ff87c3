"""autocast: automated model selection and forecasting for sales series."""

from .errors import (
    AutocastError,
    ConfigError,
    DegenerateSampleError,
    EvaluationError,
    ExportError,
    IngestError,
    SynthSpecError,
)
from .evaluation import (
    ErrorRatio,
    EvaluationSummary,
    error_ratio,
    summarize,
    wilcoxon_signed_rank,
    write_evaluation,
)
from .export import export_bundle, read_export_dir
from .ingest import Validity, check_validity, ingest_sales, load_sales_csv, read_sales_csv, write_sales_csv
from .metrics import MetricSet, compute_metric_set
from .models.base import MODEL_PRIORITY, BaseForecaster, ModelId, NotFittedError, priority_rank
from .pipeline import (
    ForecastBundle,
    PipelineConfig,
    ValidationReport,
    finalize_and_forecast,
    parse_config,
    run_pipeline,
    run_validation,
)
from .series import ForecastResult, Frequency, Period, SalesSeries, split_holdout
from .synth import Archetype, ArchetypeSpec, generate_corpus, generate_product, load_spec_file

__version__ = "0.1.0"

__all__ = [
    "Archetype",
    "ArchetypeSpec",
    "AutocastError",
    "BaseForecaster",
    "ConfigError",
    "DegenerateSampleError",
    "ErrorRatio",
    "EvaluationError",
    "EvaluationSummary",
    "ExportError",
    "ForecastBundle",
    "ForecastResult",
    "Frequency",
    "IngestError",
    "MODEL_PRIORITY",
    "MetricSet",
    "ModelId",
    "NotFittedError",
    "Period",
    "PipelineConfig",
    "SalesSeries",
    "SynthSpecError",
    "ValidationReport",
    "Validity",
    "check_validity",
    "compute_metric_set",
    "error_ratio",
    "export_bundle",
    "finalize_and_forecast",
    "generate_corpus",
    "generate_product",
    "ingest_sales",
    "load_sales_csv",
    "load_spec_file",
    "parse_config",
    "priority_rank",
    "read_export_dir",
    "read_sales_csv",
    "run_pipeline",
    "run_validation",
    "split_holdout",
    "summarize",
    "wilcoxon_signed_rank",
    "write_evaluation",
    "write_sales_csv",
    "__version__",
]

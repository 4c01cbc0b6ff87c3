"""autocast: automated model selection and forecasting for sales series.

The package root re-exports nothing. The API lives in `autocast.pipeline`
(`run_pipeline`), `autocast.ingest`, `autocast.export`, `autocast.evaluation`,
`autocast.synth` and `autocast.cli`, the `autocast` command.
"""

# Kept only so that importing any autocast module still loads the pipeline and
# its models: perfbench/setup_corpus.py times that import, and the host-speed
# sampler fails on a set-up too short to hold one speed sample.
from . import evaluation, pipeline, synth  # noqa: F401

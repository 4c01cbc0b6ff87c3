"""The per-product and pooled forecasting models, one module per family, and their fit kernels."""

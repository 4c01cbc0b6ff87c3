"""The shared dilated causal CNN: the network in ``network``, its training and forecasting in ``training``."""

"""flowsketch: fixed-memory streaming traffic sketches, per-bucket
anomaly detectors, and a configuration sweep with Pareto comparison."""

__version__ = "0.1.0"

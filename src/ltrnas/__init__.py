"""Learning-to-rank surrogate search over tabular architecture spaces."""

from . import ltr, metrics, nn, search, space

__version__ = "0.1.0"

__all__ = ["cli", "ltr", "metrics", "nn", "search", "space", "__version__"]

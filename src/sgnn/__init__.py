"""Stochastic graph neural networks with variance-constrained training.

Subpackage map:

- ``graphs``        graphs, shift operators, GRES(p,q) sampling
- ``model``         stochastic graph filters, SGNN forward/backward
- ``estimators``    Monte-Carlo moment and cost estimation
- ``training``      losses, Lagrangian, one training loop for every mode
- ``verify``        executable checks of the closed-form bounds
- ``experiments``   source localization and recommender-system pipelines
- ``cli``           command-line entry point (``sgnn ...``)
"""

from . import errors, rng  # noqa: F401

__version__ = "0.1.0"

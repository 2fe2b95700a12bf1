"""Fairness-aware recommendation training via multi-objective Pareto
optimization, plus the evaluation harness for accuracy, fairness, and
diversity of the resulting recommender."""

__version__ = "0.1.0"

"""Deployment analysis tools: link budgets and coverage maps."""

from repro.analysis.coverage import CoverageMap
from repro.analysis.linkbudget import LinkBudget

__all__ = ["CoverageMap", "LinkBudget"]

"""Deployment analysis tools: link budgets and coverage maps."""

from repro.exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.analysis.coverage": ["CoverageMap"],
    "repro.analysis.linkbudget": ["LinkBudget"],
})

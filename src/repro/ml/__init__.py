"""Learning substrate: SVMs, trees, forests, scaling, metrics."""

from repro.exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.ml.forest": ["RandomForestClassifier"],
    "repro.ml.kernels": [
        "KernelSVM", "MultiClassKernelSVM", "linear_kernel", "poly_kernel",
        "rbf_kernel"],
    "repro.ml.metrics": [
        "accuracy", "confusion_matrix", "precision_recall_f1"],
    "repro.ml.preprocessing": ["StandardScaler"],
    "repro.ml.svm": ["LinearSVM", "MultiClassSVM"],
    "repro.ml.tree": ["DecisionTreeClassifier"],
})

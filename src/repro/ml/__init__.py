"""Learning substrate: SVMs, trees, forests, scaling, metrics."""

from repro.ml.forest import RandomForestClassifier
from repro.ml.kernels import (
    KernelSVM,
    MultiClassKernelSVM,
    linear_kernel,
    poly_kernel,
    rbf_kernel,
)
from repro.ml.metrics import accuracy, confusion_matrix, precision_recall_f1
from repro.ml.preprocessing import StandardScaler
from repro.ml.svm import LinearSVM, MultiClassSVM
from repro.ml.tree import DecisionTreeClassifier

__all__ = [
    "RandomForestClassifier", "KernelSVM", "MultiClassKernelSVM",
    "linear_kernel", "poly_kernel", "rbf_kernel", "accuracy",
    "confusion_matrix", "precision_recall_f1", "StandardScaler", "LinearSVM",
    "MultiClassSVM", "DecisionTreeClassifier",
]

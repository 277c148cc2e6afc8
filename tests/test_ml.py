"""Tests for the learning substrate (the sklearn replacement)."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, NotFittedError
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


def _blobs(rng, n_per=60, spread=0.7):
    centers = np.array([[0.0, 0.0], [4.0, 1.0], [1.0, 5.0]])
    x = np.vstack([rng.normal(c, spread, size=(n_per, 2)) for c in centers])
    y = np.array(["a"] * n_per + ["b"] * n_per + ["c"] * n_per)
    return x, y


class TestStandardScaler:
    def test_zero_mean_unit_variance(self, rng):
        x = rng.normal(5.0, 3.0, size=(200, 4))
        z = StandardScaler().fit_transform(x)
        assert np.allclose(z.mean(axis=0), 0.0, atol=1e-9)
        assert np.allclose(z.std(axis=0), 1.0, atol=1e-9)

    def test_constant_feature_maps_to_zero(self):
        x = np.column_stack([np.ones(10), np.arange(10.0)])
        z = StandardScaler().fit_transform(x)
        assert np.allclose(z[:, 0], 0.0)

    def test_inverse_transform_roundtrip(self, rng):
        x = rng.normal(size=(50, 3))
        sc = StandardScaler().fit(x)
        assert np.allclose(sc.inverse_transform(sc.transform(x)), x)

    def test_not_fitted(self):
        with pytest.raises(NotFittedError):
            StandardScaler().transform(np.ones((2, 2)))

    def test_requires_2d(self):
        with pytest.raises(ValueError):
            StandardScaler().fit(np.ones(5))


class TestLinearSVM:
    def test_separable_binary(self, rng):
        x = np.vstack([rng.normal(-2, 0.5, (50, 2)), rng.normal(2, 0.5, (50, 2))])
        y = np.array([-1.0] * 50 + [1.0] * 50)
        m = LinearSVM().fit(x, y)
        assert accuracy(y, m.predict(x)) > 0.97

    def test_label_validation(self):
        with pytest.raises(ConfigurationError):
            LinearSVM().fit(np.ones((4, 2)), np.array([0.0, 1.0, 0.0, 1.0]))

    def test_not_fitted(self):
        with pytest.raises(NotFittedError):
            LinearSVM().predict(np.ones((1, 2)))

    def test_deterministic_given_seed(self, rng):
        x = rng.normal(size=(60, 3))
        y = np.where(x[:, 0] > 0, 1.0, -1.0)
        w1 = LinearSVM(seed=5).fit(x, y).weights_
        w2 = LinearSVM(seed=5).fit(x, y).weights_
        assert np.array_equal(w1, w2)

    def test_pegasos_projection_bounds_the_bias(self, rng):
        """Regression: the projection must cover the augmented (w, b)
        vector. Projecting w alone leaves the bias unregularised — on a
        skewed label stream it grows without limit and silently overrules
        the features."""
        x = rng.normal(0.0, 0.1, size=(200, 2))
        y = np.where(np.arange(200) % 20 == 0, -1.0, 1.0)  # 95% positive
        m = LinearSVM(lam=1.0, epochs=50).fit(x, y)
        cap = 1.0 / np.sqrt(m.lam)
        norm = float(np.sqrt(m.weights_ @ m.weights_ + m.bias_**2))
        assert norm <= cap + 1e-9
        assert abs(m.bias_) <= cap + 1e-9

    def test_projection_does_not_hurt_separable_fit(self, rng):
        x = np.vstack([rng.normal(-2, 0.5, (50, 2)),
                       rng.normal(2, 0.5, (50, 2))])
        y = np.array([-1.0] * 50 + [1.0] * 50)
        m = LinearSVM(lam=1e-3).fit(x, y)
        assert accuracy(y, m.predict(x)) > 0.97
        cap = 1.0 / np.sqrt(m.lam)
        assert float(np.sqrt(m.weights_ @ m.weights_ + m.bias_**2)) <= cap


class TestMultiClassSVM:
    def test_three_blobs(self, rng):
        x, y = _blobs(rng)
        m = MultiClassSVM().fit(x, y)
        assert accuracy(y, m.predict(x)) > 0.95

    def test_margin_positive_on_confident(self, rng):
        x, y = _blobs(rng)
        m = MultiClassSVM().fit(x, y)
        assert np.mean(m.margin(x) > 0) > 0.8

    def test_needs_two_classes(self):
        with pytest.raises(ConfigurationError):
            MultiClassSVM().fit(np.ones((3, 2)), ["a", "a", "a"])

    def test_exact_tie_breaks_to_lowest_label(self, rng, monkeypatch):
        """Regression: an exactly symmetric margin must classify the same
        way on every run and platform — argmax is first-wins over the
        sorted class list, so ties go to the smallest label."""
        x, y = _blobs(rng)
        m = MultiClassSVM(epochs=3).fit(x, y)
        monkeypatch.setattr(
            m, "decision_matrix", lambda xs: np.zeros((len(xs), 3))
        )
        assert list(m.predict(np.zeros((4, 2)))) == ["a"] * 4


class TestKernels:
    def test_linear_kernel_is_gram(self, rng):
        a = rng.normal(size=(5, 3))
        assert np.allclose(linear_kernel(a, a), a @ a.T)

    def test_rbf_diag_is_one(self, rng):
        a = rng.normal(size=(6, 2))
        k = rbf_kernel(0.5)(a, a)
        assert np.allclose(np.diag(k), 1.0)
        assert np.all(k <= 1.0 + 1e-12)

    def test_rbf_validation(self):
        with pytest.raises(ConfigurationError):
            rbf_kernel(0.0)

    def test_poly_degree_one_matches_linear_plus_coef(self, rng):
        a = rng.normal(size=(4, 2))
        assert np.allclose(poly_kernel(1, 0.0)(a, a), linear_kernel(a, a))

    def test_kernel_svm_solves_xor(self, rng):
        # XOR is not linearly separable; RBF must solve it.
        x = np.array([[0, 0], [0, 1], [1, 0], [1, 1]] * 20, dtype=float)
        x += rng.normal(0, 0.05, x.shape)
        y = np.array([(-1.0) ** (int(round(a)) ^ int(round(b))) for a, b in x])
        m = KernelSVM(rbf_kernel(4.0)).fit(x, y)
        assert accuracy(y, m.predict(x)) > 0.95
        lin = LinearSVM().fit(x, y)
        assert accuracy(y, lin.predict(x)) < 0.8

    def test_multiclass_kernel_svm(self, rng):
        x, y = _blobs(rng)
        m = MultiClassKernelSVM(rbf_kernel(0.5)).fit(x, y)
        assert accuracy(y, m.predict(x)) > 0.95


class TestDecisionTree:
    def test_fits_blobs(self, rng):
        x, y = _blobs(rng)
        t = DecisionTreeClassifier().fit(x, y)
        assert accuracy(y, t.predict(x)) > 0.95

    def test_max_depth_limits_depth(self, rng):
        x, y = _blobs(rng, spread=2.0)
        t = DecisionTreeClassifier(max_depth=2).fit(x, y)
        assert t.depth() <= 2

    def test_pure_node_becomes_leaf(self):
        x = np.array([[0.0], [1.0], [2.0]])
        t = DecisionTreeClassifier().fit(x, ["a", "a", "a"])
        assert t.depth() == 0

    def test_min_samples_leaf(self, rng):
        x = rng.normal(size=(10, 1))
        y = np.where(x[:, 0] > 0, "a", "b")
        t = DecisionTreeClassifier(min_samples_leaf=5).fit(x, y)
        assert t.depth() <= 1

    def test_not_fitted(self):
        with pytest.raises(NotFittedError):
            DecisionTreeClassifier().predict(np.ones((1, 2)))


class TestRandomForest:
    def test_fits_blobs(self, rng):
        x, y = _blobs(rng)
        f = RandomForestClassifier(n_trees=15).fit(x, y)
        assert accuracy(y, f.predict(x)) > 0.95

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            RandomForestClassifier(n_trees=0).fit(np.ones((4, 2)),
                                                  ["a", "b", "a", "b"])

    def test_deterministic(self, rng):
        x, y = _blobs(rng, n_per=30)
        p1 = RandomForestClassifier(n_trees=8, seed=3).fit(x, y).predict(x)
        p2 = RandomForestClassifier(n_trees=8, seed=3).fit(x, y).predict(x)
        assert np.array_equal(p1, p2)


class TestMetrics:
    def test_confusion_matrix(self):
        c, labels = confusion_matrix(["a", "a", "b"], ["a", "b", "b"])
        assert labels == ["a", "b"]
        assert c.tolist() == [[1, 1], [0, 1]]

    def test_accuracy(self):
        assert accuracy(["a", "b"], ["a", "a"]) == 0.5
        with pytest.raises(ConfigurationError):
            accuracy([], [])

    def test_perfect_prf(self):
        m = precision_recall_f1(["a", "b", "c"], ["a", "b", "c"])
        assert m == {"precision": 1.0, "recall": 1.0, "f1": 1.0}

    def test_macro_vs_micro(self):
        y_true = ["a"] * 8 + ["b"] * 2
        y_pred = ["a"] * 10
        macro = precision_recall_f1(y_true, y_pred, average="macro")
        micro = precision_recall_f1(y_true, y_pred, average="micro")
        assert macro["recall"] == pytest.approx(0.5)  # b fully missed
        assert micro["recall"] == pytest.approx(0.8)

    def test_average_validation(self):
        with pytest.raises(ConfigurationError):
            precision_recall_f1(["a"], ["a"], average="weighted")

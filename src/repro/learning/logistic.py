"""Binary logistic regression trained by batch gradient descent.

The attribute-correspondence classifier of the paper "employ[s] a
classifier that uses logistic regression" (Section 3.2) over six
distributional-similarity features.  At that dimensionality a simple,
dependency-free implementation — batch gradient descent with L2
regularisation, feature standardisation and early stopping — is both fast
and deterministic, which matters for reproducible experiments.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.learning.datasets import LabeledDataset

__all__ = ["LogisticRegressionClassifier"]


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # Clip to keep exp() well-behaved for extreme logits.
    return 1.0 / (1.0 + np.exp(-np.clip(z, -35.0, 35.0)))


@dataclass
class _Standardizer:
    """Per-feature standardisation fitted on the training set."""

    mean: np.ndarray
    scale: np.ndarray

    @classmethod
    def fit(cls, features: np.ndarray) -> "_Standardizer":
        """Estimate per-feature mean and scale from the training matrix."""
        mean = features.mean(axis=0)
        scale = features.std(axis=0)
        scale = np.where(scale < 1e-12, 1.0, scale)
        return cls(mean=mean, scale=scale)

    def transform(self, features: np.ndarray) -> np.ndarray:
        """Apply the fitted standardisation to a feature matrix."""
        return (features - self.mean) / self.scale


class LogisticRegressionClassifier:
    """L2-regularised binary logistic regression.

    Parameters
    ----------
    learning_rate:
        Gradient-descent step size.
    l2_penalty:
        Strength of the L2 regulariser (applied to weights, not the bias).
    max_iterations:
        Upper bound on gradient-descent iterations.
    tolerance:
        Early-stopping threshold on the loss improvement per iteration.
    class_weight:
        ``"balanced"`` re-weights examples inversely to class frequency
        (useful because name-identity training sets are imbalanced),
        ``None`` leaves examples unweighted.

    Examples
    --------
    >>> import numpy as np
    >>> clf = LogisticRegressionClassifier()
    >>> X = np.array([[0.0], [0.1], [0.9], [1.0]])
    >>> y = np.array([0.0, 0.0, 1.0, 1.0])
    >>> _ = clf.fit(X, y)
    >>> bool(clf.predict_proba(np.array([[0.95]]))[0] > 0.5)
    True
    """

    def __init__(
        self,
        learning_rate: float = 0.5,
        l2_penalty: float = 1e-3,
        max_iterations: int = 2000,
        tolerance: float = 1e-7,
        class_weight: Optional[str] = "balanced",
    ) -> None:
        if learning_rate <= 0:
            raise ValueError(f"learning_rate must be positive, got {learning_rate}")
        if l2_penalty < 0:
            raise ValueError(f"l2_penalty must be non-negative, got {l2_penalty}")
        if max_iterations < 1:
            raise ValueError(f"max_iterations must be >= 1, got {max_iterations}")
        if class_weight not in (None, "balanced"):
            raise ValueError(f"unsupported class_weight: {class_weight!r}")
        self.learning_rate = learning_rate
        self.l2_penalty = l2_penalty
        self.max_iterations = max_iterations
        self.tolerance = tolerance
        self.class_weight = class_weight
        self.weights: Optional[np.ndarray] = None
        self.bias: float = 0.0
        self._standardizer: Optional[_Standardizer] = None
        self.n_iterations_: int = 0

    # -- training ---------------------------------------------------------

    def fit(
        self, features: np.ndarray, labels: np.ndarray
    ) -> "LogisticRegressionClassifier":
        """Fit the model on a dense feature matrix and binary label vector.

        Raises
        ------
        ValueError
            On shape mismatches, empty input or single-class labels.
        """
        features = np.asarray(features, dtype=float)
        labels = np.asarray(labels, dtype=float)
        if features.ndim != 2:
            raise ValueError(f"features must be 2-dimensional, got shape {features.shape}")
        if features.shape[0] != labels.shape[0]:
            raise ValueError(
                f"feature rows ({features.shape[0]}) and labels ({labels.shape[0]}) differ"
            )
        if features.shape[0] == 0:
            raise ValueError("cannot fit on an empty dataset")
        unique_labels = set(np.unique(labels).tolist())
        if not unique_labels.issubset({0.0, 1.0}):
            raise ValueError(f"labels must be binary (0/1), got {sorted(unique_labels)}")
        if len(unique_labels) < 2:
            raise ValueError("training data must contain both classes")

        self._standardizer = _Standardizer.fit(features)
        X = self._standardizer.transform(features)
        y = labels
        n_samples, n_features = X.shape

        sample_weights = np.ones(n_samples)
        if self.class_weight == "balanced":
            positive_fraction = y.mean()
            # weight(class) = n_samples / (2 * n_class)
            weight_positive = 0.5 / max(positive_fraction, 1e-12)
            weight_negative = 0.5 / max(1.0 - positive_fraction, 1e-12)
            sample_weights = np.where(y > 0.5, weight_positive, weight_negative)
        weight_total = sample_weights.sum()

        weights = np.zeros(n_features)
        bias = 0.0
        previous_loss = np.inf
        for iteration in range(1, self.max_iterations + 1):
            logits = X @ weights + bias
            probabilities = _sigmoid(logits)
            errors = probabilities - y

            gradient_w = (X.T @ (sample_weights * errors)) / weight_total
            gradient_w += self.l2_penalty * weights
            gradient_b = float((sample_weights * errors).sum() / weight_total)

            weights -= self.learning_rate * gradient_w
            bias -= self.learning_rate * gradient_b

            loss = self._loss(probabilities, y, sample_weights, weights, weight_total)
            if abs(previous_loss - loss) < self.tolerance:
                self.n_iterations_ = iteration
                break
            previous_loss = loss
        else:
            self.n_iterations_ = self.max_iterations

        self.weights = weights
        self.bias = bias
        return self

    def fit_dataset(self, dataset: LabeledDataset) -> "LogisticRegressionClassifier":
        """Fit directly from a :class:`~repro.learning.datasets.LabeledDataset`."""
        features, labels = dataset.to_arrays()
        return self.fit(features, labels)

    def _loss(
        self,
        probabilities: np.ndarray,
        labels: np.ndarray,
        sample_weights: np.ndarray,
        weights: np.ndarray,
        weight_total: float,
    ) -> float:
        eps = 1e-12
        log_likelihood = labels * np.log(probabilities + eps) + (1.0 - labels) * np.log(
            1.0 - probabilities + eps
        )
        data_term = -float((sample_weights * log_likelihood).sum() / weight_total)
        regulariser = 0.5 * self.l2_penalty * float(weights @ weights)
        return data_term + regulariser

    # -- inference --------------------------------------------------------

    @property
    def is_fitted(self) -> bool:
        """Whether :meth:`fit` has been called successfully."""
        return self.weights is not None

    def _require_fitted(self) -> None:
        if not self.is_fitted:
            raise RuntimeError("classifier has not been fitted yet")

    def predict_proba(self, features: np.ndarray) -> np.ndarray:
        """P(label=1) for each row of ``features``."""
        self._require_fitted()
        features = np.atleast_2d(np.asarray(features, dtype=float))
        assert self._standardizer is not None and self.weights is not None
        X = self._standardizer.transform(features)
        return _sigmoid(X @ self.weights + self.bias)

    def predict(self, features: np.ndarray, threshold: float = 0.5) -> np.ndarray:
        """Hard 0/1 predictions at the given probability threshold."""
        return (self.predict_proba(features) >= threshold).astype(int)

    def coefficients(self) -> np.ndarray:
        """The learned weight vector (in standardised feature space)."""
        self._require_fitted()
        assert self.weights is not None
        return self.weights.copy()

"""Tests for the ML substrate: logistic regression, Naive Bayes, metrics, matching."""

import math
import pickle
import sys
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.learning.datasets import LabeledDataset
from repro.learning.logistic import LogisticRegressionClassifier
from repro.learning.matching_lp import greedy_bipartite_matching, max_weight_bipartite_matching
from repro.learning.metrics import (
    accuracy_score,
    confusion_counts,
    f1_score,
    precision_score,
    recall_score,
)
from repro.learning.naive_bayes import MultinomialNaiveBayes


class TestLabeledDataset:
    def test_add_and_counts(self):
        dataset = LabeledDataset(feature_names=("f1", "f2"))
        dataset.add([0.1, 0.2], 1, identifier="a")
        dataset.add([0.3, 0.4], 0)
        assert len(dataset) == 2
        assert dataset.num_positive() == 1
        assert dataset.num_negative() == 1
        assert not dataset.is_degenerate()

    def test_wrong_dimension_raises(self):
        dataset = LabeledDataset(feature_names=("f1",))
        with pytest.raises(ValueError):
            dataset.add([0.1, 0.2], 1)

    def test_bad_label_raises(self):
        dataset = LabeledDataset(feature_names=("f1",))
        with pytest.raises(ValueError):
            dataset.add([0.1], 2)

    def test_degenerate(self):
        dataset = LabeledDataset(feature_names=("f1",))
        dataset.add([0.1], 1)
        assert dataset.is_degenerate()

    def test_to_arrays(self):
        dataset = LabeledDataset(feature_names=("f1",))
        dataset.add([0.5], 1)
        features, labels = dataset.to_arrays()
        assert features.shape == (1, 1)
        assert labels.tolist() == [1.0]

    def test_to_arrays_empty_raises(self):
        with pytest.raises(ValueError):
            LabeledDataset(feature_names=("f1",)).to_arrays()


class TestLogisticRegression:
    def test_learns_simple_threshold(self):
        rng = np.random.default_rng(0)
        X = rng.uniform(0, 1, size=(300, 1))
        y = (X[:, 0] > 0.5).astype(float)
        clf = LogisticRegressionClassifier().fit(X, y)
        assert clf.predict_proba(np.array([[0.95]]))[0] > 0.8
        assert clf.predict_proba(np.array([[0.05]]))[0] < 0.2

    def test_learns_two_feature_combination(self):
        rng = np.random.default_rng(1)
        X = rng.uniform(0, 1, size=(400, 2))
        y = ((X[:, 0] + X[:, 1]) > 1.0).astype(float)
        clf = LogisticRegressionClassifier().fit(X, y)
        predictions = clf.predict(X)
        assert accuracy_score(y.astype(int).tolist(), predictions.tolist()) > 0.9

    def test_positive_weights_for_positively_correlated_features(self):
        rng = np.random.default_rng(2)
        X = rng.uniform(0, 1, size=(300, 2))
        y = (X[:, 0] > 0.5).astype(float)
        clf = LogisticRegressionClassifier().fit(X, y)
        weights = clf.coefficients()
        assert weights[0] > abs(weights[1])

    def test_single_class_raises(self):
        X = np.zeros((5, 2))
        y = np.ones(5)
        with pytest.raises(ValueError):
            LogisticRegressionClassifier().fit(X, y)

    def test_non_binary_labels_raise(self):
        X = np.zeros((3, 1))
        with pytest.raises(ValueError):
            LogisticRegressionClassifier().fit(X, np.array([0.0, 1.0, 2.0]))

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            LogisticRegressionClassifier().fit(np.zeros((3, 1)), np.zeros(2))

    def test_unfitted_predict_raises(self):
        with pytest.raises(RuntimeError):
            LogisticRegressionClassifier().predict_proba(np.zeros((1, 2)))

    def test_invalid_hyperparameters(self):
        with pytest.raises(ValueError):
            LogisticRegressionClassifier(learning_rate=0)
        with pytest.raises(ValueError):
            LogisticRegressionClassifier(l2_penalty=-1)
        with pytest.raises(ValueError):
            LogisticRegressionClassifier(class_weight="bogus")

    def test_fit_dataset(self):
        dataset = LabeledDataset(feature_names=("f",))
        for value, label in [(0.1, 0), (0.2, 0), (0.8, 1), (0.9, 1)]:
            dataset.add([value], label)
        clf = LogisticRegressionClassifier().fit_dataset(dataset)
        assert clf.predict_proba([[0.85]])[0] > 0.5

    def test_probabilities_bounded(self):
        rng = np.random.default_rng(3)
        X = rng.uniform(-5, 5, size=(100, 3))
        y = (X[:, 0] > 0).astype(float)
        clf = LogisticRegressionClassifier().fit(X, y)
        probabilities = clf.predict_proba(X)
        assert np.all(probabilities >= 0.0) and np.all(probabilities <= 1.0)


class TestNaiveBayes:
    def _trained(self) -> MultinomialNaiveBayes:
        nb = MultinomialNaiveBayes()
        nb.update("hdd", ["seagate", "barracuda", "7200", "rpm", "sata"])
        nb.update("hdd", ["hitachi", "deskstar", "500", "gb"])
        nb.update("camera", ["canon", "eos", "megapixels", "zoom"])
        nb.update("camera", ["nikon", "coolpix", "12", "megapixels"])
        nb.fit_finalize()
        return nb

    def test_predicts_expected_class(self):
        nb = self._trained()
        assert nb.predict(["seagate", "rpm"]) == "hdd"
        assert nb.predict(["canon", "megapixels"]) == "camera"

    def test_posterior_sums_to_one(self):
        nb = self._trained()
        posterior = nb.posterior(["seagate", "zoom"])
        assert sum(posterior.values()) == pytest.approx(1.0)

    def test_unknown_tokens_fall_back_to_prior(self):
        nb = self._trained()
        posterior = nb.posterior(["zzz", "qqq"])
        assert sum(posterior.values()) == pytest.approx(1.0)

    def test_empty_model_raises(self):
        nb = MultinomialNaiveBayes()
        with pytest.raises(RuntimeError):
            nb.predict(["anything"])
        with pytest.raises(RuntimeError):
            nb.fit_finalize()

    def test_invalid_alpha(self):
        with pytest.raises(ValueError):
            MultinomialNaiveBayes(alpha=0.0)

    def test_fit_from_pairs(self):
        nb = MultinomialNaiveBayes().fit([("a", ["x"]), ("b", ["y"])])
        assert set(nb.classes) == {"a", "b"}
        assert nb.vocabulary_size == 2

    def test_the_predicted_class_holds_the_posterior_majority(self):
        nb = self._trained()
        document = ["megapixels", "zoom"]
        posterior = nb.posterior(document)
        label = nb.predict(document)
        assert label == "camera"
        assert label == max(posterior, key=posterior.get)
        assert 0.5 < posterior[label] <= 1.0

    def test_reads_leave_the_model_unchanged(self):
        # The counts live in defaultdicts: a read that indexed one with a
        # label or token the model never saw would insert it, and a class
        # with zero documents makes every later predict() raise a math
        # domain error.
        nb = self._trained()
        document = ["seagate", "zoom", "never-seen"]
        scores_before = nb.log_scores(document)
        nb.posterior(["never-seen", "also-never-seen"])
        nb.predict(["never-seen"])
        nb.dominant_class_by_token()
        assert nb.classes == ["hdd", "camera"]
        assert nb.vocabulary_size == 16
        assert nb.log_scores(document) == scores_before
        assert nb.predict(["seagate", "rpm"]) == "hdd"


_TRAINING_TOKENS = ["seagate", "rpm", "sata", "canon", "zoom", "megapixels", "500", "gb"]
_DOCUMENTS = st.lists(st.sampled_from(_TRAINING_TOKENS + ["unseen-1", "unseen-2"]), max_size=10)
_TRAINING = st.lists(
    st.tuples(
        st.sampled_from(["hdd", "camera", "tv"]),
        st.lists(st.sampled_from(_TRAINING_TOKENS), max_size=6),
    ),
    min_size=1,
    max_size=8,
)


def _reference_log_scores(training, alpha, tokens):
    """The smoothed estimate written out from the raw training documents."""
    documents = Counter(label for label, _ in training)
    counts = {label: Counter() for label in documents}
    for label, document in training:
        counts[label].update(document)
    vocabulary = max(len({token for _, document in training for token in document}), 1)
    scores = {}
    for label in documents:
        score = math.log(documents[label] / len(training))
        total = sum(counts[label].values())
        for token in tokens:
            score += math.log((counts[label][token] + alpha) / (total + alpha * vocabulary))
        scores[label] = score
    return scores


def _assert_scores_exact(nb, training, document):
    scores = nb.log_scores(document)
    # == on floats, not approx: the tables hold the very floats the
    # estimate evaluates to and are summed in the same order.
    assert scores == _reference_log_scores(training, nb.alpha, document)
    assert list(scores) == nb.classes


class TestNaiveBayesScoringTables:
    @given(
        training=_TRAINING,
        extra=_TRAINING,
        alpha=st.sampled_from([1.0, 0.5, 0.1]),
        documents=st.lists(_DOCUMENTS, min_size=1, max_size=4),
    )
    @settings(max_examples=120, deadline=None)
    def test_log_scores_exact_before_and_after_update(self, training, extra, alpha, documents):
        nb = MultinomialNaiveBayes(alpha=alpha).fit(training)
        for document in documents + [[]]:
            _assert_scores_exact(nb, training, document)
        # A further update() without fit_finalize(): the tables built
        # above are stale and must not be what scores the next read.
        for label, tokens in extra:
            nb.update(label, tokens)
        for document in documents + [[]]:
            _assert_scores_exact(nb, training + extra, document)

    def test_tables_are_not_pickled(self):
        training = [("hdd", ["seagate", "rpm"]), ("camera", ["canon", "zoom"])]
        cold = MultinomialNaiveBayes().fit(training)
        payload = pickle.dumps(cold)
        assert set(cold.__getstate__()) == {
            "alpha",
            "_token_counts",
            "_class_token_totals",
            "_class_document_counts",
            "_vocabulary",
            "_total_documents",
            "_finalized",
        }
        restored = pickle.loads(payload)
        assert restored.log_scores(["seagate", "zoom", "x"]) == cold.log_scores(
            ["seagate", "zoom", "x"]
        )
        # Scoring (which builds the tables) adds nothing to the pickle.
        assert len(pickle.dumps(restored)) == len(payload)


class TestMetrics:
    def test_confusion_counts(self):
        counts = confusion_counts([1, 1, 0, 0], [1, 0, 1, 0])
        assert counts == {"tp": 1, "fn": 1, "fp": 1, "tn": 1}

    def test_accuracy(self):
        assert accuracy_score([1, 0, 1], [1, 0, 0]) == pytest.approx(2 / 3)

    def test_precision_recall_f1(self):
        y_true = [1, 1, 0, 0, 1]
        y_pred = [1, 0, 0, 1, 1]
        assert precision_score(y_true, y_pred) == pytest.approx(2 / 3)
        assert recall_score(y_true, y_pred) == pytest.approx(2 / 3)
        assert f1_score(y_true, y_pred) == pytest.approx(2 / 3)

    def test_zero_denominators(self):
        assert precision_score([1, 1], [0, 0]) == 0.0
        assert recall_score([0, 0], [0, 0]) == 0.0
        assert f1_score([0, 0], [0, 0]) == 0.0

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            accuracy_score([1], [1, 0])

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            accuracy_score([], [])


class TestBipartiteMatching:
    def test_diagonal_optimum(self):
        matching = max_weight_bipartite_matching([[0.9, 0.1], [0.2, 0.8]])
        assert matching == [(0, 0, 0.9), (1, 1, 0.8)]

    def test_prefers_global_optimum_over_greedy(self):
        # Greedy would take (0,0)=0.9 then be forced into (1,1)=0.0;
        # the optimum pairs (0,1)+(1,0) for a total of 1.6.  The exact
        # solver is the ``exact`` extra: chosen whenever scipy imports.
        pytest.importorskip("scipy.optimize")
        weights = [[0.9, 0.8], [0.8, 0.0]]
        matching = max_weight_bipartite_matching(weights)
        total = sum(weight for _, _, weight in matching)
        assert total == pytest.approx(1.6)

    def test_falls_back_to_greedy_without_scipy(self, monkeypatch):
        # A None entry makes ``from scipy.optimize import ...`` raise
        # ImportError, which is what a numpy-only install does.
        monkeypatch.setitem(sys.modules, "scipy.optimize", None)
        weights = [[0.9, 0.8], [0.8, 0.0]]
        assert max_weight_bipartite_matching(weights) == greedy_bipartite_matching(weights)
        assert max_weight_bipartite_matching(weights) == [(0, 0, 0.9)]

    def test_min_weight_filters(self):
        matching = max_weight_bipartite_matching([[0.9, 0.0], [0.0, 0.05]], min_weight=0.1)
        assert matching == [(0, 0, 0.9)]

    def test_rectangular_matrix(self):
        matching = max_weight_bipartite_matching([[0.5, 0.9, 0.1]])
        assert matching == [(0, 1, 0.9)]

    def test_empty_matrix(self):
        assert max_weight_bipartite_matching([]) == []

    def test_nan_raises(self):
        with pytest.raises(ValueError):
            max_weight_bipartite_matching([[float("nan")]])

    def test_greedy_fallback_reasonable(self):
        matching = greedy_bipartite_matching([[0.9, 0.1], [0.2, 0.8]])
        assert matching == [(0, 0, 0.9), (1, 1, 0.8)]

    @given(
        rows=st.integers(min_value=1, max_value=5),
        columns=st.integers(min_value=1, max_value=5),
        seed=st.integers(min_value=0, max_value=1000),
    )
    @settings(max_examples=40, deadline=None)
    def test_matching_is_one_to_one(self, rows, columns, seed):
        rng = np.random.default_rng(seed)
        weights = rng.uniform(0, 1, size=(rows, columns))
        matching = max_weight_bipartite_matching(weights)
        matched_rows = [row for row, _, _ in matching]
        matched_columns = [column for _, column, _ in matching]
        assert len(matched_rows) == len(set(matched_rows))
        assert len(matched_columns) == len(set(matched_columns))
        assert len(matching) <= min(rows, columns)

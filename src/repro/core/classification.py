"""Approximate Bayesian classification (Sec. V, Definition 4).

Given evidence ``e`` over all variables except a target set ``Y``, the
classifier returns the assignment ``b`` maximizing the estimated joint
probability; since the evidence fixes every other variable,
``P[Y = y | e]`` is proportional to the full-joint estimate with ``Y = y``
(Theorem 3).  Lemma 12: a model within ``e^{eps/4}`` of the MLE solves the
Definition 4 problem with error ``eps``.

The implementation only recomputes the CPD terms whose value changes with
the target's state — the target's own family and its children's families —
so prediction is cheap even in thousand-node networks.
"""

from __future__ import annotations

import math
from collections.abc import Mapping

import numpy as np

from repro.bn.network import BayesianNetwork
from repro.core.estimator import StreamingMLEEstimator
from repro.errors import QueryError
from repro.utils.validation import integer_array


class BayesianClassifier:
    """Predicts one variable from full evidence on the rest.

    Works over either a :class:`StreamingMLEEstimator` (the distributed
    setting) or a plain :class:`BayesianNetwork` (e.g. ground truth).
    """

    def __init__(self, model: "StreamingMLEEstimator | BayesianNetwork") -> None:
        self.model = model
        self.network = (
            model.network if isinstance(model, StreamingMLEEstimator) else model
        )

    def _full_vector(self, evidence: Mapping[str, int], target: str
                     ) -> np.ndarray:
        names = self.network.node_names
        missing = set(names) - set(evidence) - {target}
        if missing:
            raise QueryError(
                f"evidence must cover all non-target variables; missing "
                f"{sorted(missing)[:5]}"
            )
        if target in evidence:
            raise QueryError(f"target {target!r} also appears in evidence")
        vec = np.zeros(len(names), dtype=np.int64)
        for idx, name in enumerate(names):
            if name == target:
                continue
            vec[idx] = self.network.variable(name).state_index(evidence[name])
        return vec

    def _affected_variables(self, target: str) -> list[str]:
        return [target, *self.network.dag.children(target)]

    def scores(self, target: str, evidence: Mapping[str, int]) -> np.ndarray:
        """Unnormalized log-scores for each state of ``target``.

        ``scores[y] = sum of log CPD terms that depend on Y`` — equal to the
        log joint up to a constant independent of ``y``.
        """
        if target not in self.network.dag.nodes:
            raise QueryError(f"unknown target variable {target!r}")
        if isinstance(self.model, StreamingMLEEstimator):
            self._estimates_cache = self.model.bank.estimates()
        vec = self._full_vector(evidence, target)
        target_idx = self.network.variable_index(target)
        cardinality = self.network.variable(target).cardinality
        affected = self._affected_variables(target)
        scores = np.zeros(cardinality, dtype=np.float64)
        for y in range(cardinality):
            vec[target_idx] = y
            total = 0.0
            for name in affected:
                total += self._log_cpd_term(name, vec)
                if total == -math.inf:
                    break
            scores[y] = total
        return scores

    def _log_cpd_term(self, name: str, vec: np.ndarray) -> float:
        cpd = self.network.cpd(name)
        parent_states = [
            int(vec[self.network.variable_index(p)]) for p in cpd.parent_names
        ]
        state = int(vec[self.network.variable_index(name)])
        if isinstance(self.model, StreamingMLEEstimator):
            layout = self.model._layouts[self.network.variable_index(name)]
            estimates = self._estimates_cache
            pstate = (
                int(
                    np.asarray(parent_states, dtype=np.int64)
                    @ layout.parent_strides
                )
                if parent_states
                else 0
            )
            num = estimates[
                layout.joint_offset + state * layout.k_configs + pstate
            ]
            den = estimates[layout.parent_offset + pstate]
            if num <= 0 or den <= 0:
                return -math.inf
            return math.log(num) - math.log(den)
        p = cpd.probability(state, parent_states)
        return math.log(p) if p > 0 else -math.inf

    def predict(self, target: str, evidence: Mapping[str, int]) -> int:
        """The maximum-probability state for ``target`` given ``evidence``.

        Ties and all-``-inf`` scores resolve to the smallest state index.
        """
        scores = self.scores(target, evidence)
        return int(np.argmax(scores))

    def predict_batch(
        self, targets: list[str], data: np.ndarray
    ) -> np.ndarray:
        """Predict ``targets[r]`` for each row ``r`` of full assignments.

        ``data`` supplies the true values; the target's column is treated
        as hidden.  Returns the predicted state per row.  A row holding
        a state outside its variable's domain (target column included)
        raises :class:`QueryError`, as a scalar ``log_query`` would, and
        so does an unknown target, as in :meth:`scores`; both before any
        row is scored.
        """
        data = self.network._as_index_rows(data)
        if data.shape[0] != len(targets):
            raise QueryError("data rows must align with the targets list")
        for target in dict.fromkeys(targets):
            if target not in self.network.dag.nodes:
                raise QueryError(f"unknown target variable {target!r}")
        if isinstance(self.model, StreamingMLEEstimator):
            self._estimates_cache = self.model.bank.estimates()
        names = self.network.node_names
        predictions = np.empty(len(targets), dtype=np.int64)
        for r, target in enumerate(targets):
            vec = data[r].copy()
            target_idx = self.network.variable_index(target)
            cardinality = self.network.variable(target).cardinality
            best_score, best_state = -math.inf, 0
            for y in range(cardinality):
                vec[target_idx] = y
                total = 0.0
                for name in self._affected_variables(target):
                    total += self._log_cpd_term(name, vec)
                    if total == -math.inf:
                        break
                if total > best_score:
                    best_score, best_state = total, y
            predictions[r] = best_state
        return predictions

    def error_rate(self, targets: list[str], data: np.ndarray) -> float:
        """Fraction of rows where the prediction misses the true state."""
        data = integer_array(data, "data", QueryError)
        predictions = self.predict_batch(targets, data)
        truth = np.array(
            [
                data[r, self.network.variable_index(t)]
                for r, t in enumerate(targets)
            ],
            dtype=np.int64,
        )
        return float(np.mean(predictions != truth))

"""The query server: batched, cached, staleness-bounded read serving.

:class:`QueryServer` fronts a live session (in-process
:class:`~repro.api.session.MonitoringSession` or multiprocess
:class:`~repro.dist.DistributedSession` — anything exposing
``.estimator`` and ``.message_log``) and answers every read the session
can answer, bit-identical, from :class:`~repro.serve.ModelSnapshot`
tables instead of per-call counter walks:

- full-assignment joint queries, scalar and batched (Algorithm 3);
- ancestrally closed partial-event queries, with an LRU over repeated
  events;
- classification scores/decisions (Sec. V, Definition 4), with an LRU
  over hot parent-configuration term slices and a decision cache whose
  entries stay servable across sync epochs while the Theorem-3 margin
  provably holds.

Staleness bound (``docs/serving.md`` derives it): every counter
estimate is ``(1 ± eps)``-correct, so any two valid estimate vectors
for the same underlying counts keep each log-CPD term of family ``f``
within ``delta_f = log((1 + eps_f) / (1 - eps_f))`` of each other.  A
classification score for target ``Y`` sums terms over ``affected(Y)``
(the target's family and its children's), so scores move by at most
``D = sum_f delta_f`` and score *gaps* by at most ``2 D``.  A cached
decision with margin ``> 2 D`` therefore cannot flip against any
estimate vector the accuracy guarantee allows — it is served across
epoch advances; smaller margins are invalidated the moment the epoch
moves.  Exact counters have ``eps = 0``, so their decisions cache for
as long as the margin is positive; within one epoch every cached answer
is served unconditionally (no message has been recorded, so the
estimates are provably unchanged).
"""

from __future__ import annotations

import math
from collections import OrderedDict
from collections.abc import Mapping

import numpy as np

from repro.core.estimator import _StrictScan
from repro.errors import QueryError
from repro.serve.snapshot import ModelSnapshot, ServePlan


class _LRU:
    """A tiny ordered-dict LRU used for all three server caches."""

    __slots__ = ("data", "maxsize", "hits", "misses")

    def __init__(self, maxsize: int) -> None:
        if maxsize < 1:
            raise ValueError(f"cache size must be >= 1, got {maxsize}")
        self.data: OrderedDict = OrderedDict()
        self.maxsize = int(maxsize)
        self.hits = 0
        self.misses = 0

    def get(self, key):
        try:
            value = self.data[key]
        except KeyError:
            self.misses += 1
            return None
        self.data.move_to_end(key)
        self.hits += 1
        return value

    def put(self, key, value) -> None:
        self.data[key] = value
        self.data.move_to_end(key)
        while len(self.data) > self.maxsize:
            self.data.popitem(last=False)

    def clear(self) -> None:
        self.data.clear()

    def stats(self) -> dict:
        return {
            "hits": int(self.hits),
            "misses": int(self.misses),
            "size": len(self.data),
            "maxsize": self.maxsize,
        }


class _DecisionEntry:
    """One cached classification decision and its validity evidence."""

    __slots__ = ("decision", "margin", "epoch")

    def __init__(self, decision: int, margin: float, epoch: int) -> None:
        self.decision = decision
        self.margin = margin
        self.epoch = epoch


class _TargetPlan:
    """Static scoring plan for one classification target.

    One row per affected family (the target's own, then each child's,
    in :meth:`BayesianClassifier._affected_variables` order).  For a
    fixed evidence vector with the target's column zeroed, family ``f``
    contributes ``terms[start_f + y * stride_f]`` to state ``y``'s
    score: the target family strides its joint-state dimension
    (``stride = k_configs``), a child family strides the target's
    position in its parent configuration.
    """

    __slots__ = ("target_index", "cardinality", "rows", "state_range")

    def __init__(self, server: "QueryServer", target: str) -> None:
        network = server._network
        estimator = server._estimator
        self.target_index = network.variable_index(target)
        self.cardinality = network.variable(target).cardinality
        self.state_range = np.arange(self.cardinality, dtype=np.int64)
        self.rows = []
        for name in (target, *network.dag.children(target)):
            layout = estimator._layouts[network.variable_index(name)]
            if name == target:
                stride = layout.k_configs
                own_scale = 0  # the y axis *is* the joint-state axis
            else:
                position = list(layout.parent_positions).index(
                    self.target_index
                )
                stride = int(layout.parent_strides[position])
                own_scale = layout.k_configs
            self.rows.append((
                name,
                layout.joint_offset,
                own_scale,
                layout.index,
                layout.parent_positions,
                layout.parent_strides,
                stride,
            ))


class QueryServer:
    """Serves reads for one live session from versioned snapshots.

    Parameters
    ----------
    source:
        The live session; must expose ``.estimator`` and
        ``.message_log`` (both session classes do — the distributed
        session's properties flush in-flight rounds first, so a served
        answer always reflects every applied sync).
    event_cache_size / slice_cache_size / decision_cache_size:
        LRU capacities for repeated events, hot parent-configuration
        term slices, and classification decisions.
    """

    def __init__(
        self,
        source,
        *,
        event_cache_size: int = 4096,
        slice_cache_size: int = 4096,
        decision_cache_size: int = 65536,
    ) -> None:
        self._source = source
        self._estimator = source.estimator
        self._network = self._estimator.network
        self._plan = ServePlan(self._estimator)
        self._snapshot: ModelSnapshot | None = None
        self._version = 0
        self._event_cache = _LRU(event_cache_size)
        self._slice_cache = _LRU(slice_cache_size)
        self._decision_cache = _LRU(decision_cache_size)
        self._target_plans: dict[str, _TargetPlan] = {}
        self._thresholds: dict[str, float] = {}
        self._family_drift = self._compute_family_drift()
        self.snapshot_refreshes = 0
        self.queries_served = 0
        self.decision_stale_hits = 0
        self.decision_invalidations = 0

    # ------------------------------------------------------------------
    # Snapshot lifecycle
    # ------------------------------------------------------------------
    def snapshot(self) -> ModelSnapshot:
        """The snapshot for the *current* sync epoch (rebuilding if the
        message log has recorded traffic since the last build)."""
        epoch = self._source.message_log.epoch
        current = self._snapshot
        if current is not None and current.epoch == epoch:
            return current
        self._version += 1
        self.snapshot_refreshes += 1
        built = ModelSnapshot.build(
            self._estimator.bank.estimates(),
            self._plan,
            epoch=epoch,
            version=self._version,
        )
        # Value caches answer *for the current estimates* and must not
        # survive them; the decision cache survives on purpose — its
        # entries carry their own margin-based validity proof.
        self._event_cache.clear()
        self._slice_cache.clear()
        self._snapshot = built
        return built

    # ------------------------------------------------------------------
    # Full-assignment queries (Algorithm 3)
    # ------------------------------------------------------------------
    def log_joint(self, assignment) -> float:
        """Bit-identical to the live session's ``log_query``."""
        snap = self.snapshot()
        vec = self._estimator._event_indices(assignment)
        terms, neg, bad = snap.terms, snap.neg, snap.bad
        total = 0.0
        for layout in self._estimator._layouts:
            jid = (
                layout.joint_offset
                + vec[layout.index] * layout.k_configs
                + layout.parent_state(vec)
            )
            if neg[jid]:
                self.queries_served += 1
                return -math.inf
            if bad[jid]:
                raise QueryError(
                    "parent counter is zero while joint counter is not; "
                    "the model has seen no consistent data for this event"
                )
            total += terms[jid]
        self.queries_served += 1
        return float(total)

    def joint(self, assignment) -> float:
        """Bit-identical to the live session's ``query``."""
        value = self.log_joint(assignment)
        return math.exp(value) if value > -math.inf else 0.0

    def log_joint_batch(
        self, data: np.ndarray, *, strict: bool = False
    ) -> np.ndarray:
        """Batched ``log_joint`` over rows of full assignments.

        Row values are bit-identical to a scalar :meth:`log_joint` loop:
        the estimator's ``_joint_id_rows`` walk (the ingest encoder's)
        yields each family's joint ids in layout order, and their terms
        are gathered and accumulated family by family, the same float
        additions in the same order.  ``strict`` mirrors
        ``StreamingMLEEstimator.log_query_batch``: ``False`` folds every
        degenerate family into ``-inf``, ``True`` raises
        :class:`QueryError` exactly where the scalar walk would.  A row
        holding an out-of-range state raises :class:`QueryError` before
        the snapshot is touched.
        """
        estimator = self._estimator
        data = self._network._as_index_rows(data)
        snap = self.snapshot()
        terms, neg, bad = snap.terms, snap.neg, snap.bad
        m = data.shape[0]
        total = np.zeros(m, dtype=np.float64)
        scan = _StrictScan(m, len(estimator._layouts)) if strict else None
        for index, block, ids in estimator._joint_id_rows(data, "query"):
            total += terms[block].take(ids)
            if scan is not None:
                scan.see(index, neg[block].take(ids), bad[block].take(ids))
        if scan is not None:
            scan.check()
        self.queries_served += m
        return total

    def joint_batch(self, data: np.ndarray, *, strict: bool = False
                    ) -> np.ndarray:
        """``exp`` of :meth:`log_joint_batch` with exact zeros at ``-inf``."""
        values = self.log_joint_batch(data, strict=strict)
        out = np.zeros_like(values)
        finite = values > -np.inf
        out[finite] = np.exp(values[finite])
        return out

    # ------------------------------------------------------------------
    # Ancestrally closed partial events
    # ------------------------------------------------------------------
    def log_event(self, event: Mapping[str, int]) -> float:
        """Bit-identical to the live session's ``log_query_event``.

        Repeated events (same items in the same order) are served from
        the event LRU; the cache is dropped whenever the snapshot
        refreshes, so a hit is always an answer for the current epoch.
        """
        snap = self.snapshot()
        key = tuple(event.items())
        cached = self._event_cache.get(key)
        if cached is not None:
            self.queries_served += 1
            return cached
        value = self._log_event_uncached(snap, event)
        self._event_cache.put(key, value)
        self.queries_served += 1
        return value

    def _log_event_uncached(
        self, snap: ModelSnapshot, event: Mapping[str, int]
    ) -> float:
        plans = self._estimator._event_plans
        for name in event:
            if name not in plans:
                raise QueryError(f"unknown variable {name!r} in event")
        variable = self._network.variable
        terms, neg, bad = snap.terms, snap.neg, snap.bad
        total = 0.0
        for name, state in event.items():
            layout, parent_names, strides, var = plans[name]
            for parent in parent_names:
                if parent not in event:
                    raise QueryError(
                        f"event is not ancestrally closed: {name!r} assigned "
                        f"but parent {parent!r} is not"
                    )
            pstate = 0
            for parent, stride in zip(parent_names, strides):
                pstate += variable(parent).state_index(event[parent]) * stride
            jid = (
                layout.joint_offset
                + var.state_index(state) * layout.k_configs
                + pstate
            )
            if neg[jid]:
                return -math.inf
            if bad[jid]:
                raise QueryError(
                    f"no data observed for parent configuration of {name!r}"
                )
            total += terms[jid]
        return float(total)

    def event_probability(self, event: Mapping[str, int]) -> float:
        """Bit-identical to the live session's ``query_event``."""
        value = self.log_event(event)
        return math.exp(value) if value > -math.inf else 0.0

    def log_event_batch(self, events) -> np.ndarray:
        """``log_event`` over a sequence of events.

        The batch amortizes one snapshot check across the whole request
        and routes every item through the event LRU — Zipf-skewed
        request streams (the realistic case for a serving tier) hit the
        cache for the bulk of the batch.
        """
        self.snapshot()
        return np.array([self.log_event(e) for e in events])

    # ------------------------------------------------------------------
    # Classification (Sec. V)
    # ------------------------------------------------------------------
    def _target_plan(self, target: str) -> _TargetPlan:
        plan = self._target_plans.get(target)
        if plan is None:
            if target not in self._network.dag.nodes:
                raise QueryError(f"unknown target variable {target!r}")
            plan = _TargetPlan(self, target)
            self._target_plans[target] = plan
        return plan

    def _scores_from_vec(
        self, snap: ModelSnapshot, plan: _TargetPlan, vec: np.ndarray
    ) -> np.ndarray:
        """Score vector over the target's states for one evidence row.

        ``vec`` must have the target's column zeroed.  Accumulates each
        affected family's term slice in affected order — element-wise
        the same additions, in the same order, as the live classifier's
        per-state walk, so scores are bit-identical (``-inf`` absorbs
        later finite terms exactly as the live early-break does).
        """
        scores = np.zeros(plan.cardinality, dtype=np.float64)
        cache = self._slice_cache
        terms = snap.terms
        for name, joint_offset, own_scale, own_index, positions, strides, \
                stride in plan.rows:
            base = joint_offset + int(vec[own_index]) * own_scale
            if positions.size:
                base += int(vec[positions] @ strides)
            key = (plan.target_index, name, base)
            piece = cache.get(key)
            if piece is None:
                piece = terms[base + stride * plan.state_range]
                cache.put(key, piece)
            scores += piece
        return scores

    def scores(self, target: str, evidence: Mapping[str, int]) -> np.ndarray:
        """Bit-identical to ``BayesianClassifier.scores``."""
        snap = self.snapshot()
        plan = self._target_plan(target)
        vec = self._evidence_vector(target, plan, evidence)
        self.queries_served += 1
        return self._scores_from_vec(snap, plan, vec)

    def _evidence_vector(
        self, target: str, plan: _TargetPlan, evidence: Mapping[str, int]
    ) -> np.ndarray:
        names = self._network.node_names
        missing = set(names) - set(evidence) - {target}
        if missing:
            raise QueryError(
                f"evidence must cover all non-target variables; missing "
                f"{sorted(missing)[:5]}"
            )
        if target in evidence:
            raise QueryError(f"target {target!r} also appears in evidence")
        vec = np.zeros(len(names), dtype=np.int64)
        variable = self._network.variable
        for idx, name in enumerate(names):
            if name != target:
                vec[idx] = variable(name).state_index(evidence[name])
        return vec

    def classify(self, target: str, evidence: Mapping[str, int]) -> int:
        """Bit-identical to ``BayesianClassifier.predict``, cached."""
        snap = self.snapshot()
        plan = self._target_plan(target)
        vec = self._evidence_vector(target, plan, evidence)
        return self._classify_vec(snap, target, plan, vec)

    def classify_batch(self, targets, data: np.ndarray) -> np.ndarray:
        """Bit-identical to ``BayesianClassifier.predict_batch``, cached.

        ``data`` rows are full assignments whose target column is
        ignored (treated as hidden), exactly like the live batch path.
        Every column must still hold an in-range state: a row that does
        not raises :class:`QueryError`, as on the live path.
        """
        data = self._network._as_index_rows(data)
        if data.shape[0] != len(targets):
            raise QueryError("data rows must align with the targets list")
        snap = self.snapshot()
        predictions = np.empty(len(targets), dtype=np.int64)
        for r, target in enumerate(targets):
            plan = self._target_plan(target)
            vec = data[r].copy()
            vec[plan.target_index] = 0
            predictions[r] = self._classify_vec(snap, target, plan, vec)
        return predictions

    def _classify_vec(
        self, snap: ModelSnapshot, target: str, plan: _TargetPlan,
        vec: np.ndarray,
    ) -> int:
        key = (plan.target_index, vec.tobytes())
        entry = self._decision_cache.get(key)
        if entry is not None:
            if entry.epoch == snap.epoch:
                # Same epoch: not one message since the decision was
                # computed, so the estimates — and the decision — are
                # literally unchanged.
                self.queries_served += 1
                return entry.decision
            if entry.margin > self.staleness_threshold(target):
                # Theorem-3 margin still covers the worst drift the
                # accuracy guarantee allows: serve stale.
                self.decision_stale_hits += 1
                self.queries_served += 1
                return entry.decision
            self.decision_invalidations += 1
            self._decision_cache.misses += 1
            self._decision_cache.hits -= 1  # the get above counted a hit
        scores = self._scores_from_vec(snap, plan, vec)
        decision = int(np.argmax(scores))
        self._decision_cache.put(
            key,
            _DecisionEntry(decision, self.decision_margin(scores), snap.epoch),
        )
        self.queries_served += 1
        return decision

    # ------------------------------------------------------------------
    # Theorem-3 staleness bound
    # ------------------------------------------------------------------
    def _compute_family_drift(self) -> np.ndarray:
        """``delta_f`` per variable: the worst movement of family ``f``'s
        log-CPD term between any two estimate vectors the counter
        accuracy guarantee admits for the same underlying counts.

        Each counter's estimate is within ``(1 ± eps)`` of its true
        count, so two valid estimates of one counter differ by a factor
        of at most ``(1 + eps) / (1 - eps)`` — and a num/den log-ratio
        by at most ``delta = log((1 + eps) / (1 - eps))`` using the
        family's largest per-counter ``eps``.  Exact banks publish no
        ``eps`` and get ``delta = 0``; ``eps >= 1`` (vacuous guarantee)
        gets ``inf`` — such decisions are never served stale.
        """
        estimator = self._estimator
        eps = getattr(estimator.bank, "eps", None)
        drift = np.zeros(len(estimator._layouts), dtype=np.float64)
        if eps is None:
            return drift
        eps = np.asarray(eps, dtype=np.float64)
        for i, layout in enumerate(estimator._layouts):
            joint = eps[
                layout.joint_offset
                : layout.joint_offset + layout.cardinality * layout.k_configs
            ]
            parent = eps[
                layout.parent_offset : layout.parent_offset + layout.k_configs
            ]
            worst = float(max(joint.max(initial=0.0),
                              parent.max(initial=0.0)))
            drift[i] = (
                math.inf if worst >= 1.0
                else math.log((1.0 + worst) / (1.0 - worst))
            )
        drift.setflags(write=False)
        return drift

    @property
    def family_drift(self) -> np.ndarray:
        """Per-variable ``delta_f`` in ``network.node_names`` order."""
        return self._family_drift

    def staleness_threshold(self, target: str) -> float:
        """``2 * sum(delta_f over affected(target))``: the margin a cached
        decision for ``target`` must exceed to stay valid across sync
        epochs (``docs/serving.md`` derives the factor of two)."""
        threshold = self._thresholds.get(target)
        if threshold is None:
            plan = self._target_plan(target)
            total = 0.0
            for row in plan.rows:
                total += float(
                    self._family_drift[
                        self._network.variable_index(row[0])
                    ]
                )
            threshold = 2.0 * total
            self._thresholds[target] = threshold
        return threshold

    @staticmethod
    def decision_margin(scores: np.ndarray) -> float:
        """Best-vs-runner-up score gap that certifies a decision.

        ``inf`` when there is no competing state (single-state targets,
        or every alternative scored ``-inf``); ``0`` when even the best
        state scored ``-inf`` (nothing certifiable — such a decision is
        only ever served within its own epoch).
        """
        scores = np.asarray(scores, dtype=np.float64)
        if scores.size < 2:
            return math.inf
        best = float(scores.max())
        if best == -math.inf:
            return 0.0
        second = float(np.partition(scores, -2)[-2])
        if second == -math.inf:
            return math.inf
        return best - second

    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Serving counters (JSON-ready), for benchmarks and monitoring."""
        snap = self._snapshot
        return {
            "snapshot_refreshes": int(self.snapshot_refreshes),
            "snapshot_epoch": None if snap is None else int(snap.epoch),
            "snapshot_version": None if snap is None else int(snap.version),
            "queries_served": int(self.queries_served),
            "event_cache": self._event_cache.stats(),
            "slice_cache": self._slice_cache.stats(),
            "decision_cache": {
                **self._decision_cache.stats(),
                "stale_hits": int(self.decision_stale_hits),
                "invalidations": int(self.decision_invalidations),
            },
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        snap = self._snapshot
        return (
            f"QueryServer({self._network.name!r}, "
            f"epoch={None if snap is None else snap.epoch}, "
            f"refreshes={self.snapshot_refreshes}, "
            f"served={self.queries_served})"
        )

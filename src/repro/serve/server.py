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

The event and classification batches answer each distinct request once
and scatter the answer to its duplicates, with the cache statistics and
recency order of a per-request loop (``docs/serving.md``, "How a batch
coalesces").

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
from itertools import chain

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


class _Coalesced:
    """One batch's equal request keys, grouped.

    Group ``g`` is the ``g``-th distinct key in order of first
    occurrence: ``first[g]`` is the position of that occurrence,
    ``counts[g]`` the group's size and ``inverse[r]`` the group of
    request ``r``.  ``recency`` lists the groups by their *last*
    occurrence: the recency order a per-request loop leaves in an LRU.
    """

    __slots__ = ("first", "inverse", "counts", "recency")

    def __init__(self, keys) -> None:
        groups: dict = {}
        group = groups.setdefault
        self.inverse = np.array(
            [group(key, len(groups)) for key in keys], dtype=np.intp
        )
        self.counts = np.bincount(self.inverse, minlength=len(groups))
        # A stable sort lines each group's positions up in request order.
        order = np.argsort(self.inverse, kind="stable")
        ends = np.cumsum(self.counts)
        self.first = order[ends - self.counts].tolist()
        self.recency = np.argsort(order[ends - 1]).tolist()


def _plain_states(states) -> bool:
    """Whether every state is a label, an ``int`` or a numpy integer:
    the only types whose equal values ``Variable.state_index`` treats
    alike (it refuses ``bool`` and floats).  Names need no check: they
    resolve by equality."""
    return all(
        kind is int or issubclass(kind, (str, np.integer))
        for kind in set(map(type, chain.from_iterable(states)))
    )


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
        # The narrowest dtype holding every state: classify_batch's
        # grouping keys (see _row_keys).
        self._state_dtype = np.min_scalar_type(
            int(self._network.cardinalities().max()) - 1
        )
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
        return float(self.log_event_batch((event,))[0])

    def event_probability(self, event: Mapping[str, int]) -> float:
        """Bit-identical to the live session's ``query_event``."""
        value = self.log_event(event)
        return math.exp(value) if value > -math.inf else 0.0

    def log_event_batch(self, events) -> np.ndarray:
        """``log_event`` over a sequence of events, each distinct one once.

        Requests are grouped by the event LRU's key; each group is
        validated, looked up and, on a miss, evaluated once, and its
        answer is scattered back to every request in it.  The cache
        statistics and the LRU's recency order are those a per-request
        loop leaves (``docs/serving.md``, "How a batch coalesces").  An
        invalid event raises :class:`QueryError` before the snapshot, a
        cache or a counter moves — a duplicate too: when a state is not
        a label, an ``int`` or a numpy integer, every request is
        validated.
        """
        events = list(events)
        # The names in order, then the states: equal keys are equal
        # item sequences, and the flat tuple builds twice as fast as
        # ``tuple(event.items())``.
        keys = [(*event, *event.values()) for event in events]
        batch = _Coalesced(keys)
        validate = self._estimator._event_ids
        # ``True == 1`` and ``1.0 == 1``: such a state groups with a
        # valid one, but on its own it is refused.  Each group's first
        # is validated below, so the states of every other request are
        # checked — unless it is that very object.
        objects = np.fromiter(map(id, events), np.intp, len(events))
        copies = np.flatnonzero(objects != objects[batch.first][batch.inverse])
        if not _plain_states(events[r].values() for r in copies.tolist()):
            for event in events:
                validate(event)
        ids = [validate(events[r]) for r in batch.first]
        snap = self.snapshot()
        cache = self._event_cache
        values = []
        missed = 0
        for r, event_ids in zip(batch.first, ids):
            value = cache.data.get(keys[r])
            if value is None:
                value = self._event_value(snap, event_ids)
                missed += 1
            values.append(value)
        for g in batch.recency:
            cache.put(keys[batch.first[g]], values[g])
        cache.hits += len(keys) - missed
        cache.misses += missed
        self.queries_served += len(keys)
        return np.array(values, dtype=np.float64)[batch.inverse]

    @staticmethod
    def _event_value(snap: ModelSnapshot, ids) -> float:
        """One validated event's log-probability from ``snap``'s terms,
        with the live walk's early ``-inf`` and zero-parent raise."""
        terms, neg, bad = snap.terms, snap.neg, snap.bad
        total = 0.0
        for name, joint, _ in ids:
            if neg[joint]:
                return -math.inf
            if bad[joint]:
                raise QueryError(
                    f"no data observed for parent configuration of {name!r}"
                )
            total += terms[joint]
        return float(total)

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
        plan = self._target_plan(target)
        vec = self._evidence_vector(target, evidence)
        snap = self.snapshot()
        self.queries_served += 1
        return self._scores_from_vec(snap, plan, vec)

    def _evidence_vector(
        self, target: str, evidence: Mapping[str, int]
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
        self._target_plan(target)  # an unknown target is the first error
        vec = self._evidence_vector(target, evidence)
        return int(self.classify_batch((target,), vec[None, :])[0])

    def classify_batch(self, targets, data: np.ndarray) -> np.ndarray:
        """Bit-identical to ``BayesianClassifier.predict_batch``, cached.

        ``data`` rows are full assignments whose target column is
        ignored (treated as hidden), exactly like the live batch path.
        Every column must still hold an in-range state and every target
        must name a variable: otherwise :class:`QueryError`, as on the
        live path, before the snapshot, a cache or a counter moves.

        Requests are grouped by (target, row with the target column
        zeroed) and each group is decided once (:meth:`_decide`).  The
        grouping key is one bytes slice per row over the rows narrowed
        to the smallest dtype that holds every state, with the target
        index appended.
        """
        data = self._network._as_index_rows(data)
        targets = list(targets)
        if data.shape[0] != len(targets):
            raise QueryError("data rows must align with the targets list")
        plans = {t: self._target_plan(t) for t in dict.fromkeys(targets)}
        index_of = {t: plan.target_index for t, plan in plans.items()}
        index = np.fromiter(
            map(index_of.__getitem__, targets),
            dtype=np.intp, count=len(targets),
        )
        batch = _Coalesced(self._row_keys(data, index))
        requests = []
        for r in batch.first:
            plan = plans[targets[r]]
            vec = data[r].copy()
            vec[plan.target_index] = 0
            requests.append((targets[r], plan, vec))
        snap = self.snapshot()
        return self._decide(snap, requests, batch)[batch.inverse]

    def _row_keys(self, data: np.ndarray, index: np.ndarray) -> list[bytes]:
        """One grouping key per classification request (see
        :meth:`classify_batch`); equal keys are equal requests."""
        m, n = data.shape
        dtype = self._state_dtype
        tail = np.dtype(np.intp).itemsize // dtype.itemsize
        keys = np.empty((m, n + tail), dtype=dtype)
        np.copyto(keys[:, :n], data, casting="unsafe")
        keys[np.arange(m), index] = 0
        keys[:, n:] = index.view(dtype).reshape(m, tail)
        # Each row as one opaque item, which ``tolist`` yields as bytes.
        row = np.dtype((np.void, keys.strides[0]))
        return keys.view(row).ravel().tolist()

    def _decide(
        self, snap: ModelSnapshot, requests, batch: "_Coalesced"
    ) -> np.ndarray:
        """Decisions for distinct ``(target, plan, vec)`` requests (``vec``
        with the target column zeroed), group ``g`` standing for
        ``batch.counts[g]`` identical requests.

        Each entry's fate is read from the decision cache as the batch
        begins; recomputations run in first-occurrence order and the
        cache takes the entries in last-occurrence order, so the slice
        and decision LRUs end as a per-request loop leaves them.
        """
        cache = self._decision_cache
        threshold = self.staleness_threshold
        keys, entries = [], []
        fresh = stale = invalidated = 0
        for (target, plan, vec), count in zip(requests, batch.counts):
            key = (plan.target_index, vec.tobytes())
            entry = cache.data.get(key)
            # A same-epoch entry is served as is: not one message since
            # the decision was computed, so the estimates — and the
            # decision — are literally unchanged.
            if entry is not None and entry.epoch != snap.epoch:
                if entry.margin > threshold(target):
                    # Theorem-3 margin still covers the worst drift the
                    # accuracy guarantee allows: serve stale, and every
                    # duplicate with it.
                    stale += int(count)
                else:
                    invalidated += 1
                    entry = None
            if entry is None:
                scores = self._scores_from_vec(snap, plan, vec)
                entry = _DecisionEntry(
                    int(np.argmax(scores)), self.decision_margin(scores),
                    snap.epoch,
                )
                fresh += 1
            keys.append(key)
            entries.append(entry)
        for g in batch.recency:
            cache.put(keys[g], entries[g])
        total = int(batch.counts.sum())
        cache.hits += total - fresh
        cache.misses += fresh
        self.decision_stale_hits += stale
        self.decision_invalidations += invalidated
        self.queries_served += total
        return np.array([e.decision for e in entries], dtype=np.int64)

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

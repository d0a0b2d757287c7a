"""The master streaming-MLE algorithm (Algorithms 1-3 of the paper).

One :class:`StreamingMLEEstimator` owns a bank of distributed counters with
two counters per CPD table entry family:

- ``A_i(x_i, xpar_i)`` for every variable/parent-configuration pair —
  laid out as a contiguous block of ``J_i * K_i`` counters per variable;
- ``A_i(xpar_i)`` — a block of ``K_i`` counters per variable, maintained
  *separately per variable* even when two variables share a parent set, so
  the product terms in the analysis stay independent (Sec. IV-D).

``update_batch`` implements Algorithm 2 vectorized over a batch of events:
the increments of each event are encoded as flat counter ids, collapsed to
unique ``(site, counter, count)`` triples by one histogram pass, and handed
to the bank's grouped fast path (``docs/performance.md`` maps the whole
hot path).

The encoder walks the per-variable ``(parent position, stride)`` pairs of
the shared stride plan
(:meth:`~repro.bn.network.BayesianNetwork.stride_rows`) over a
*transposed* ``(n, m)`` batch, so each gather/multiply/add is a contiguous
row operation; ``O(edges)`` work per event with no Python loop per
variable.  It emits only the *joint* counter ids: each event contributes
exactly one joint id and one parent id per variable, and the parent id is
a pure function of the joint id, so the grouping layer derives the
parent-half histogram from the joint-half histogram
(``_derive_parent_counts``) instead of encoding and binning a second
``(m, n)`` array.  The per-variable reference encoder the tests compare
against lives in ``tests/ingest_oracle.py``.
``query``/``query_event`` implement Algorithm 3.
"""

from __future__ import annotations

import math
from collections.abc import Mapping

import numpy as np

from repro.bn.network import BayesianNetwork
from repro.counters.base import CounterBank
from repro.errors import QueryError, StreamError

#: Largest ``k * n_counters`` key space the "dense" grouping strategy may
#: histogram (8M int64 entries = 64 MB transient); beyond it "auto" falls
#: back to argsort sharding.
_DENSE_GROUP_BUDGET = 1 << 23


class _VariableLayout:
    """Counter-id layout for one variable's two counter families."""

    __slots__ = (
        "index", "cardinality", "parent_positions", "parent_strides",
        "k_configs", "joint_offset", "parent_offset",
    )

    def __init__(self, index, cardinality, parent_positions, parent_strides,
                 k_configs, joint_offset, parent_offset) -> None:
        self.index = index
        self.cardinality = cardinality
        self.parent_positions = parent_positions
        self.parent_strides = parent_strides
        self.k_configs = k_configs
        self.joint_offset = joint_offset
        self.parent_offset = parent_offset

    def parent_state(self, row: np.ndarray) -> int:
        if self.parent_positions.size == 0:
            return 0
        return int(row[self.parent_positions] @ self.parent_strides)

    def parent_state_batch(self, data: np.ndarray) -> np.ndarray:
        if self.parent_positions.size == 0:
            return np.zeros(data.shape[0], dtype=np.int64)
        return data[:, self.parent_positions] @ self.parent_strides


class _SparseEncodePlan:
    """Flattened per-variable ``(parent position, stride)`` pairs.

    The sparse encoder walks one plan row per variable over the
    *transposed* batch: each step is a handful of contiguous
    ``(m,)``-vector operations on a cache-resident row (multiply by the
    CPD stride, accumulate, fold in the layout offset and the optional
    site keys while hot), so the total work is ``O((n + edges) * m)``
    sequential traffic — no per-variable Python arithmetic, no O(n^2)
    matmul.  Rows hold plain Python ints: the per-row numpy calls then
    carry no array-scalar boxing overhead.

    Built from the network's shared stride plan
    (:meth:`~repro.bn.network.BayesianNetwork.stride_rows`) — the same
    rows the forward sampler's CDF tables are laid out by, so encoder
    and sampler can never disagree about the configuration code.
    """

    __slots__ = ("rows",)

    def __init__(
        self,
        stride_rows: list[tuple[int, int, tuple[tuple[int, int], ...]]],
        joint_offsets: list[int],
    ) -> None:
        self.rows: list[tuple[int, int, list[tuple[int, int]]]] = [
            (k_configs, joint_offset, list(parents))
            for (_, k_configs, parents), joint_offset in zip(
                stride_rows, joint_offsets
            )
        ]


class StreamingMLEEstimator:
    """Continuously maintains an approximate MLE of a Bayesian network.

    Parameters
    ----------
    network:
        The (fixed, known) structure and domains; CPD *values* are ignored —
        parameters are learned from the stream.
    bank_factory:
        Callable ``(n_counters) -> CounterBank`` building the counter bank;
        the factory decides exactness/allocation (see
        :mod:`repro.core.algorithms`).
    name:
        Display name of the algorithm this estimator realizes.
    """

    def __init__(
        self,
        network: BayesianNetwork,
        bank_factory,
        *,
        name: str = "estimator",
    ) -> None:
        self.network = network
        self.name = str(name)
        self._layouts: list[_VariableLayout] = []
        stride_rows = network.stride_rows()
        joint_cursor = 0
        for idx, (cardinality, k_configs, parents) in enumerate(stride_rows):
            self._layouts.append(
                _VariableLayout(
                    index=idx,
                    cardinality=cardinality,
                    parent_positions=np.array(
                        [p for p, _ in parents], dtype=np.int64
                    ),
                    parent_strides=np.array(
                        [s for _, s in parents], dtype=np.int64
                    ),
                    k_configs=k_configs,
                    joint_offset=joint_cursor,
                    parent_offset=-1,  # assigned below
                )
            )
            joint_cursor += cardinality * k_configs
        self.n_joint_counters = joint_cursor
        parent_cursor = joint_cursor
        for layout in self._layouts:
            layout.parent_offset = parent_cursor
            parent_cursor += layout.k_configs
        self.n_counters = parent_cursor
        # Static query-path lookups: the name -> layout map and each
        # variable's (parent name, stride) pairs never change after
        # construction, so ``log_query_event`` must not rebuild them per
        # call.  Strides are plain Python ints — the scalar event path
        # then computes parent configurations with exact int arithmetic
        # and no per-call array allocation.
        self._name_to_layout = {
            network.node_names[l.index]: l for l in self._layouts
        }
        self._event_plans: dict[str, tuple] = {}
        for layout in self._layouts:
            node = network.node_names[layout.index]
            parent_names = network.cpd(node).parent_names
            self._event_plans[node] = (
                layout,
                tuple(parent_names),
                tuple(int(s) for s in layout.parent_strides),
                network.variable(node),
            )
        self._sparse_plan = _SparseEncodePlan(
            stride_rows, [l.joint_offset for l in self._layouts]
        )
        # Compact dtype for the sparse encoder's workspace; int32 covers
        # every practical network (the id space would need 2**31 counters
        # to overflow it).
        self._sparse_dtype = (
            np.int32 if self.n_counters < np.iinfo(np.int32).max
            else np.int64
        )
        # joint id -> parent id (relative to the parent block): lets the
        # grouping layer derive the parent-half histogram from the
        # joint-half histogram instead of binning a second (m, n) array.
        rel = np.empty(self.n_joint_counters, dtype=np.int64)
        for layout in self._layouts:
            block = layout.cardinality * layout.k_configs
            rel[layout.joint_offset:layout.joint_offset + block] = (
                layout.parent_offset - self.n_joint_counters
                + np.tile(np.arange(layout.k_configs), layout.cardinality)
            )
        self._parent_of_joint_rel = rel
        self._buffers: dict = {}
        self.bank: CounterBank = bank_factory(self.n_counters)
        if self.bank.n_counters != self.n_counters:
            raise StreamError(
                f"bank has {self.bank.n_counters} counters, layout needs "
                f"{self.n_counters}"
            )
        self.n_sites = self.bank.n_sites
        self.events_seen = 0

    # ------------------------------------------------------------------
    # Training (Algorithm 2)
    # ------------------------------------------------------------------
    def _buffer(self, key: str, shape: tuple, dtype) -> np.ndarray:
        """A reusable scratch array; reallocated only when ``shape`` moves.

        Chunked ingest feeds same-size batches, so in steady state the
        encoder touches no allocator at all (the zero-copy contract of
        ``MonitoringSession.ingest_sampler``).
        """
        buf = self._buffers.get(key)
        if buf is None or buf.shape != shape or buf.dtype != dtype:
            buf = np.empty(shape, dtype=dtype)
            self._buffers[key] = buf
        return buf

    def _encode_joint(
        self, data: np.ndarray, add: np.ndarray | None = None
    ) -> np.ndarray:
        """Joint counter ids as an ``(n, m)`` transposed workspace array.

        Works in a compact integer dtype (int32 whenever the id space
        fits, which halves memory traffic and doubles SIMD width), one
        variable row at a time: multiply the variable's states by its
        stride, accumulate each parent's contribution, then fold in the
        layout offset — and ``add`` (per-event values, e.g. the grouping
        layer's ``site * n_counters`` keys) — while the row is still
        cache-hot.  A final bulk pass upcasts to int64, which
        ``np.bincount`` consumes without an internal copy.  When ``data``
        is F-contiguous (the
        :meth:`~repro.bn.sampling.ForwardSampler.sample_stream`
        ``reuse_buffer`` layout) the transpose read is a free view.

        ``add`` requires ``offset + id + add`` to stay inside the compact
        dtype; callers gate on ``n_sites * n_counters - 1`` fitting
        :attr:`_sparse_dtype` (see ``_update_grouped_dense``).
        """
        plan = self._sparse_plan
        n = len(self._layouts)
        m = data.shape[0]
        dtype = self._sparse_dtype
        dataT = self._buffer("sparse.dataT", (n, m), dtype)
        np.copyto(dataT, data.T, casting="unsafe")
        joint = self._buffer("sparse.joint", (n, m), dtype)
        scratch = self._buffer("sparse.scratch", (m,), dtype)
        if add is not None:
            add = np.asarray(add, dtype=dtype)
        out = (
            joint if dtype is np.int64
            else self._buffer("sparse.joint64", (n, m), np.int64)
        )
        for index, (k_configs, joint_offset, parents) in enumerate(plan.rows):
            row = joint[index]
            np.multiply(dataT[index], k_configs, out=row)
            for position, stride in parents:
                np.multiply(dataT[position], stride, out=scratch)
                row += scratch
            row += joint_offset
            # The upcast to int64 (which np.bincount consumes without an
            # internal copy) rides the last per-row op while the row is
            # cache-hot instead of costing a separate bulk pass.
            if add is not None:
                np.add(row, add, out=out[index])
            elif out is not joint:
                np.copyto(out[index], row)
        return out

    def _derive_parent_counts(self, dense: np.ndarray) -> None:
        """Fill one site's parent-counter histogram region in place.

        ``dense`` is a length-``n_counters`` histogram whose joint region
        ``[0, n_joint)`` is populated and whose parent region is garbage.
        Each event contributes exactly one joint id and one parent id per
        variable, and the parent id is a function of the joint id, so the
        parent histogram is an exact segment-sum of the joint one.  The
        float64 ``bincount`` weights are exact: per-batch counts are far
        below 2**53.
        """
        n_joint = self.n_joint_counters
        parent = np.bincount(
            self._parent_of_joint_rel,
            weights=dense[:n_joint].astype(np.float64),
            minlength=self.n_counters - n_joint,
        )
        dense[n_joint:] = parent.astype(np.int64)

    def _validate_batch(self, data, site_ids, *,
                        check: bool = True) -> tuple[np.ndarray, np.ndarray]:
        data = np.asarray(data, dtype=np.int64)
        site_ids = np.asarray(site_ids, dtype=np.int64)
        if data.ndim != 2 or data.shape[1] != len(self._layouts):
            raise StreamError(
                f"data must have shape (m, {len(self._layouts)}), "
                f"got {data.shape}"
            )
        if site_ids.shape != (data.shape[0],):
            raise StreamError("site_ids must have one entry per event")
        if data.shape[0] == 0 or not check:
            return data, site_ids
        if site_ids.min() < 0 or site_ids.max() >= self.n_sites:
            raise StreamError("site id out of range")
        cards = self.network.cardinalities()
        if data.min() < 0 or np.any(data >= cards[None, :]):
            raise StreamError("event contains out-of-range state indices")
        return data, site_ids

    def update_batch(
        self,
        data: np.ndarray,
        site_ids: np.ndarray,
        *,
        strategy: str = "auto",
        validate: bool = True,
    ) -> None:
        """Feed a batch of events, each observed at its assigned site.

        ``data`` is ``(m, n)`` state indices in topological variable order;
        ``site_ids`` is ``(m,)``.  ``validate=False`` skips the O(m n)
        range scans for callers whose batches are valid by construction
        (the session's fused sampler ingest); shape checks always run.

        ``strategy`` picks how the per-event increments are grouped into
        the unique ``(site, counter, count)`` triples the bank consumes:

        - ``"argsort"`` — one stable argsort of ``site_ids`` shards the batch
          into contiguous per-site runs; memory stays ``O(touched)``, which
          is why the distributed site workers use it.
        - ``"dense"`` — increments are keyed as ``site * n_counters +
          counter`` and collapsed by a single ``bincount`` over the whole
          ``k * n_counters`` key space, handed to the bank as one table.
        - ``"auto"`` (default) — ``"dense"`` when the key space fits
          :data:`_DENSE_GROUP_BUDGET` and is amortized by the batch's
          increment count, else ``"argsort"``.

        Both strategies hand the bank identical per-site (sorted, unique)
        aggregates in ascending site order, so they leave it in a
        byte-identical state — including the RNG-driven HYZ bank, whose
        draw order depends only on the per-site slices it receives.
        """
        data, site_ids = self._validate_batch(data, site_ids, check=validate)
        if data.shape[0] == 0:
            return
        if strategy == "auto":
            # Dense pays O(k * n_counters) per call regardless of batch
            # size, so it must also be amortized by the batch: require the
            # key table to fit the budget AND not dwarf the increment count
            # (2n per event), or tiny batches regress badly.
            table = self.n_sites * self.n_counters
            increments = 2 * len(self._layouts) * data.shape[0]
            strategy = (
                "dense"
                if table <= _DENSE_GROUP_BUDGET and table <= 8 * increments
                else "argsort"
            )
        if strategy == "dense":
            self._update_grouped_dense(data, site_ids)
        elif strategy == "argsort":
            self._update_grouped_argsort(data, site_ids)
        else:
            raise StreamError(
                f"unknown update strategy {strategy!r}; expected 'auto', "
                "'dense' or 'argsort'"
            )
        self.events_seen += data.shape[0]

    def _update_grouped_dense(self, data: np.ndarray, site_ids: np.ndarray) -> None:
        n_counters = self.n_counters
        table = self.n_sites * n_counters
        site_keys = site_ids * np.int64(n_counters)
        if table - 1 <= np.iinfo(self._sparse_dtype).max:
            # Keys fold into the encoder's cache-hot row pass.
            ids = self._encode_joint(data, site_keys)
        else:
            ids = self._encode_joint(data)
            ids += site_keys[None, :]
        dense = np.bincount(ids.ravel(), minlength=table)
        per_site = dense.reshape(self.n_sites, n_counters)
        for site in range(self.n_sites):
            self._derive_parent_counts(per_site[site])
        # The bank consumes the per-site table directly — no
        # flatnonzero/divmod round-trip through sparse triples.
        self.bank.bulk_add_table(per_site, check=False)

    def _update_grouped_argsort(self, data: np.ndarray, site_ids: np.ndarray) -> None:
        n_counters = self.n_counters
        order = np.argsort(site_ids, kind="stable")
        sorted_sites = site_ids[order]
        starts = np.flatnonzero(
            np.r_[True, sorted_sites[1:] != sorted_sites[:-1]]
        )
        bounds = np.append(starts, sorted_sites.size)
        # Transposed ids are encoded in stream order; per-site slices
        # become column takes below.
        ids = self._encode_joint(data)
        site_parts, counter_parts, count_parts = [], [], []
        for i in range(starts.size):
            lo, hi = bounds[i], bounds[i + 1]
            flat = ids.take(order[lo:hi], axis=1).ravel()
            dense = np.bincount(flat, minlength=n_counters)
            self._derive_parent_counts(dense)
            touched = np.flatnonzero(dense)
            counter_parts.append(touched)
            count_parts.append(dense[touched])
            site_parts.append(
                np.full(touched.size, sorted_sites[lo], dtype=np.int64)
            )
        self.bank.bulk_add_grouped(
            np.concatenate(site_parts),
            np.concatenate(counter_parts),
            np.concatenate(count_parts),
            check=False,
        )

    def update(self, event: np.ndarray, site_id: int) -> None:
        """Algorithm 2 for a single event."""
        event = np.asarray(event, dtype=np.int64).reshape(1, -1)
        self.update_batch(event, np.array([site_id]))

    # ------------------------------------------------------------------
    # Queries (Algorithm 3)
    # ------------------------------------------------------------------
    def _event_indices(self, assignment) -> np.ndarray:
        return self.network._as_index_vector(assignment)

    def log_query(self, assignment) -> float:
        """Natural log of the estimated joint probability of a full event.

        Returns ``-inf`` when any numerator counter is zero; raises
        :class:`QueryError` when a denominator counter is zero while its
        numerator is not (cannot happen under consistent updates).
        """
        vec = self._event_indices(assignment)
        estimates = self.bank.estimates()
        total = 0.0
        for layout in self._layouts:
            pstate = layout.parent_state(vec)
            num = estimates[
                layout.joint_offset + vec[layout.index] * layout.k_configs + pstate
            ]
            den = estimates[layout.parent_offset + pstate]
            if num <= 0.0:
                return -math.inf
            if den <= 0.0:
                raise QueryError(
                    "parent counter is zero while joint counter is not; "
                    "the model has seen no consistent data for this event"
                )
            total += math.log(num) - math.log(den)
        return total

    def query(self, assignment) -> float:
        """Algorithm 3: estimated joint probability of a full assignment."""
        value = self.log_query(assignment)
        return math.exp(value) if value > -math.inf else 0.0

    def log_query_event(self, event: Mapping[str, int]) -> float:
        """Estimated log-probability of an ancestrally closed partial event."""
        estimates = self.bank.estimates()
        plans = self._event_plans
        for name in event:
            if name not in plans:
                raise QueryError(f"unknown variable {name!r} in event")
        total = 0.0
        variable = self.network.variable
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
            state_idx = var.state_index(state)
            num = estimates[
                layout.joint_offset + state_idx * layout.k_configs + pstate
            ]
            den = estimates[layout.parent_offset + pstate]
            if num <= 0.0:
                return -math.inf
            if den <= 0.0:
                raise QueryError(
                    f"no data observed for parent configuration of {name!r}"
                )
            total += math.log(num) - math.log(den)
        return total

    def query_event(self, event: Mapping[str, int]) -> float:
        """Estimated probability of an ancestrally closed partial event."""
        value = self.log_query_event(event)
        return math.exp(value) if value > -math.inf else 0.0

    def log_query_batch(
        self, data: np.ndarray, *, strict: bool = False
    ) -> np.ndarray:
        """Vectorized :meth:`log_query` over rows of full assignments.

        By default every degenerate counter pair — zero numerator *or*
        zero denominator — folds into ``-inf`` for that row.  With
        ``strict=True`` the batch replicates the scalar walk exactly:
        rows whose first degenerate family has a zero numerator return
        ``-inf`` (later families are not inspected, matching the scalar
        short-circuit), while a zero *denominator* under a positive
        numerator raises :class:`QueryError` just like :meth:`log_query`
        would on that row.
        """
        data = np.asarray(data, dtype=np.int64)
        if data.ndim != 2 or data.shape[1] != len(self._layouts):
            raise QueryError(
                f"data must have shape (m, {len(self._layouts)}), "
                f"got {data.shape}"
            )
        estimates = self.bank.estimates()
        n_layouts = len(self._layouts)
        total = np.zeros(data.shape[0], dtype=np.float64)
        if strict:
            first_neg = np.full(data.shape[0], n_layouts, dtype=np.int64)
            first_bad = np.full(data.shape[0], n_layouts, dtype=np.int64)
        with np.errstate(divide="ignore", invalid="ignore"):
            for position, layout in enumerate(self._layouts):
                pstate = layout.parent_state_batch(data)
                num = estimates[
                    layout.joint_offset
                    + data[:, layout.index] * layout.k_configs
                    + pstate
                ]
                den = estimates[layout.parent_offset + pstate]
                term = np.where(
                    (num > 0) & (den > 0), np.log(num) - np.log(den), -np.inf
                )
                total += term
                if strict:
                    neg = num <= 0
                    bad = ~neg & (den <= 0)
                    np.minimum(
                        first_neg, np.where(neg, position, n_layouts),
                        out=first_neg,
                    )
                    np.minimum(
                        first_bad, np.where(bad, position, n_layouts),
                        out=first_bad,
                    )
        if strict:
            offending = np.flatnonzero(first_bad < first_neg)
            if offending.size:
                raise QueryError(
                    f"parent counter is zero while joint counter is not "
                    f"for row {int(offending[0])} (and "
                    f"{int(offending.size) - 1} more); the model has seen "
                    f"no consistent data for these events"
                )
        return total

    # ------------------------------------------------------------------
    # Model export
    # ------------------------------------------------------------------
    def estimated_cpd_values(self, name: str) -> np.ndarray:
        """The current estimated CPD table for one variable.

        Shape ``(J_i, K_i)``; columns with no observed parent data fall back
        to the uniform distribution.
        """
        layout = self._layouts[self.network.variable_index(name)]
        estimates = self.bank.estimates()
        j, k = layout.cardinality, layout.k_configs
        joint = estimates[
            layout.joint_offset : layout.joint_offset + j * k
        ].reshape(j, k)
        joint = np.clip(joint, 0.0, None)
        col_sums = joint.sum(axis=0)
        values = np.full((j, k), 1.0 / j)
        seen = col_sums > 0
        values[:, seen] = joint[:, seen] / col_sums[seen]
        return values

    def to_network(self, *, name: str | None = None) -> BayesianNetwork:
        """Materialize the learned parameters as a standalone network."""
        from repro.bn.cpd import TabularCPD

        replacements = []
        for node in self.network.node_names:
            cpd = self.network.cpd(node)
            replacements.append(
                TabularCPD(
                    node,
                    cpd.cardinality,
                    cpd.parent_names,
                    cpd.parent_cards,
                    self.estimated_cpd_values(node),
                )
            )
        return self.network.with_replaced_cpds(
            replacements, name=name if name is not None else f"{self.name}-learned"
        )

    # ------------------------------------------------------------------
    # State externalization (snapshot/resume)
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """Stream position plus the full counter-bank state.

        The network/layout and the bank's configuration are *not* part of
        the state — they are rebuilt from the spec that constructed this
        estimator, and :meth:`load_state_dict` assumes the receiving
        estimator has an identical layout.
        """
        return {
            "events_seen": int(self.events_seen),
            "bank": self.bank.state_dict(),
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore state captured by :meth:`state_dict` (in place)."""
        self.events_seen = int(state["events_seen"])
        self.bank.load_state_dict(state["bank"])

    # ------------------------------------------------------------------
    @property
    def total_messages(self) -> int:
        """Communication used so far (the paper's headline metric)."""
        return self.bank.total_messages

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"StreamingMLEEstimator({self.name!r}, "
            f"n_counters={self.n_counters}, events={self.events_seen}, "
            f"messages={self.total_messages})"
        )

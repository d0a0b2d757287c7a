"""The master streaming-MLE algorithm (Algorithms 1-3 of the paper).

One :class:`StreamingMLEEstimator` owns a bank of distributed counters with
two counters per CPD table entry family:

- ``A_i(x_i, xpar_i)`` for every variable/parent-configuration pair —
  laid out as a contiguous block of ``J_i * K_i`` counters per variable;
- ``A_i(xpar_i)`` — a block of ``K_i`` counters per variable, maintained
  *separately per variable* even when two variables share a parent set, so
  the product terms in the analysis stay independent (Sec. IV-D).

``update_batch`` implements Algorithm 2 vectorized over a batch of events:
the increments of each event are encoded as counter ids, collapsed to
per-site counts by one histogram pass per family (``count_table``), and
handed to the bank as one table (``docs/performance.md`` maps the whole
hot path).  A distributed site worker runs the same ``count_table`` over
its hosted sites and ships the table's non-zero entries instead.

One row walk (``_joint_id_rows``) turns a batch of full assignments into
counter ids: it copies the batch *transposed* into a compact ``(n, m)``
workspace once, then walks the per-variable ``(parent position, stride)``
pairs of the shared stride plan
(:meth:`~repro.bn.network.BayesianNetwork.stride_rows`) and yields each
variable's joint-id row in layout order, relative to the family's block,
so each multiply/add is a contiguous row operation; ``O(edges)`` work per
event with no Python loop per variable.  It serves both directions:

- ingest.  ``count_table`` keys each family's row by site and bins it
  with one ``bincount`` into a reused ``(k, n_counters)`` table.  Only
  *joint* ids are encoded: each event contributes exactly one joint id
  and one parent id per variable, and the parent id is a pure function of
  the joint id, so the parent-half histogram is derived from the
  joint-half histogram (``_derive_parent_counts``) instead of encoding
  and binning a second ``(m, n)`` array;
- batched point queries (``log_query_batch`` here, and
  ``QueryServer.log_joint_batch`` over snapshot terms) gather each row's
  terms from the family's block and sum them in layout order, the same
  float additions as the scalar walk.  Reads use their own workspace, so
  a read burst never reallocates the ingest buffers.

The per-variable reference encoder and query loop the tests compare
against live in ``tests/ingest_oracle.py``.
``query``/``query_event`` implement Algorithm 3.
"""

from __future__ import annotations

import math
from collections.abc import Mapping

import numpy as np

from repro.bn.network import BayesianNetwork
from repro.counters.base import CounterBank
from repro.errors import QueryError, StreamError
from repro.utils.validation import check_positive_int, integers

#: Rows per block when ``_joint_id_rows`` transposes a batch that is not
#: F-contiguous: a block's reads and writes stay in cache, where one
#: whole-array transposed copy strides across every row per column
#: (C-order int64 into int32 on a 2-core Xeon: 2000 x 724 rows
#: 3.1 -> 2.0 ms, 20 000 x 724 rows 105 -> 34 ms).
_TRANSPOSE_BLOCK = 256


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


class _StrictScan:
    """Strict batch-query semantics, one family at a time.

    Tracks, per row, the first family whose numerator is zero (``neg``)
    and the first whose positive numerator sits over a zero denominator
    (``bad``).  The scalar walk stops at the first degenerate family, so
    a row raises exactly when that family is the ``bad`` kind.
    """

    __slots__ = ("n", "first_neg", "first_bad")

    def __init__(self, m: int, n: int) -> None:
        self.n = n
        self.first_neg = np.full(m, n, dtype=np.int64)
        self.first_bad = np.full(m, n, dtype=np.int64)

    def see(self, index: int, neg: np.ndarray, bad: np.ndarray) -> None:
        n = self.n
        np.minimum(self.first_neg, np.where(neg, index, n),
                   out=self.first_neg)
        np.minimum(self.first_bad, np.where(bad, index, n),
                   out=self.first_bad)

    def check(self) -> None:
        offending = np.flatnonzero(self.first_bad < self.first_neg)
        if offending.size:
            raise QueryError(
                f"parent counter is zero while joint counter is not "
                f"for row {int(offending[0])} (and "
                f"{int(offending.size) - 1} more); the model has seen "
                f"no consistent data for these events"
            )


class _SparseEncodePlan:
    """Flattened per-variable ``(parent position, stride)`` pairs.

    The row walk steps through one plan row per variable over the
    *transposed* batch: each step is a handful of contiguous
    ``(m,)``-vector operations on a cache-resident row (multiply by the
    CPD stride — or, for the stride-1 parent every family ends with,
    just add — and accumulate), so the total work is
    ``O((n + edges) * m)`` sequential traffic — no per-variable Python
    arithmetic, no O(n^2) matmul.  Each row also carries the family's
    joint block as a ``slice`` of the counter-id space.  Rows hold plain
    Python ints: the per-row numpy calls then carry no array-scalar
    boxing overhead.

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
        self.rows: list[tuple[int, slice, list[tuple[int, int]]]] = [
            (
                k_configs,
                slice(joint_offset, joint_offset + cardinality * k_configs),
                list(parents),
            )
            for (cardinality, k_configs, parents), joint_offset in zip(
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
    n_sites:
        Instead of ``bank_factory``: build a counting-only estimator with
        no bank, whose :meth:`count_table` has ``n_sites`` rows (a site
        worker's encoder; nothing is ever applied to a bank there).
    """

    def __init__(
        self,
        network: BayesianNetwork,
        bank_factory=None,
        *,
        name: str = "estimator",
        n_sites: int | None = None,
    ) -> None:
        if (bank_factory is None) == (n_sites is None):
            raise TypeError("give exactly one of bank_factory and n_sites")
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
        self.bank: CounterBank | None = None
        if bank_factory is None:
            self.n_sites = check_positive_int(n_sites, "n_sites")
        else:
            self.bank = bank_factory(self.n_counters)
            if self.bank.n_counters != self.n_counters:
                raise StreamError(
                    f"bank has {self.bank.n_counters} counters, layout "
                    f"needs {self.n_counters}"
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

    def _joint_id_rows(self, data: np.ndarray, workspace: str):
        """Yield ``(index, block, ids)`` for each variable in layout order.

        ``data`` is ``(m, n)`` state indices.  The walk reads it
        variable-major: an F-contiguous batch whose dtype casts safely
        into the compact id dtype (int32 whenever the id space fits) is
        read in place — the uint8 chunk of the fused
        ``ingest_sampler`` path, a 14.5 MB view at 20 000 LINK rows,
        never widened or copied.  Any other batch is copied transposed
        into a compact ``(n, m)`` workspace once: with one copy from an
        F-contiguous int64 batch (every
        :meth:`~repro.bn.sampling.ForwardSampler.sample` draw), in
        blocks of :data:`_TRANSPOSE_BLOCK` rows from any other layout.
        Then, one variable at a time, the walk multiplies the variable's
        states by its stride and accumulates each parent's contribution
        (a stride-1 parent is added without a multiply).  Every multiply
        runs in the compact dtype (``dtype=``), so a uint8 state times
        ``k_configs`` or a stride cannot wrap.

        ``ids`` are the family's joint ids *within* its block —
        ``state * K + parent configuration`` — and ``block`` is the
        ``slice`` of the counter-id space that block occupies, so a
        consumer indexes ``array[block]`` with ``ids`` or adds
        ``block.start`` where it needs flat ids.  ``ids`` is one reused,
        cache-hot ``(m,)`` row: consume it before advancing the walk.

        ``workspace`` prefixes the scratch-buffer keys.  Ingest and reads
        keep separate workspaces, so a read whose row count differs from
        the ingest chunk never reallocates the ingest buffers.
        """
        n = len(self._layouts)
        m = data.shape[0]
        dtype = self._sparse_dtype
        if data.flags.f_contiguous and np.can_cast(data.dtype, dtype):
            dataT = data.T
        else:
            dataT = self._buffer(workspace + ".dataT", (n, m), dtype)
            if data.flags.f_contiguous:
                np.copyto(dataT, data.T, casting="unsafe")
            else:
                for start in range(0, m, _TRANSPOSE_BLOCK):
                    stop = start + _TRANSPOSE_BLOCK
                    np.copyto(dataT[:, start:stop], data[start:stop].T,
                              casting="unsafe")
        row = self._buffer(workspace + ".row", (m,), dtype)
        scratch = self._buffer(workspace + ".scratch", (m,), dtype)
        for index, (k_configs, block, parents) in enumerate(
            self._sparse_plan.rows
        ):
            np.multiply(dataT[index], k_configs, out=row, dtype=dtype)
            for position, stride in parents:
                if stride == 1:
                    row += dataT[position]
                else:
                    np.multiply(dataT[position], stride, out=scratch,
                                dtype=dtype)
                    row += scratch
            yield index, block, row

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

    def _check_events(self, data, *, check: bool = True) -> np.ndarray:
        """``data`` as an ``(m, n)`` batch of its own integer dtype.

        Any integer dtype passes uncopied: ``count_table`` reads it as
        is.  With ``check`` every state is range-scanned, O(m n).
        """
        data = integers(data, "event data", StreamError)
        if data.ndim != 2 or data.shape[1] != len(self._layouts):
            raise StreamError(
                f"data must have shape (m, {len(self._layouts)}), "
                f"got {data.shape}"
            )
        if check and data.size:
            cards = self.network.cardinalities()
            if data.min() < 0 or np.any(data >= cards[None, :]):
                raise StreamError(
                    "event contains out-of-range state indices"
                )
        return data

    def _check_sites(self, site_ids, m: int, *,
                     check: bool = True) -> np.ndarray:
        """``site_ids`` as ``m`` integers; with ``check``, each a site."""
        site_ids = integers(site_ids, "site_ids", StreamError)
        if site_ids.shape != (m,):
            raise StreamError("site_ids must have one entry per event")
        if check and m and (site_ids.min() < 0
                            or site_ids.max() >= self.n_sites):
            raise StreamError("site id out of range")
        return site_ids

    def update_batch(
        self,
        data: np.ndarray,
        site_ids: np.ndarray,
        *,
        validate: bool = True,
    ) -> None:
        """Feed a batch of events, each observed at its assigned site.

        ``data`` is ``(m, n)`` state indices in topological variable order;
        ``site_ids`` is ``(m,)``.  ``validate=False`` skips the O(m n)
        range scans for callers whose batches are valid by construction
        (the session's fused sampler ingest); shape checks always run.

        The batch is counted into one per-site table (:meth:`count_table`)
        and handed to the bank whole: sites ascending, silent sites
        skipped, so every bank ends byte-identical to a per-site walk of
        the same aggregates (``tests/ingest_oracle.py::reference_ingest``)
        — including the RNG-driven HYZ bank.
        """
        data = self._check_events(data, check=validate)
        site_ids = self._check_sites(site_ids, data.shape[0], check=validate)
        if data.shape[0] == 0:
            return
        self.bank.bulk_add_table(self.count_table(data, site_ids), check=False)
        self.events_seen += data.shape[0]

    def count_table(self, data: np.ndarray, site_ids: np.ndarray) -> np.ndarray:
        """Count a batch into a reused ``(n_sites, n_counters)`` table.

        Row ``s`` holds site ``s``'s increment total of every counter.
        ``data`` and ``site_ids`` must already be valid (any integer
        dtype; :meth:`update_batch` checks them), and ``site_ids`` index
        the bank's sites.  Each family's walk row is keyed
        ``ids + site * J * K`` in the compact dtype and binned by one
        ``np.bincount`` straight into the family's ``(k, J * K)`` joint
        block; each site's parent half is then derived from its joint
        half.  Every column is written on every call, so the table needs
        no zeroing, and no ``(n, m)`` id array is built.  Keys stay below
        ``k * J * K``: int32 holds them unless the table has 2**31
        entries (16 GiB).

        The table is estimator workspace: the next call overwrites it.
        """
        k, m = self.n_sites, data.shape[0]
        table = self._buffer("dense.table", (k, self.n_counters), np.int64)
        sites = self._buffer("dense.sites", (m,), self._sparse_dtype)
        np.copyto(sites, site_ids, casting="unsafe")
        key = self._buffer("dense.key", (m,), self._sparse_dtype)
        for _, block, ids in self._joint_id_rows(data, "sparse"):
            size = block.stop - block.start
            np.multiply(sites, size, out=key)
            key += ids
            table[:, block] = np.bincount(key, minlength=k * size).reshape(
                k, size
            )
        for site in range(k):
            self._derive_parent_counts(table[site])
        return table

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

    def _event_ids(
        self, event: Mapping[str, int]
    ) -> list[tuple[str, int, int]]:
        """Validate a partial event and resolve its counter ids.

        One ``(name, joint id, parent id)`` per assigned variable, in the
        event's order.  Raises :class:`QueryError` for an unknown
        variable, an event that is not ancestrally closed, or a state
        its variable does not have — before any counter is read.
        """
        plans = self._event_plans
        for name in event:
            if name not in plans:
                raise QueryError(f"unknown variable {name!r} in event")
        variable = self.network.variable
        ids = []
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
            ids.append((
                name,
                layout.joint_offset
                + var.state_index(state) * layout.k_configs + pstate,
                layout.parent_offset + pstate,
            ))
        return ids

    def log_query_event(self, event: Mapping[str, int]) -> float:
        """Estimated log-probability of an ancestrally closed partial event."""
        ids = self._event_ids(event)
        estimates = self.bank.estimates()
        total = 0.0
        for name, joint, parent in ids:
            num = estimates[joint]
            den = estimates[parent]
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
        would on that row.  Like the scalar path, a row holding a state
        outside its variable's domain raises :class:`QueryError` before
        any counter is read.

        Consumes the ``_joint_id_rows`` walk in the ``"query"``
        workspace: ``num`` is gathered at each row's joint ids and
        ``den`` through the joint -> parent map, both within the family's
        block.
        """
        data = self.network._as_index_rows(data)
        estimates = self.bank.estimates()
        parents = estimates[self.n_joint_counters:]
        parent_of_joint = self._parent_of_joint_rel
        m = data.shape[0]
        total = np.zeros(m, dtype=np.float64)
        scan = _StrictScan(m, len(self._layouts)) if strict else None
        with np.errstate(divide="ignore", invalid="ignore"):
            for index, block, ids in self._joint_id_rows(data, "query"):
                num = estimates[block].take(ids)
                den = parents.take(parent_of_joint[block].take(ids))
                total += np.where(
                    (num > 0) & (den > 0), np.log(num) - np.log(den), -np.inf
                )
                if scan is not None:
                    neg = num <= 0
                    scan.see(index, neg, ~neg & (den <= 0))
        if scan is not None:
            scan.check()
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

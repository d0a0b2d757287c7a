"""Common interface and bookkeeping for banks of distributed counters."""

from __future__ import annotations

import abc

import numpy as np

from repro.errors import CounterError
from repro.monitoring.channel import MessageLog
from repro.utils.validation import check_positive_int, integer_array


class CounterBank(abc.ABC):
    """A bank of ``N`` distributed counters over ``k`` sites.

    A *bank* rather than individual counter objects: the paper's estimators
    need one counter per CPD table entry (hundreds of thousands for MUNIN),
    so state lives in dense arrays indexed by counter id.

    Parameters
    ----------
    n_counters:
        Number of counters ``N``.
    n_sites:
        Number of sites ``k``.
    message_log:
        Where to tally communication; a fresh log is created if omitted.
    """

    def __init__(
        self,
        n_counters: int,
        n_sites: int,
        *,
        message_log: MessageLog | None = None,
    ) -> None:
        self.n_counters = check_positive_int(n_counters, "n_counters")
        self.n_sites = check_positive_int(n_sites, "n_sites")
        self.message_log = message_log or MessageLog(n_sites)
        if self.message_log.n_sites != self.n_sites:
            raise CounterError(
                f"message log has {self.message_log.n_sites} sites, "
                f"bank has {self.n_sites}"
            )
        # Ground-truth per-site counts; the coordinator never reads these
        # directly (only through the protocol), but tests and exact banks do.
        self._local = np.zeros((self.n_counters, self.n_sites), dtype=np.int64)
        # bulk_add_sites' scatter target, allocated on first use and
        # all-zero between calls.
        self._round_table: np.ndarray | None = None

    @abc.abstractmethod
    def _apply_site(self, site: int, counter_ids: np.ndarray,
                    counts: np.ndarray) -> None:
        """Apply aggregated increments at one site.

        ``counter_ids`` are unique, sorted, in-range; ``counts`` are the
        positive increment totals.  The simulated protocol decides which
        messages this traffic triggers.

        This is the whole-slice hook: :meth:`bulk_add_site` hands a bank
        one complete site slice, and the default :meth:`_apply_table`
        hands it every non-silent row of a table, in ascending site
        order, so implementations may batch work across all counters
        touched at the site —
        :class:`~repro.counters.hyz.HYZCounterBank` vectorizes its whole
        span replay here, and its :meth:`_apply_table` walks the rows it
        cannot finish in one array pass through this hook too.
        """

    @abc.abstractmethod
    def estimates(self) -> np.ndarray:
        """The coordinator's current estimate of every counter (float64)."""

    # ------------------------------------------------------------------
    # State externalization (the snapshot/resume protocol)
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """All mutable protocol state as a flat dict.

        Values are either numpy arrays (copied) or JSON-serializable
        objects (ints, floats, nested plain dicts — e.g. a Generator's
        bit-generator state).  Configuration (``eps``, bank
        dimensions) is *not* included: it is reconstructed from the
        :class:`~repro.api.spec.EstimatorSpec` that built the bank, and
        :meth:`load_state_dict` validates shapes against it.  Subclasses
        extend the dict via ``super().state_dict()``.
        """
        return {"local": self._local.copy()}

    def load_state_dict(self, state: dict) -> None:
        """Restore state captured by :meth:`state_dict` (in place)."""
        self._load_array(state, "local", self._local)

    def _load_array(self, state: dict, key: str, target: np.ndarray) -> None:
        """Copy ``state[key]`` into ``target`` after shape/dtype checks."""
        if key not in state:
            raise CounterError(f"state dict is missing {key!r}")
        value = np.asarray(state[key])
        if value.shape != target.shape:
            raise CounterError(
                f"state {key!r} has shape {value.shape}, bank expects "
                f"{target.shape}"
            )
        target[...] = value.astype(target.dtype, copy=False)

    # ------------------------------------------------------------------
    def bulk_add_table(self, table: np.ndarray, *, check: bool = True) -> None:
        """Apply a dense ``(n_sites, n_counters)`` increment table.

        Row ``s`` holds site ``s``'s aggregated increments (zeros
        allowed): the table
        :meth:`~repro.core.estimator.StreamingMLEEstimator.count_table`
        fills, which every in-process ingest hands over whole.  Sites are
        processed in ascending order and silent sites are skipped, so
        every bank ends in the state, RNG position and message tallies
        one :meth:`bulk_add_site` call per non-silent row produces —
        byte-identical.  Banks may get there without the per-site calls:
        the exact and deterministic banks add the table whole, and the
        HYZ bank finishes counters whose outcome draws no randomness in
        one pass before walking the rest per site.

        A table that does not hold integers is refused whatever
        ``check`` says (the test reads the dtype only).  ``check=False``
        skips the O(size) sign scan for callers whose table is
        non-negative by construction (a ``bincount`` output).
        """
        table = integer_array(table, "table", CounterError)
        if table.shape != (self.n_sites, self.n_counters):
            raise CounterError(
                f"table must have shape ({self.n_sites}, "
                f"{self.n_counters}), got {table.shape}"
            )
        if check and table.size and table.min() < 0:
            raise CounterError("bulk_add_table counts must be >= 0")
        self._apply_table(table)

    def _apply_table(self, table: np.ndarray) -> None:
        """Dispatch a validated dense table; sites ascending, silent sites
        skipped.  Banks whose protocol is (partly) expressible as
        whole-table array operations override this (see
        :class:`ExactCounterBank`,
        :class:`~repro.counters.deterministic.DeterministicCounterBank` and
        :class:`~repro.counters.hyz.HYZCounterBank`)."""
        for site in range(self.n_sites):
            row = table[site]
            touched = np.flatnonzero(row)
            if touched.size:
                self._apply_site(site, touched, row[touched])

    def bulk_add_site(self, site: int, counter_ids, counts) -> None:
        """Apply pre-aggregated increments observed at one site.

        ``counter_ids`` must be unique.  All checks run before the bank
        is touched.  This per-site walk is the reference the table entry
        points reproduce exactly; a whole distributed round goes through
        :meth:`bulk_add_sites` instead.
        """
        counter_ids, counts = self._check_site_slice(site, counter_ids, counts)
        if counter_ids.size:
            self._apply_site(int(site), counter_ids, counts)

    def bulk_add_sites(self, slices) -> None:
        """Apply one round's ``(site, counter_ids, counts)`` slices at once.

        Sites must be strictly ascending, and each slice obeys the
        :meth:`bulk_add_site` rules; a bad slice raises before the bank
        is touched.  Each checked slice is scattered into a reused
        ``(n_sites, n_counters)`` table, which is applied through
        :meth:`_apply_table`, so the bank and its message log (epoch
        included) end exactly where one :meth:`bulk_add_site` call per
        slice would leave them.  This is the entry point of every
        distributed round, live apply and WAL replay alike.
        """
        if self._round_table is None:
            self._round_table = np.zeros(
                (self.n_sites, self.n_counters), dtype=np.int64
            )
        table = self._round_table
        sites: list[int] = []
        try:
            for site, counter_ids, counts in slices:
                counter_ids, counts = self._check_site_slice(
                    site, counter_ids, counts
                )
                site = int(site)
                if sites and site <= sites[-1]:
                    raise CounterError(
                        f"bulk_add_sites sites must be strictly ascending, "
                        f"got site {site} after site {sites[-1]}"
                    )
                sites.append(site)
                table[site, counter_ids] = counts
            if sites:
                self._apply_table(table)
        finally:
            table[sites] = 0

    def bulk_add_grouped(self, site_ids, counter_ids, counts) -> None:
        """Apply ``(site, counter, count)`` triples sorted by site.

        A thin adapter: the triples are split into one slice per site run
        and applied by :meth:`bulk_add_sites`, whose rules they obey
        (sites strictly ascending from run to run, ids unique within a
        site, counts positive).  Nothing under ``src/`` calls it; it goes
        away together with :meth:`bulk_add_site` once the benchmark's
        tracer, which wraps both by name, is re-pointed at
        :meth:`bulk_add_table` and :meth:`bulk_add_sites`.
        """
        site_ids = integer_array(site_ids, "site_ids", CounterError)
        counter_ids = integer_array(counter_ids, "counter_ids", CounterError)
        counts = integer_array(counts, "counts", CounterError)
        if not (site_ids.shape == counter_ids.shape == counts.shape) \
                or site_ids.ndim != 1:
            raise CounterError(
                "site_ids, counter_ids and counts must be aligned 1-D"
            )
        bounds = np.flatnonzero(np.diff(site_ids)) + 1
        self.bulk_add_sites(
            (site[0], ids, values) for site, ids, values in zip(
                np.split(site_ids, bounds), np.split(counter_ids, bounds),
                np.split(counts, bounds),
            ) if site.size
        )

    def _check_site_slice(self, site, counter_ids, counts):
        """``bulk_add_site``'s checks; returns the slice as int64 arrays.

        Only an ``int`` or a numpy integer names a site (a float would
        truncate and ``True`` is not a site), and only integer arrays
        hold ids and counts: the type tests are O(1).  Strictly
        ascending ids — what every in-repo producer ships — are proven
        unique by one O(n) comparison; only other orders pay for the
        ``np.unique`` sort.
        """
        if type(site) is not int and not isinstance(site, np.integer):
            raise CounterError(f"site must be an integer, got {site!r}")
        counter_ids = integer_array(counter_ids, "counter_ids", CounterError)
        counts = integer_array(counts, "counts", CounterError)
        if counter_ids.shape != counts.shape or counter_ids.ndim != 1:
            raise CounterError("counter_ids and counts must be aligned 1-D")
        if not 0 <= site < self.n_sites:
            raise CounterError(f"site {site} out of range")
        if counter_ids.size == 0:
            return counter_ids, counts
        if counter_ids.min() < 0 or counter_ids.max() >= self.n_counters:
            raise CounterError("counter id out of range")
        if counts.min() <= 0:
            raise CounterError("bulk_add_site counts must be > 0")
        if (
            not np.all(counter_ids[1:] > counter_ids[:-1])
            and np.unique(counter_ids).size != counter_ids.size
        ):
            raise CounterError("bulk_add_site counter_ids must be unique")
        return counter_ids, counts

    def true_totals(self) -> np.ndarray:
        """Ground-truth counter values (test/diagnostic use only)."""
        return self._local.sum(axis=1)

    @property
    def total_messages(self) -> int:
        return self.message_log.total

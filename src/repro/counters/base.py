"""Common interface and bookkeeping for banks of distributed counters."""

from __future__ import annotations

import abc

import numpy as np

from repro.errors import CounterError
from repro.monitoring.channel import MessageLog
from repro.utils.validation import check_positive_int


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

    # ------------------------------------------------------------------
    def _validate_bulk(self, counter_ids, site_ids, counts):
        counter_ids = np.asarray(counter_ids, dtype=np.int64)
        site_ids = np.asarray(site_ids, dtype=np.int64)
        counts = np.asarray(counts, dtype=np.int64)
        if not (counter_ids.shape == site_ids.shape == counts.shape):
            raise CounterError("counter_ids, site_ids, counts must align")
        if counter_ids.ndim != 1:
            raise CounterError("bulk_add expects 1-D arrays")
        if counter_ids.size == 0:
            return counter_ids, site_ids, counts
        if counter_ids.min() < 0 or counter_ids.max() >= self.n_counters:
            raise CounterError("counter id out of range")
        if site_ids.min() < 0 or site_ids.max() >= self.n_sites:
            raise CounterError("site id out of range")
        if counts.min() < 0:
            raise CounterError("counts must be >= 0")
        return counter_ids, site_ids, counts

    @abc.abstractmethod
    def _apply_site(self, site: int, counter_ids: np.ndarray,
                    counts: np.ndarray) -> None:
        """Apply aggregated increments at one site.

        ``counter_ids`` are unique, sorted, in-range; ``counts`` are the
        positive increment totals.  The simulated protocol decides which
        messages this traffic triggers.

        This is the whole-slice hook of the grouped fast path: every entry
        point (``bulk_add``, ``bulk_add_site``, ``bulk_add_grouped``) hands
        a bank one complete site slice at a time, in ascending site order,
        so implementations may batch work across all counters touched at
        the site — :class:`~repro.counters.hyz.HYZCounterBank` vectorizes
        its whole span replay here.  Banks whose state is site-independent
        can go further and override :meth:`_apply_grouped` to consume the
        entire multi-site batch at once (see
        :class:`~repro.counters.exact.ExactCounterBank`).
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
    def bulk_add(self, counter_ids, site_ids, counts) -> None:
        """Apply ``counts[j]`` increments of counter ``counter_ids[j]``
        observed at site ``site_ids[j]``.  Pairs may repeat."""
        counter_ids, site_ids, counts = self._validate_bulk(
            counter_ids, site_ids, counts
        )
        if counter_ids.size == 0:
            return
        for site in range(self.n_sites):
            mask = site_ids == site
            if not mask.any():
                continue
            dense = np.bincount(
                counter_ids[mask],
                weights=counts[mask].astype(np.float64),
                minlength=self.n_counters,
            ).astype(np.int64)
            touched = np.nonzero(dense)[0]
            if touched.size:
                self._apply_site(site, touched, dense[touched])

    def bulk_add_grouped(self, site_ids, counter_ids, counts, *,
                         check: bool = True) -> None:
        """Apply pre-grouped ``(site, counter, count)`` increment triples.

        The fast path used by the streaming estimator's argsort sharding:
        the triples must already be aggregated so that ``(site, counter)``
        pairs are unique, sorted site-major then counter-minor, with strictly
        positive counts.  Each site's slice is handed to :meth:`_apply_site`
        directly — no per-site masking or dense ``bincount`` scan — and sites
        are visited in ascending order, so randomized banks consume their RNG
        streams exactly as the per-site path would.

        ``check=False`` skips the O(size) ordering/range validation; it is
        reserved for callers that produce the triples by construction (the
        streaming estimator's grouping pass emits ``flatnonzero`` output of
        a dense per-site histogram, which is sorted and unique by design).
        External callers should leave it on.
        """
        site_ids = np.asarray(site_ids, dtype=np.int64)
        counter_ids = np.asarray(counter_ids, dtype=np.int64)
        counts = np.asarray(counts, dtype=np.int64)
        if not (site_ids.shape == counter_ids.shape == counts.shape):
            raise CounterError("site_ids, counter_ids, counts must align")
        if site_ids.ndim != 1:
            raise CounterError("bulk_add_grouped expects 1-D arrays")
        if site_ids.size == 0:
            return
        if check:
            if site_ids[0] < 0 or site_ids[-1] >= self.n_sites:
                raise CounterError("site id out of range")
            if counter_ids.min() < 0 or counter_ids.max() >= self.n_counters:
                raise CounterError("counter id out of range")
            if counts.min() <= 0:
                raise CounterError("bulk_add_grouped counts must be > 0")
            site_steps = np.diff(site_ids)
            if np.any(site_steps < 0):
                raise CounterError("bulk_add_grouped site_ids must be sorted")
            if np.any((site_steps == 0) & (np.diff(counter_ids) <= 0)):
                raise CounterError(
                    "bulk_add_grouped (site, counter) pairs must be unique "
                    "and sorted counter-minor within each site"
                )
        self._apply_grouped(site_ids, counter_ids, counts)

    def _apply_grouped(self, site_ids: np.ndarray, counter_ids: np.ndarray,
                       counts: np.ndarray) -> None:
        """Dispatch validated grouped triples; sites arrive in ascending
        order.  Banks with site-independent state may override this with a
        fully vectorized version (see :class:`ExactCounterBank`)."""
        starts = np.flatnonzero(np.r_[True, site_ids[1:] != site_ids[:-1]])
        bounds = np.append(starts, site_ids.size)
        for i in range(starts.size):
            lo, hi = bounds[i], bounds[i + 1]
            self._apply_site(int(site_ids[lo]), counter_ids[lo:hi], counts[lo:hi])

    def bulk_add_table(self, table: np.ndarray, *, check: bool = True) -> None:
        """Apply a dense ``(n_sites, n_counters)`` increment table.

        The dense-histogram sibling of :meth:`bulk_add_grouped`: row
        ``s`` holds site ``s``'s aggregated increments (zeros allowed).
        The streaming estimator's dense grouping strategy already owns
        exactly this table, so handing it over whole skips the
        flatnonzero/divmod round-trip through sparse triples.  Sites are
        processed in ascending order and silent sites are skipped, so
        every bank ends in the state, RNG position and message tallies
        the triple form produces — byte-identical.  Banks may get there
        without the per-site calls: the exact and deterministic banks
        add the table whole, and the HYZ bank finishes counters whose
        outcome draws no randomness in one pass before walking the rest
        per site.

        ``check=False`` skips validation for callers whose table is
        non-negative by construction (a ``bincount`` output).
        """
        table = np.asarray(table, dtype=np.int64)
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

        ``counter_ids`` must be unique; this is the fast path used by the
        streaming estimator, which already aggregates each batch per site,
        and the entry point every distributed round (live apply and WAL
        replay) goes through.  All checks run before the bank is touched.
        Strictly ascending ids — what every in-repo producer ships — are
        proven unique by one O(n) comparison; only other orders pay for
        the ``np.unique`` sort.
        """
        counter_ids = np.asarray(counter_ids, dtype=np.int64)
        counts = np.asarray(counts, dtype=np.int64)
        if counter_ids.shape != counts.shape or counter_ids.ndim != 1:
            raise CounterError("counter_ids and counts must be aligned 1-D")
        if not 0 <= site < self.n_sites:
            raise CounterError(f"site {site} out of range")
        if counter_ids.size == 0:
            return
        if counter_ids.min() < 0 or counter_ids.max() >= self.n_counters:
            raise CounterError("counter id out of range")
        if counts.min() <= 0:
            raise CounterError("bulk_add_site counts must be > 0")
        if (
            not np.all(counter_ids[1:] > counter_ids[:-1])
            and np.unique(counter_ids).size != counter_ids.size
        ):
            raise CounterError("bulk_add_site counter_ids must be unique")
        self._apply_site(int(site), counter_ids, counts)

    def add(self, counter_id: int, site_id: int, count: int = 1) -> None:
        """Convenience scalar form of :meth:`bulk_add`."""
        self.bulk_add(
            np.array([counter_id]), np.array([site_id]), np.array([count])
        )

    def true_totals(self) -> np.ndarray:
        """Ground-truth counter values (test/diagnostic use only)."""
        return self._local.sum(axis=1)

    @property
    def total_messages(self) -> int:
        return self.message_log.total

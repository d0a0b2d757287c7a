"""Message accounting for the distributed monitoring model.

Communication cost is the headline metric of the paper: every algorithm is
compared by the number of messages exchanged between sites and the
coordinator.  :class:`MessageLog` tallies messages by kind and by site so
experiments can report totals, per-site loads, and broadcast overheads.

Message-size convention (matches the paper's experiments): one counter
update = one message, so EXACTMLE on an ``n``-variable network costs
``2n`` messages per observation (Table III divides out to exactly ``2n``).
"""

from __future__ import annotations

import enum

import numpy as np

from repro.utils.validation import check_positive_int


class MessageKind(enum.Enum):
    """Categories of messages exchanged with the coordinator."""

    #: A site reporting a counter value (site -> coordinator).
    REPORT = "report"
    #: The coordinator starting a new round (coordinator -> one site).
    BROADCAST = "broadcast"
    #: A site answering a round-start sync (site -> coordinator).
    SYNC = "sync"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


class MessageLog:
    """Tallies messages by :class:`MessageKind` and by site.

    Parameters
    ----------
    n_sites:
        Number of sites ``k`` (excluding the coordinator).
    """

    def __init__(self, n_sites: int) -> None:
        self.n_sites = check_positive_int(n_sites, "n_sites")
        self._per_kind = {kind: 0 for kind in MessageKind}
        self._per_site = np.zeros(self.n_sites, dtype=np.int64)
        self._coordinator_sent = 0
        self._epoch = 0

    @property
    def epoch(self) -> int:
        """Sync-epoch counter for the read-serving layer.

        Advances by exactly one per record call that carries at least one
        message (:meth:`record_reports_bulk` counts as one call per
        non-zero entry); zero-count and empty calls leave it unchanged.
        The coordinator's estimates can only change when a message is
        recorded (every counter-bank apply path records its reports in
        the same call), so a :class:`~repro.serve.ModelSnapshot` built at
        epoch ``e`` stays exact for as long as ``epoch == e`` — the
        serving layer rebuilds snapshots only on epoch advances, never
        per query (``docs/serving.md``).
        """
        return self._epoch

    # ------------------------------------------------------------------
    def record(self, kind: MessageKind, site: int, count: int = 1) -> None:
        """Record ``count`` messages of ``kind`` touching ``site``.

        For :attr:`MessageKind.BROADCAST` the sender is the coordinator and
        ``site`` is the recipient; otherwise ``site`` is the sender.
        """
        if count < 0:
            raise ValueError(f"count must be >= 0, got {count}")
        if not 0 <= site < self.n_sites:
            raise ValueError(f"site {site} out of range [0, {self.n_sites})")
        self._per_kind[kind] += count
        if count > 0:
            self._epoch += 1
        if kind is MessageKind.BROADCAST:
            self._coordinator_sent += count
        else:
            self._per_site[site] += count

    def record_broadcast_all(self, count: int = 1) -> None:
        """Record a coordinator broadcast to every site (``k`` messages)."""
        if count < 0:
            raise ValueError(f"count must be >= 0, got {count}")
        self._per_kind[MessageKind.BROADCAST] += count * self.n_sites
        self._coordinator_sent += count * self.n_sites
        if count > 0:
            self._epoch += 1

    def record_syncs_all(self, count: int = 1) -> None:
        """Record ``count`` round-sync answers from every site.

        Equivalent to ``count`` :meth:`record` calls of
        :attr:`MessageKind.SYNC` per site (``count * k`` messages total);
        used by the counter banks' bulk round advances.
        """
        if count < 0:
            raise ValueError(f"count must be >= 0, got {count}")
        self._per_kind[MessageKind.SYNC] += count * self.n_sites
        self._per_site += count
        if count > 0:
            self._epoch += 1

    def record_reports_bulk(self, sites: np.ndarray, counts: np.ndarray) -> None:
        """Vectorized :meth:`record` for REPORT messages.

        Equivalent to one ``record(REPORT, sites[i], counts[i])`` call per
        entry, epoch included: the epoch advances once per non-zero count.
        """
        sites = np.asarray(sites, dtype=np.int64)
        counts = np.asarray(counts, dtype=np.int64)
        if sites.shape != counts.shape:
            raise ValueError("sites and counts must have the same shape")
        if counts.size == 0:
            return
        if np.any(counts < 0):
            raise ValueError("counts must be >= 0")
        if np.any(sites < 0) or np.any(sites >= self.n_sites):
            raise ValueError("site index out of range")
        self._per_kind[MessageKind.REPORT] += int(counts.sum())
        np.add.at(self._per_site, sites, counts)
        self._epoch += int(np.count_nonzero(counts))

    # ------------------------------------------------------------------
    @property
    def total(self) -> int:
        """Total messages in either direction."""
        return sum(self._per_kind.values())

    def count(self, kind: MessageKind) -> int:
        return self._per_kind[kind]

    @property
    def site_messages(self) -> np.ndarray:
        """Messages sent by each site (copy)."""
        return self._per_site.copy()

    @property
    def coordinator_messages_sent(self) -> int:
        """Messages sent by the coordinator (broadcasts)."""
        return self._coordinator_sent

    @property
    def coordinator_messages_received(self) -> int:
        """Messages arriving at the coordinator (reports + syncs)."""
        return (
            self._per_kind[MessageKind.REPORT] + self._per_kind[MessageKind.SYNC]
        )

    def snapshot(self) -> dict[str, int]:
        """A plain-dict view of all tallies."""
        result = {str(kind): count for kind, count in self._per_kind.items()}
        result["total"] = self.total
        return result

    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """All tallies, for the session snapshot protocol.

        ``per_site`` is a numpy array; everything else is JSON-ready.
        """
        return {
            "per_kind": {
                kind.value: int(count)
                for kind, count in self._per_kind.items()
            },
            "per_site": self._per_site.copy(),
            "coordinator_sent": int(self._coordinator_sent),
            "epoch": int(self._epoch),
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore tallies captured by :meth:`state_dict` (in place).

        Raises ``ValueError`` — before touching the log — when a key is
        missing, a tally is not a count, or any count is negative.
        """
        missing = {"per_kind", "per_site", "coordinator_sent"} - set(state)
        if missing:
            raise ValueError(f"message log state lacks {sorted(missing)}")
        per_site = np.asarray(state["per_site"])
        if not np.issubdtype(per_site.dtype, np.integer):
            raise ValueError(f"per_site must hold counts, got {per_site.dtype}")
        if per_site.shape != self._per_site.shape:
            raise ValueError(
                f"per_site has shape {per_site.shape}, log expects "
                f"{self._per_site.shape}"
            )
        if np.any(per_site < 0):
            raise ValueError("per_site counts must be >= 0")
        per_kind = state["per_kind"]
        if not isinstance(per_kind, dict):
            raise ValueError(f"per_kind must be a mapping, got {per_kind!r}")
        unknown = set(per_kind) - {kind.value for kind in MessageKind}
        if unknown:
            raise ValueError(f"unknown message kinds in state: {sorted(unknown)}")
        per_kind = {
            kind: _count(per_kind.get(kind.value, 0), kind.value)
            for kind in MessageKind
        }
        coordinator_sent = _count(state["coordinator_sent"], "coordinator_sent")
        # Bundles written before the serving layer carry no epoch; any
        # non-negative restart value is fine — snapshot staleness checks
        # only ever compare epochs taken from the same live log.
        epoch = _count(state.get("epoch", 0), "epoch")
        self._per_kind = per_kind
        self._per_site[...] = per_site
        self._coordinator_sent = coordinator_sent
        self._epoch = epoch

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"MessageLog(total={self.total}, kinds={self.snapshot()})"


def _count(value, name: str) -> int:
    """``value`` as a tally: an integer >= 0, else ``ValueError``.

    Only integers are counts; a float, string or bool is refused rather
    than truncated or parsed.
    """
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be a count, got {value!r}")
    if value < 0:
        raise ValueError(f"{name} must be >= 0, got {value}")
    return int(value)

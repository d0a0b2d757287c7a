"""Per-increment reference implementation of the HYZ counter.

This mirrors :class:`~repro.counters.hyz.HYZCounterBank`'s protocol exactly
but processes one increment at a time with an explicit Bernoulli coin per
increment — no skip-ahead, no vectorization.  It is the *statistical
oracle* for the bank's vectorized span replay: the two consume
randomness in different orders, so correctness is defined as agreement
with this class's per-increment behaviour in distribution (unbiased
estimates with the same variance, message counts with the same
expectation), never as byte equality.  See ``docs/hyz-protocol.md`` for
the agreement argument and ``tests/test_hyz_engine.py`` for the checks.
"""

from __future__ import annotations

import math

from repro.errors import CounterError
from repro.monitoring.channel import MessageKind, MessageLog
from repro.utils.rng import as_generator
from repro.utils.validation import check_fraction, check_positive_int


class ReferenceHYZCounter:
    """One randomized distributed counter, simulated increment by increment.

    Parameters
    ----------
    n_sites:
        Number of sites ``k``.
    eps:
        Error parameter in (0, 1).
    seed:
        Seed or generator for the coin flips.
    """

    def __init__(self, n_sites: int, eps: float, *, seed=None,
                 message_log: MessageLog | None = None) -> None:
        self.n_sites = check_positive_int(n_sites, "n_sites")
        self.eps = check_fraction(eps, "eps")
        self._rng = as_generator(seed)
        self.message_log = message_log or MessageLog(self.n_sites)
        self._sqrt_k = math.sqrt(self.n_sites)
        self._local = [0] * self.n_sites
        self._reported = [0] * self.n_sites
        self._round_reported = [False] * self.n_sites
        self._round_base = 1.0
        self._p = min(1.0, self._sqrt_k / (self.eps * self._round_base))
        self.rounds_started = 0

    # ------------------------------------------------------------------
    @property
    def p(self) -> float:
        """Current report probability."""
        return self._p

    def true_total(self) -> int:
        return sum(self._local)

    def estimate(self) -> float:
        reported_sum = sum(self._reported)
        if self._p >= 1.0:
            return float(reported_sum)
        active = sum(self._round_reported)
        return reported_sum + active * (1.0 - self._p) / self._p

    # ------------------------------------------------------------------
    def _advance_round(self) -> None:
        old_p = self._p
        for site in range(self.n_sites):
            self._reported[site] = self._local[site]
            self._round_reported[site] = False
        self._round_base = max(float(sum(self._reported)), 1.0)
        self._p = min(1.0, self._sqrt_k / (self.eps * self._round_base))
        self.rounds_started += 1
        self.message_log.record_broadcast_all()
        if old_p < 1.0:
            for site in range(self.n_sites):
                self.message_log.record(MessageKind.SYNC, site)

    def _deliver_report(self, site: int) -> None:
        self._reported[site] = self._local[site]
        self._round_reported[site] = True
        self.message_log.record(MessageKind.REPORT, site)
        if self.estimate() >= 2.0 * self._round_base:
            self._advance_round()

    def add(self, site: int, count: int = 1) -> None:
        """Apply ``count`` increments at ``site``, one coin per increment."""
        if not 0 <= site < self.n_sites:
            raise CounterError(f"site {site} out of range")
        if count < 0:
            raise CounterError("count must be >= 0")
        for _ in range(count):
            self._local[site] += 1
            if self._p >= 1.0:
                # Exact mode: every increment reports.
                self._deliver_report(site)
            elif self._rng.random() < self._p:
                self._deliver_report(site)

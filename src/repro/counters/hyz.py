"""Randomized distributed counters (Huang, Yi & Zhang, PODS 2012).

This is the DISTCOUNTER of Lemma 4: for error parameter ``eps`` it keeps an
unbiased estimate ``A`` of the true count ``C`` with ``Var[A] <= (eps*C)^2``
using ``O(sqrt(k)/eps * log T)`` messages.  A round starts with a sync that
makes ``base`` the exact total and sets the per-increment report probability
``p = min(1, sqrt(k)/(eps*base))``; within a round a site reports its local
count with probability ``p`` per increment, and the coordinator starts a
new round when its unbiased estimate reaches ``2 * base``.

``bulk_add`` never feeds increments one at a time: a span of ``b``
increments at one site is replayed by sampling the geometric inter-report
gaps directly, and the replay is *vectorized across counters* — one
inverse-CDF batch draws every touched counter's first-report gap, spans
that contain no mid-span round change are finished with pure array updates
(the doubling condition is checked vectorized via the span's last report),
and spans that cross the doubling threshold advance their rounds in bulk
and re-enter the loop at the new report probability.  A dense
``(k, n_counters)`` table first finishes, in one array pass, every
exact-mode counter the whole table leaves inside its round.

The protocol derivation (unbiasedness, variance bound) and the replay's
distribution-preservation argument live in ``docs/hyz-protocol.md``.
:class:`~repro.counters.reference.ReferenceHYZCounter` replays the protocol
one increment at a time and serves as the statistical oracle the bank is
tested against.
"""

from __future__ import annotations

import math

import numpy as np

from repro.counters.base import CounterBank
from repro.errors import CounterError
from repro.monitoring.channel import MessageKind
from repro.utils.rng import as_generator, restore_generator_state


class HYZCounterBank(CounterBank):
    """A bank of independent randomized distributed counters.

    Parameters
    ----------
    n_counters, n_sites:
        Bank dimensions.
    eps:
        Per-counter error parameter: scalar or array of shape
        ``(n_counters,)`` with entries in (0, 1).
    seed:
        Seed or generator for the protocol's coin flips.
    message_log:
        Shared message tally.
    charge_sync:
        If False, round syncs are not charged to the message log (used in
        ablations isolating report traffic).  Default True.
    """

    def __init__(
        self,
        n_counters: int,
        n_sites: int,
        eps,
        *,
        seed=None,
        message_log=None,
        charge_sync: bool = True,
    ) -> None:
        super().__init__(n_counters, n_sites, message_log=message_log)
        eps_arr = np.broadcast_to(
            np.asarray(eps, dtype=np.float64), (self.n_counters,)
        ).copy()
        if np.any(eps_arr <= 0) or np.any(eps_arr >= 1):
            raise CounterError("eps must lie in (0, 1) for every counter")
        self.eps = eps_arr
        self._rng = as_generator(seed)
        self.charge_sync = bool(charge_sync)
        k = self.n_sites
        self._sqrt_k = math.sqrt(k)

        # Coordinator-side state.  `_round_reported` marks sites that have
        # reported since the current round's sync: only those sites' counts
        # carry the (1-p)/p geometric-gap correction (silent sites stand at
        # their exact sync value), which makes the estimator exactly
        # unbiased — see docs/hyz-protocol.md for the derivation.
        self._reported = np.zeros((self.n_counters, k), dtype=np.int64)
        self._reported_sum = np.zeros(self.n_counters, dtype=np.int64)
        self._round_reported = np.zeros((self.n_counters, k), dtype=bool)
        self._round_reported_count = np.zeros(self.n_counters, dtype=np.int64)
        self._round_base = np.ones(self.n_counters, dtype=np.float64)
        self._p = np.minimum(1.0, self._sqrt_k / (self.eps * self._round_base))
        self._rounds_started = np.zeros(self.n_counters, dtype=np.int64)

    # ------------------------------------------------------------------
    # State externalization
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """Protocol state plus the coin-flip Generator's bit-generator state."""
        state = super().state_dict()
        state["reported"] = self._reported.copy()
        state["reported_sum"] = self._reported_sum.copy()
        state["round_reported"] = self._round_reported.copy()
        state["round_reported_count"] = self._round_reported_count.copy()
        state["round_base"] = self._round_base.copy()
        state["p"] = self._p.copy()
        state["rounds_started"] = self._rounds_started.copy()
        state["rng_state"] = self._rng.bit_generator.state
        return state

    def load_state_dict(self, state: dict) -> None:
        super().load_state_dict(state)
        self._load_array(state, "reported", self._reported)
        self._load_array(state, "reported_sum", self._reported_sum)
        self._load_array(state, "round_reported", self._round_reported)
        self._load_array(state, "round_reported_count",
                         self._round_reported_count)
        self._load_array(state, "round_base", self._round_base)
        self._load_array(state, "p", self._p)
        self._load_array(state, "rounds_started", self._rounds_started)
        rng_state = state.get("rng_state")
        if rng_state is None:
            raise CounterError("state dict is missing 'rng_state'")
        try:
            self._rng = restore_generator_state(self._rng, rng_state)
        except ValueError as exc:
            raise CounterError(str(exc)) from exc

    # ------------------------------------------------------------------
    # Coordinator-side helpers
    # ------------------------------------------------------------------
    def estimates(self) -> np.ndarray:
        correction = np.where(
            self._p >= 1.0,
            0.0,
            self._round_reported_count * (1.0 - self._p) / self._p,
        )
        return self._reported_sum.astype(np.float64) + correction

    # ------------------------------------------------------------------
    # Site-side simulation
    # ------------------------------------------------------------------
    # `bulk_add_grouped` and `bulk_add_site` are inherited from
    # CounterBank: they hand each site's whole (counter, count) slice to
    # `_apply_site` in ascending site order.  `_apply_table` below walks
    # the same slices minus counters whose outcome draws no randomness,
    # so every entry point consumes this bank's RNG stream identically —
    # the hot-path regression test pins that byte-for-byte.
    def _apply_table(self, table: np.ndarray) -> None:
        """Apply a dense ``(n_sites, n_counters)`` table.

        An exact-mode counter (``p >= 1``) whose whole-table total ``T``
        satisfies ``0 < T < ceil(2 * round_base - reported_sum)`` reports
        every increment and stays in its round at every site, so the
        per-site walk would step it by exactly its table entries and draw
        nothing.  Those counters are finished here in one array pass;
        every other touched counter goes through :meth:`_apply_site` in
        ascending site order, with the same ids in the same order as
        without the pass.  Each site's fast-set report tally rides on
        that site's first exact-phase ``record`` call, so the message
        log — epoch included — is the one the per-site walk writes
        (``docs/hyz-protocol.md`` §3).
        """
        totals = table.sum(axis=0)
        touched = np.flatnonzero(totals)
        fast = (self._p[touched] >= 1.0) & (
            totals[touched] < self._exact_room(touched)
        )
        cols, walk = touched[fast], touched[~fast]
        increments = table[:, cols]
        self._local[cols] += increments.T
        self._reported[cols] += increments.T
        self._reported_sum[cols] += totals[cols]
        fast_reports = increments.sum(axis=1)
        for site in range(self.n_sites):
            row = table[site, walk]
            hit = np.flatnonzero(row)
            if hit.size or fast_reports[site]:
                self._apply_site(
                    site, walk[hit], row[hit], int(fast_reports[site])
                )

    def _apply_site(self, site, counter_ids, counts, reports: int = 0) -> None:
        """Advance every counter touched at ``site`` with batched draws.

        Distribution-preservation argument (full version in
        ``docs/hyz-protocol.md``): within one span the report probability
        ``p`` and the doubling threshold are constant until a round change,
        and the coordinator estimate after a report is strictly increasing
        in the report's position.  Hence (i) a span triggers a round change
        iff a report lands at or beyond a fixed threshold position ``L*``,
        and (ii) for trigger-free spans the final bank state depends only on
        the span's *last* report position while the message tally depends
        only on the report *count* — both samplable directly.  Counters are
        independent, so every draw batches across the site's worklist:

        1. one inverse-CDF batch draws every counter's first-report gap
           (gap > span length  <=>  the span is silent);
        2. a trailing-gap batch yields each reporting span's last report
           position; spans whose last report stays below ``L*`` finish with
           pure array updates plus one binomial batch for the interior
           report count;
        3. spans that reach ``L*`` replay their pre-trigger traffic as a
           binomial batch (those reports are wiped by the sync, only their
           message count survives), place the triggering report with a
           truncated-geometric batch, advance all their rounds in bulk,
           and re-enter the loop with the span remainder at the new ``p``
           — one iteration per round generation, so a span crossing ``r``
           rounds costs ``O(r)`` vectorized passes, never a Python loop
           over reports.

        ``reports`` is a REPORT tally already applied at ``site`` by
        :meth:`_apply_table`; it is recorded with the exact phase's first
        message, or on its own if that phase records nothing.
        """
        p_touched = self._p[counter_ids]
        exact_mask = p_touched >= 1.0
        ids = counter_ids[~exact_mask]
        b = counts[~exact_mask].astype(np.int64)
        if reports or exact_mask.any():
            # Exact-mode counters are transient (a counter leaves exact
            # mode for good once its count reaches sqrt(k)/eps); their
            # prefix is deterministic — no randomness — so it advances in
            # bulk too, and any sampled leftover joins the worklist.
            leftover_ids, leftover_b = self._exact_prefix_bulk(
                site,
                counter_ids[exact_mask],
                counts[exact_mask].astype(np.int64),
                reports,
            )
            if leftover_ids.size:
                ids = np.concatenate([ids, leftover_ids])
                b = np.concatenate([b, leftover_b])
                order = np.argsort(ids, kind="stable")
                ids, b = ids[order], b[order]
        while ids.size:
            ids, b = self._vector_round(site, ids, b)

    def _exact_prefix_bulk(
        self, site: int, ids: np.ndarray, b: np.ndarray, reports: int = 0
    ) -> tuple[np.ndarray, np.ndarray]:
        """Consume the exact-mode (p == 1) prefix of a site's spans.

        The exact phase needs no randomness (every increment reports,
        rounds advance at fixed doubling thresholds), so each pass steps
        every active counter to its next threshold at once; a counter
        needs O(log span) passes.  Returns the (counter, remaining) pairs
        that fell out of exact mode mid-span.  ``reports`` (see
        :meth:`_apply_site`) joins the first pass's REPORT record.
        """
        ids = ids.astype(np.int64, copy=True)
        rem = b.copy()
        out_ids: list[np.ndarray] = []
        out_b: list[np.ndarray] = []
        while ids.size:
            room = self._exact_room(ids)
            stuck = room <= 0
            if stuck.any():
                # Doubling condition already met at pass entry (the
                # estimate equals the reported sum in exact mode): advance
                # before consuming increments instead of over-stepping.
                self._advance_rounds_bulk(ids[stuck])
                fell = self._p[ids] < 1.0
                if fell.any():
                    out_ids.append(ids[fell])
                    out_b.append(rem[fell])
                    ids, rem = ids[~fell], rem[~fell]
                continue
            step = np.minimum(rem, room)
            self._local[ids, site] += step
            self._reported[ids, site] += step
            self._reported_sum[ids] += step
            self.message_log.record(
                MessageKind.REPORT, site, int(step.sum()) + reports
            )
            reports = 0
            rem -= step
            crossed = (
                self._reported_sum[ids].astype(np.float64)
                >= 2.0 * self._round_base[ids]
            )
            if crossed.any():
                self._advance_rounds_bulk(ids[crossed])
            fell = (self._p[ids] < 1.0) & (rem > 0)
            if fell.any():
                out_ids.append(ids[fell])
                out_b.append(rem[fell])
            cont = ~fell & (rem > 0)
            ids, rem = ids[cont], rem[cont]
        if reports:
            self.message_log.record(MessageKind.REPORT, site, reports)
        empty = np.empty(0, dtype=np.int64)
        return (
            np.concatenate(out_ids) if out_ids else empty,
            np.concatenate(out_b) if out_b else empty,
        )

    def _exact_room(self, ids: np.ndarray) -> np.ndarray:
        """Reports an exact-mode counter can take before its round
        doubles: ``ceil(2 * round_base - reported_sum)`` (the estimate is
        the reported sum while ``p == 1``)."""
        return np.ceil(
            2.0 * self._round_base[ids]
            - self._reported_sum[ids].astype(np.float64)
        ).astype(np.int64)

    def _vector_round(
        self, site: int, ids: np.ndarray, b: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """One vectorized pass over sampling-mode spans at one site.

        Completes every span that stays within its counter's current round
        and returns the worklist of (counter, remaining-increments) spans
        whose round advanced mid-span.  All entries have ``p < 1``.
        """
        empty = np.empty(0, dtype=np.int64)
        p = self._p[ids]
        log_q = np.log1p(-p)  # log(1 - p) < 0

        # --- (1) first-report gaps, one inverse-CDF batch ----------------
        u1 = self._rng.random(ids.size)
        g1 = np.floor(np.log1p(-u1) / log_q).astype(np.int64) + 1
        reporting = g1 <= b
        if not reporting.all():
            silent_ids = ids[~reporting]
            self._local[silent_ids, site] += b[~reporting]
            if not reporting.any():
                return empty, empty
        ids_r = ids[reporting]
        b_r = b[reporting]
        g1_r = g1[reporting]
        p_r = p[reporting]
        log_q_r = log_q[reporting]

        # --- doubling-threshold position L* per reporting counter --------
        # Mirrors estimates() exactly: after the first report the
        # estimate at a report delivered x increments into the span is
        #   est(x) = float(reported_sum - old_reported + old_local + x)
        #            + cnt' * (1 - p) / p
        # with cnt' including this site's first-report activation bump.
        old_local = self._local[ids_r, site]
        old_rep = self._reported[ids_r, site]
        newly = ~self._round_reported[ids_r, site]
        cnt = self._round_reported_count[ids_r] + newly
        corr = cnt * (1.0 - p_r) / p_r
        base2 = 2.0 * self._round_base[ids_r]
        i0 = self._reported_sum[ids_r] - old_rep + old_local
        l_star = np.ceil(base2 - corr - i0).astype(np.int64)
        # The float seed above can be off by one ulp-step; nudge to the
        # exact minimal integer x with est(x) >= 2 * base.
        for _ in range(2):
            over = (i0 + l_star - 1).astype(np.float64) + corr >= base2
            l_star = np.where(over, l_star - 1, l_star)
        for _ in range(2):
            under = (i0 + l_star).astype(np.float64) + corr < base2
            l_star = np.where(under, l_star + 1, l_star)

        # Spans whose *first* report already trips the condition advance
        # immediately; the others draw their last report position.
        early = l_star <= g1_r
        nonearly = np.flatnonzero(~early)

        # --- (2) last report position via one trailing-gap batch ---------
        last_pos = np.zeros(ids_r.size, dtype=np.int64)
        trigger = np.zeros(ids_r.size, dtype=bool)
        if nonearly.size:
            rem = b_r[nonearly] - g1_r[nonearly]
            u2 = self._rng.random(nonearly.size)
            g2 = np.floor(np.log1p(-u2) / log_q_r[nonearly]).astype(
                np.int64
            ) + 1
            trail = np.minimum(g2 - 1, rem)
            last_pos[nonearly] = b_r[nonearly] - trail
            trigger[nonearly] = last_pos[nonearly] >= l_star[nonearly]
        clean = np.flatnonzero(~early & ~trigger)

        # --- trigger-free spans: pure array completion --------------------
        if clean.size:
            ids_c = ids_r[clean]
            l_c = last_pos[clean]
            n_mid = np.maximum(l_c - g1_r[clean] - 1, 0)
            mid = self._rng.binomial(n_mid, p_r[clean])
            n_reports = 1 + (l_c > g1_r[clean]).astype(np.int64) + mid
            self._local[ids_c, site] = old_local[clean] + b_r[clean]
            new_rep = old_local[clean] + l_c
            self._reported_sum[ids_c] += new_rep - old_rep[clean]
            self._reported[ids_c, site] = new_rep
            self._round_reported_count[ids_c] += newly[clean]
            self._round_reported[ids_c, site] = True
            self.message_log.record(
                MessageKind.REPORT, site, int(n_reports.sum())
            )

        # --- (3) round-changing spans, advanced in bulk -------------------
        early_idx = np.flatnonzero(early)
        trig_idx = np.flatnonzero(trigger)
        if early_idx.size == 0 and trig_idx.size == 0:
            return empty, empty
        # Early spans: the first report itself trips the condition.  Its
        # state update is wiped by the sync below, so only the increment
        # prefix and the single report message survive.
        n_reports_special = early_idx.size
        if early_idx.size:
            self._local[ids_r[early_idx], site] += g1_r[early_idx]
        # Triggering spans: reports strictly before L* cannot trigger and
        # are wiped by the sync — a binomial batch counts their messages.
        # The triggering report is the first one at or beyond L*, a
        # truncated geometric over [L*, b] (its existence is exactly the
        # event last_pos >= L* already observed).
        if trig_idx.size:
            ls = l_star[trig_idx]
            gt = g1_r[trig_idx]
            pt = p_r[trig_idx]
            pre = self._rng.binomial(np.maximum(ls - gt - 1, 0), pt)
            limit = b_r[trig_idx] - ls + 1
            u3 = self._rng.random(trig_idx.size)
            tail = np.exp(limit * np.log1p(-pt))  # (1-p)^limit
            g3 = np.ceil(
                np.log1p(-u3 * (1.0 - tail)) / np.log1p(-pt)
            ).astype(np.int64)
            m_pos = ls - 1 + np.clip(g3, 1, limit)
            self._local[ids_r[trig_idx], site] += m_pos
            n_reports_special += int(pre.sum()) + 2 * trig_idx.size
        self.message_log.record(MessageKind.REPORT, site, n_reports_special)
        special = np.concatenate([early_idx, trig_idx])
        self._advance_rounds_bulk(ids_r[special])
        # Remainders re-enter the loop as fresh spans at the new p.
        consumed = np.concatenate(
            [g1_r[early_idx], m_pos if trig_idx.size else empty]
        )
        next_b = b_r[special] - consumed
        keep = next_b > 0
        next_ids = ids_r[special][keep]
        next_b = next_b[keep]
        order = np.argsort(next_ids, kind="stable")
        return next_ids[order], next_b[order]

    def _advance_rounds_bulk(self, cs: np.ndarray) -> None:
        """Start a new round for every counter in ``cs`` (unique ids).

        Sync: every site reports its exact count, so every site starts the
        round with zero gap and no correction; then ``p`` is recomputed
        from the new base.  The coordinator tells every site the new round
        and, except on the exact->exact transition where it already holds
        the exact counts, every site answers with its local count.
        """
        if cs.size == 0:
            return
        self._reported[cs, :] = self._local[cs, :]
        sums = self._local[cs, :].sum(axis=1)
        self._reported_sum[cs] = sums
        self._round_reported[cs, :] = False
        self._round_reported_count[cs] = 0
        self._round_base[cs] = np.maximum(sums.astype(np.float64), 1.0)
        old_p = self._p[cs].copy()
        self._p[cs] = np.minimum(
            1.0, self._sqrt_k / (self.eps[cs] * self._round_base[cs])
        )
        self._rounds_started[cs] += 1
        if self.charge_sync:
            self.message_log.record_broadcast_all(cs.size)
            n_sync = int((old_p < 1.0).sum())
            if n_sync:
                self.message_log.record_syncs_all(n_sync)

    # ------------------------------------------------------------------
    # Diagnostics
    # ------------------------------------------------------------------
    @property
    def report_probabilities(self) -> np.ndarray:
        """Current per-counter report probability ``p`` (copy)."""
        return self._p.copy()

    @property
    def rounds_started(self) -> np.ndarray:
        """Number of round transitions per counter (copy)."""
        return self._rounds_started.copy()

    def relative_errors(self) -> np.ndarray:
        """``|A - C| / max(C, 1)`` per counter (diagnostic)."""
        truth = self.true_totals().astype(np.float64)
        return np.abs(self.estimates() - truth) / np.maximum(truth, 1.0)

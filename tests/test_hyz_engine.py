"""Tests for the HYZ bank's vectorized span replay.

The replay and :class:`~repro.counters.reference.ReferenceHYZCounter`, the
per-increment oracle, consume the RNG stream in different orders, so the
contract is *self-consistency* (same seed, same workload -> byte-identical
results) plus *statistical agreement* with the oracle, and exact equality
wherever no randomness is drawn — see ``docs/hyz-protocol.md``.
"""

import math

import numpy as np
import pytest

from ingest_oracle import assert_states_equal
from repro import HYZCounterBank
from repro.counters.reference import ReferenceHYZCounter
from repro.monitoring.channel import MessageLog


def _ragged_spans(rng, k, n_spans, max_count=50):
    """A shared (site, count) workload replayed into every replica."""
    return [
        (int(rng.integers(0, k)), int(rng.integers(1, max_count)))
        for _ in range(n_spans)
    ]


def _replicated_bank(spans, *, replicas, k, eps, seed):
    bank = HYZCounterBank(replicas, k, eps, seed=seed)
    ids = np.arange(replicas)
    for site, count in spans:
        bank.bulk_add_site(site, ids, np.full(replicas, count))
    return bank


class TestVectorizedEngineAgreement:
    REPLICAS = 300

    def test_estimates_agree_with_reference_within_three_sigma(self):
        eps, k = 0.5, 5
        rng = np.random.default_rng(7)
        spans = _ragged_spans(rng, k, 100)
        total = sum(count for _, count in spans)
        bank = _replicated_bank(
            spans, replicas=self.REPLICAS, k=k, eps=eps, seed=99
        )
        assert np.all(bank.true_totals() == total)

        ref_rng = np.random.default_rng(100)
        reference = []
        for _ in range(self.REPLICAS):
            counter = ReferenceHYZCounter(k, eps, seed=ref_rng)
            for site, count in spans:
                counter.add(site, count)
            reference.append(counter.estimate())

        # Var[A] <= (eps * C)^2 bounds how far each *mean of R replicas* can
        # sit from its own expectation; both simulations realize the same
        # protocol, so their means must land within the combined 3-sigma
        # band of each other.
        tolerance = 2.0 * 3.0 * eps * total / np.sqrt(self.REPLICAS)
        assert abs(bank.estimates().mean() - np.mean(reference)) < tolerance

    def test_message_counts_agree_with_reference_in_expectation(self):
        eps, k = 0.5, 5
        rng = np.random.default_rng(8)
        spans = _ragged_spans(rng, k, 80)
        bank = _replicated_bank(
            spans, replicas=self.REPLICAS, k=k, eps=eps, seed=21
        )
        ref_rng = np.random.default_rng(22)
        reference_messages = []
        reference_rounds = []
        for _ in range(self.REPLICAS):
            counter = ReferenceHYZCounter(k, eps, seed=ref_rng)
            for site, count in spans:
                counter.add(site, count)
            reference_messages.append(counter.message_log.total)
            reference_rounds.append(counter.rounds_started)
        per_replica = bank.total_messages / self.REPLICAS
        assert per_replica == pytest.approx(
            np.mean(reference_messages), rel=0.15
        )
        # Round changes follow the same doubling law in both.
        assert bank.rounds_started.mean() == pytest.approx(
            np.mean(reference_rounds), rel=0.10
        )

    def test_variance_within_eps_bound(self):
        eps, k, total = 0.4, 9, 4_000
        bank = HYZCounterBank(self.REPLICAS, k, eps, seed=43)
        rng = np.random.default_rng(44)
        remaining = total
        ids = np.arange(self.REPLICAS)
        while remaining > 0:
            chunk = min(remaining, 500)
            site = int(rng.integers(0, k))
            bank.bulk_add_site(site, ids, np.full(self.REPLICAS, chunk))
            remaining -= chunk
        assert bank.estimates().std() <= 1.15 * eps * total


class TestSeededDeterminism:
    """Same seed + same per-site slices -> byte-identical bank state.

    Pins the replay's RNG consumption order (first-gap batch,
    trailing-gap batch, interior binomial batch, trigger batches, per
    worklist pass); an accidental reordering changes these outputs.
    """

    def _run(self, seed):
        bank = HYZCounterBank(40, 4, 0.3, seed=seed)
        workload_rng = np.random.default_rng(1)
        for _ in range(30):
            site = int(workload_rng.integers(0, 4))
            counts = workload_rng.integers(1, 60, size=40)
            bank.bulk_add_site(site, np.arange(40), counts)
        return bank

    def test_same_seed_same_state(self):
        a = self._run(seed=11)
        b = self._run(seed=11)
        assert np.array_equal(a.estimates(), b.estimates())
        assert np.array_equal(a._local, b._local)
        assert np.array_equal(a._reported, b._reported)
        assert np.array_equal(a.rounds_started, b.rounds_started)
        assert a.message_log.snapshot() == b.message_log.snapshot()

    def test_different_seeds_differ(self):
        a = self._run(seed=11)
        b = self._run(seed=12)
        assert not np.array_equal(a.estimates(), b.estimates())

    def test_exact_mode_byte_identical_to_reference(self):
        # The exact-mode prefix consumes no randomness, so as long as every
        # counter stays exact (count < sqrt(k)/eps) the bulk pass and the
        # per-increment oracle must agree byte for byte: estimates, round
        # changes and every message tally.
        n_counters, k, eps = 20, 4, 0.05
        bank = HYZCounterBank(n_counters, k, eps, seed=1)
        for site in range(k):
            bank.bulk_add_site(
                site, np.arange(n_counters), np.full(n_counters, 10)
            )
        assert np.all(bank.report_probabilities == 1.0)
        log = MessageLog(k)
        reference = []
        for _ in range(n_counters):
            counter = ReferenceHYZCounter(k, eps, seed=2, message_log=log)
            for site in range(k):
                counter.add(site, 10)
            reference.append(counter)
        assert np.array_equal(
            bank.estimates(), [c.estimate() for c in reference]
        )
        assert np.array_equal(
            bank.rounds_started, [c.rounds_started for c in reference]
        )
        assert bank.message_log.snapshot() == log.snapshot()
        assert np.array_equal(bank.message_log.site_messages, log.site_messages)


# ----------------------------------------------------------------------
# The dense table's whole-table exact-mode pass
# ----------------------------------------------------------------------
K = 5


def _counter(eps, base, local, column, p=None):
    """One crafted counter: round state after a sync (reported == local)
    and its column of the increment table."""
    return dict(eps=eps, base=base, local=local, column=column, p=p)


# p = sqrt(5) / (0.1 * 1000) ~ 0.022: sampling mode, draws randomness.
SAMPLING = dict(eps=0.1, base=1000.0, local=[200] * K)
# p = 1, reported_sum 10, room = ceil(2 * 10 - 10) = 10.
EXACT = dict(eps=0.1, base=10.0, local=[2] * K)

#: case -> (counters, indices the whole-table pass takes, what the walk
#: does to counter 0 — so each crafted state is known to hit its branch).
SPLIT_CASES = {
    "fast_at_room_minus_1": (
        [_counter(**EXACT, column=[2, 0, 3, 4, 0]),
         _counter(**SAMPLING, column=[30, 40, 50, 60, 70])],
        {0},
        lambda bank: bank.rounds_started[0] == 0,
    ),
    "walk_at_room": (
        # T == room: the last increment reaches 2 * base and syncs.
        [_counter(**EXACT, column=[2, 0, 3, 4, 1]),
         _counter(**SAMPLING, column=[30, 40, 50, 60, 70])],
        set(),
        lambda bank: bank.rounds_started[0] == 1,
    ),
    "stuck_at_entry": (
        # reported_sum 5 >= 2 * base (room <= 0): the first pass advances
        # the round.  eps 0.5 leaves exact mode there, eps 0.1 stays exact.
        [_counter(0.5, 2.0, [1] * K, [0, 2, 0, 0, 1]),
         _counter(0.1, 2.0, [1] * K, [1, 0, 0, 3, 0]),
         _counter(**SAMPLING, column=[3, 3, 3, 3, 3])],
        set(),
        lambda bank: (bank.rounds_started[:2].tolist() == [1, 1]
                      and bank.report_probabilities[0] < 1.0
                      and bank.report_probabilities[1] == 1.0),
    ),
    "p_exactly_one": (
        # sqrt(5) / ((sqrt(5) / 4) * 4) == 1.0 exactly; room 6, T 5.  The
        # second counter sits one ulp below exact mode and must sample.
        [_counter(math.sqrt(K) / 4, 4.0, [1, 1, 0, 0, 0], [1] * K),
         _counter(0.1, 10.0, [2] * K, [1] * K, p=np.nextafter(1.0, 0.0))],
        {0},
        lambda bank: bank.report_probabilities[0] == 1.0,
    ),
    "leaves_exact_mode_at_site_3": (
        # room 4: sites 0-2 step one each, site 3 crosses (new base 8,
        # p = sqrt(5) / 4 < 1) and samples its remainder, site 4 samples.
        [_counter(0.5, 4.0, [1, 1, 1, 1, 0], [1, 1, 1, 3, 5]),
         _counter(**EXACT, column=[1, 1, 1, 1, 1]),
         _counter(**SAMPLING, column=[5, 5, 5, 5, 5])],
        {1},
        lambda bank: (bank.rounds_started[0] == 1
                      and bank.report_probabilities[0] < 1.0),
    ),
    "site_touching_only_fast_counters": (
        [_counter(**EXACT, column=[0, 3, 0, 0, 0]),
         _counter(**SAMPLING, column=[5, 0, 5, 5, 5])],
        {0},
        lambda bank: bank.rounds_started[0] == 0,
    ),
    "sites_without_increments": (
        [_counter(**EXACT, column=[1, 0, 0, 1, 0]),
         _counter(**EXACT, column=[6, 0, 0, 6, 0]),
         _counter(**SAMPLING, column=[3, 0, 0, 3, 3])],
        {0},
        lambda bank: bank.rounds_started[0] == 0,
    ),
}


def _crafted_banks(counters):
    """Two banks loaded from one crafted ``state_dict``, plus the table."""
    eps = [c["eps"] for c in counters]
    state = HYZCounterBank(len(counters), K, eps, seed=5).state_dict()
    for i, c in enumerate(counters):
        local = np.asarray(c["local"], dtype=np.int64)
        p = c["p"]
        if p is None:
            p = min(1.0, math.sqrt(K) / (c["eps"] * c["base"]))
        state["local"][i] = state["reported"][i] = local
        state["reported_sum"][i] = local.sum()
        state["round_base"][i] = c["base"]
        state["p"][i] = p
    banks = []
    for seed in (1, 2):
        bank = HYZCounterBank(len(counters), K, eps, seed=seed)
        bank.load_state_dict(state)
        banks.append(bank)
    table = np.array([c["column"] for c in counters], dtype=np.int64).T
    return banks, table


@pytest.mark.parametrize("case", list(SPLIT_CASES))
def test_table_pass_matches_per_site_walk(case):
    # bulk_add_table finishes the fast set in one pass; bulk_add_site
    # walks every counter.  State, RNG and message log must agree.
    counters, fast, walk_effect = SPLIT_CASES[case]
    (by_table, by_site), table = _crafted_banks(counters)
    walked = []
    apply_site = by_table._apply_site

    def spy(site, ids, counts, *rest):
        walked.extend(ids.tolist())
        return apply_site(site, ids, counts, *rest)

    by_table._apply_site = spy
    by_table.bulk_add_table(table)
    for site in range(K):
        ids = np.flatnonzero(table[site])
        if ids.size:
            by_site.bulk_add_site(site, ids, table[site, ids])

    assert walk_effect(by_site)
    assert set(walked) == set(range(len(counters))) - fast
    assert_states_equal(by_site.state_dict(), by_table.state_dict(), case)
    assert_states_equal(
        by_site.message_log.state_dict(), by_table.message_log.state_dict(),
        case,
    )

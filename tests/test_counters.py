"""Property tests for the distributed counter banks."""

import pickle

import numpy as np
import pytest

from hyz_oracle import ReferenceHYZCounter
from ingest_oracle import bulk_add
from repro import DeterministicCounterBank, ExactCounterBank, HYZCounterBank
from repro.errors import CounterError


def _random_workload(rng, n_counters, n_sites, n_ops):
    counter_ids = rng.integers(0, n_counters, size=n_ops)
    site_ids = rng.integers(0, n_sites, size=n_ops)
    counts = rng.integers(1, 7, size=n_ops)
    return counter_ids, site_ids, counts


class TestExactCounterBank:
    def test_matches_ground_truth_exactly(self):
        rng = np.random.default_rng(0)
        bank = ExactCounterBank(50, 8)
        truth = np.zeros(50, dtype=np.int64)
        for _ in range(5):
            counter_ids, site_ids, counts = _random_workload(rng, 50, 8, 400)
            bulk_add(bank, counter_ids, site_ids, counts)
            np.add.at(truth, counter_ids, counts)
        assert np.array_equal(bank.estimates(), truth.astype(float))
        assert np.array_equal(bank.true_totals(), truth)
        # Lemma 5 accounting: one message per increment.
        assert bank.total_messages == int(truth.sum())

    def test_grouped_path_matches_per_site_path(self):
        rng = np.random.default_rng(1)
        counter_ids, site_ids, counts = _random_workload(rng, 40, 6, 300)
        a = ExactCounterBank(40, 6)
        bulk_add(a, counter_ids, site_ids, counts)
        # Aggregate the same workload into sorted unique grouped triples.
        keys = site_ids * 40 + counter_ids
        dense = np.bincount(keys, weights=counts, minlength=40 * 6).astype(
            np.int64
        )
        touched = np.flatnonzero(dense)
        b = ExactCounterBank(40, 6)
        b.bulk_add_grouped(touched // 40, touched % 40, dense[touched])
        assert np.array_equal(a.estimates(), b.estimates())
        assert np.array_equal(a._local, b._local)
        assert a.total_messages == b.total_messages

    def test_bulk_add_grouped_validation(self):
        bank = ExactCounterBank(10, 3)
        with pytest.raises(CounterError):  # sites not sorted
            bank.bulk_add_grouped([1, 0], [0, 0], [1, 1])
        with pytest.raises(CounterError):  # duplicate (site, counter) pair
            bank.bulk_add_grouped([0, 0], [2, 2], [1, 1])
        with pytest.raises(CounterError):  # zero count
            bank.bulk_add_grouped([0], [0], [0])
        with pytest.raises(CounterError):  # counter out of range
            bank.bulk_add_grouped([0], [10], [1])


class TestHYZCounterBank:
    #: Replicate counters per experiment: all counters in one bank receive an
    #: identical stream, so each is an independent draw of the same protocol.
    REPLICAS = 400

    def _replicated_bank(self, eps, k, total, *, seed):
        bank = HYZCounterBank(self.REPLICAS, k, eps, seed=seed)
        rng = np.random.default_rng(seed + 1)
        remaining = total
        all_counters = np.arange(self.REPLICAS)
        while remaining > 0:
            chunk = min(remaining, 500)
            site = int(rng.integers(0, k))
            bank.bulk_add_site(
                site, all_counters, np.full(self.REPLICAS, chunk)
            )
            remaining -= chunk
        return bank

    def test_unbiased_within_three_sigma(self):
        eps, k, total = 0.4, 9, 4_000
        bank = self._replicated_bank(eps, k, total, seed=42)
        estimates = bank.estimates()
        # Var[A] <= (eps * C)^2, so the mean of R replicas deviates from C
        # by more than 3 * eps * C / sqrt(R) with probability < 0.3%.
        tolerance = 3.0 * eps * total / np.sqrt(self.REPLICAS)
        assert abs(estimates.mean() - total) < tolerance

    def test_variance_within_eps_bound(self):
        eps, k, total = 0.4, 9, 4_000
        bank = self._replicated_bank(eps, k, total, seed=43)
        estimates = bank.estimates()
        # The empirical std of R replicas concentrates below eps * C; allow
        # 15% estimation slack on top of the bound.
        assert estimates.std() <= 1.15 * eps * total

    def test_exact_while_counts_small(self):
        # While p == 1 (count below sqrt(k)/eps) the counter is exact.
        bank = HYZCounterBank(5, 4, 0.1, seed=7)
        for site in range(4):
            bank.bulk_add_site(site, np.arange(5), np.full(5, 3))
        assert np.array_equal(bank.estimates(), np.full(5, 12.0))
        assert np.all(bank.report_probabilities == 1.0)

    def test_uses_fewer_messages_than_exact(self):
        eps, k, total = 0.4, 9, 4_000
        bank = self._replicated_bank(eps, k, total, seed=44)
        exact_cost = self.REPLICAS * total
        assert bank.total_messages < 0.5 * exact_cost

    def test_eps_validation(self):
        with pytest.raises(CounterError):
            HYZCounterBank(3, 2, 0.0)
        with pytest.raises(CounterError):
            HYZCounterBank(3, 2, 1.0)
        with pytest.raises(CounterError):
            HYZCounterBank(3, 2, [0.1, 0.5, 1.5])

    def test_exact_span_entered_past_doubling_threshold(self):
        # Regression: when an exact-mode span starts with the doubling
        # condition already met (reported_sum >= 2 * base), the round must
        # advance *before* any increment is consumed.  The old code clamped
        # the step to max(room, 1) and silently over-stepped, folding the
        # new increment into the pre-advance round.  The state below cannot
        # arise through the public API (advances are eager), so it is
        # constructed directly.
        bank = HYZCounterBank(1, 2, 0.1, seed=0)
        bank._local[0, 0] = 10
        bank._reported[0, 0] = 10
        bank._reported_sum[0] = 10
        # _round_base is still 1.0, so the condition 10 >= 2 already holds.
        bank.bulk_add_site(0, np.array([0]), np.array([1]))
        # The advance must have synced at base 10 (the pre-span total), not
        # at 11 (the total after the over-step), and exactly once.
        assert bank._round_base[0] == 10.0
        assert bank.rounds_started[0] == 1
        assert bank.true_totals()[0] == 11


class TestBulkMatchesReference:
    def test_bulk_simulation_agrees_with_per_increment_protocol(self):
        # The skip-ahead bulk simulation and the per-increment reference
        # must agree statistically: both unbiased, comparable traffic.
        eps, k, total, replicas = 0.5, 4, 800, 120
        bank = HYZCounterBank(replicas, k, eps, seed=10)
        per_site = total // k
        for site in range(k):
            bank.bulk_add_site(
                site, np.arange(replicas), np.full(replicas, per_site)
            )
        reference_estimates = []
        reference_messages = []
        rng = np.random.default_rng(11)
        for _ in range(replicas):
            counter = ReferenceHYZCounter(k, eps, seed=rng)
            for site in range(k):
                counter.add(site, per_site)
            reference_estimates.append(counter.estimate())
            reference_messages.append(counter.message_log.total)
        tolerance = 3.0 * eps * total / np.sqrt(replicas)
        assert abs(bank.estimates().mean() - total) < tolerance
        assert abs(np.mean(reference_estimates) - total) < tolerance
        bulk_messages = bank.total_messages / replicas
        assert bulk_messages == pytest.approx(
            np.mean(reference_messages), rel=0.3
        )


class TestDeterministicCounterBank:
    def test_sandwich_bounds_hold(self):
        rng = np.random.default_rng(3)
        eps, k = 0.25, 6
        bank = DeterministicCounterBank(30, k, eps)
        truth = np.zeros(30, dtype=np.int64)
        for _ in range(8):
            counter_ids, site_ids, counts = _random_workload(rng, 30, k, 300)
            bulk_add(bank, counter_ids, site_ids, counts)
            np.add.at(truth, counter_ids, counts)
        estimates = bank.estimates()
        # Keralapura-style guarantee: A <= C <= (1 + eps) * A + k.
        assert np.all(estimates <= truth)
        assert np.all(truth <= (1.0 + eps) * estimates + k)
        lower, upper = bank.guaranteed_bounds()
        assert np.all(lower <= truth)
        assert np.all(truth <= upper)

    def test_respects_threshold_growth(self):
        eps = 0.5
        bank = DeterministicCounterBank(1, 1, eps)
        messages = []
        for _ in range(200):
            bank.bulk_add_site(0, [0], [1])
            messages.append(bank.total_messages)
        # Reports must be geometrically spaced: far fewer messages than
        # increments, and the counter never drifts beyond the (1+eps) slack.
        assert bank.total_messages < 30
        truth = bank.true_totals()[0]
        assert bank.estimates()[0] <= truth <= (1 + eps) * bank.estimates()[0] + 1


# ----------------------------------------------------------------------
# bulk_add_site validation: the O(n) ascending proof and the np.unique
# fallback accept and reject exactly what np.unique alone did.
# ----------------------------------------------------------------------
N_COUNTERS, N_SITES = 64, 4

BANK_FACTORIES = {
    "exact": lambda: ExactCounterBank(N_COUNTERS, N_SITES),
    "deterministic": lambda: DeterministicCounterBank(
        N_COUNTERS, N_SITES, 0.2
    ),
    "hyz": lambda: HYZCounterBank(N_COUNTERS, N_SITES, 0.2, seed=5),
}


def _frozen(bank) -> bytes:
    """Every byte of protocol state, message tallies included."""
    return pickle.dumps((bank.state_dict(), bank.message_log.state_dict()))


def _old_predicate_accepts(bank, site, counter_ids, counts) -> bool:
    """``bulk_add_site``'s checks as they were when uniqueness was always
    proven with ``np.unique`` — the reference accept/reject set."""
    counter_ids = np.asarray(counter_ids, dtype=np.int64)
    counts = np.asarray(counts, dtype=np.int64)
    if counter_ids.shape != counts.shape or counter_ids.ndim != 1:
        return False
    if not 0 <= site < bank.n_sites:
        return False
    if counter_ids.size == 0:
        return True
    if counter_ids.min() < 0 or counter_ids.max() >= bank.n_counters:
        return False
    if counts.min() <= 0:
        return False
    return np.unique(counter_ids).size == counter_ids.size


@pytest.mark.parametrize("kind", sorted(BANK_FACTORIES))
class TestBulkAddSiteValidation:
    def _slices(self, rng, rounds=12):
        for _ in range(rounds):
            ids = np.sort(rng.choice(N_COUNTERS, size=20, replace=False))
            yield int(rng.integers(N_SITES)), ids, rng.integers(1, 40, size=20)

    def test_validation_is_transparent_for_sorted_and_unsorted(self, kind):
        """Accepted input reaches ``_apply_site`` untouched, whichever
        uniqueness proof ran: same state as calling the hook directly."""
        rng = np.random.default_rng(11)
        for shuffle in (False, True):
            checked, direct = BANK_FACTORIES[kind](), BANK_FACTORIES[kind]()
            for site, ids, counts in self._slices(rng):
                if shuffle:
                    order = rng.permutation(ids.size)
                    ids, counts = ids[order], counts[order]
                checked.bulk_add_site(site, ids, counts)
                direct._apply_site(site, ids, counts)
            assert _frozen(checked) == _frozen(direct)
            assert checked.total_messages == direct.total_messages

    def test_sorted_and_unsorted_slices_count_the_same_increments(self, kind):
        rng = np.random.default_rng(12)
        ascending, shuffled = BANK_FACTORIES[kind](), BANK_FACTORIES[kind]()
        for site, ids, counts in self._slices(rng):
            order = rng.permutation(ids.size)
            ascending.bulk_add_site(site, ids, counts)
            shuffled.bulk_add_site(site, ids[order], counts[order])
        assert np.array_equal(ascending._local, shuffled._local)
        if kind != "hyz":
            # Order-free protocols; HYZ draws its coins in slice order.
            assert _frozen(ascending) == _frozen(shuffled)

    @pytest.mark.parametrize("name, site, ids, counts", [
        ("sorted-duplicate", 1, [2, 5, 5, 9], [1, 1, 1, 1]),
        ("unsorted-duplicate", 1, [9, 2, 5, 2], [1, 1, 1, 1]),
        ("id-too-large", 1, [2, 5, N_COUNTERS], [1, 1, 1]),
        ("id-negative", 1, [-1, 5, 9], [1, 1, 1]),
        ("zero-count", 1, [2, 5, 9], [1, 0, 1]),
        ("negative-count", 1, [2, 5, 9], [1, -3, 1]),
        ("misaligned", 1, [2, 5, 9], [1, 1]),
        ("two-dimensional", 1, [[2, 5]], [[1, 1]]),
        ("site-out-of-range", N_SITES, [2, 5, 9], [1, 1, 1]),
    ])
    def test_rejections_leave_the_bank_untouched(self, kind, name, site,
                                                 ids, counts):
        bank = BANK_FACTORIES[kind]()
        bank.bulk_add_site(0, np.arange(10), np.full(10, 30))  # live state
        before = _frozen(bank)
        with pytest.raises(CounterError):
            bank.bulk_add_site(site, np.array(ids), np.array(counts))
        assert _frozen(bank) == before

    def test_randomized_sweep_matches_old_unique_predicate(self, kind):
        rng = np.random.default_rng(13)
        accepted = rejected = 0
        for _ in range(400):
            bank = BANK_FACTORIES[kind]()
            size = int(rng.integers(0, 12))
            # A small id range makes duplicates and range errors common.
            ids = rng.integers(-1, 14, size=size)
            if rng.random() < 0.5:
                ids = np.sort(ids)
            if rng.random() < 0.3:
                ids = np.unique(ids)
            counts = rng.integers(0 if rng.random() < 0.2 else 1, 5,
                                  size=ids.size)
            site = int(rng.integers(-1, N_SITES + 1))
            expected = _old_predicate_accepts(bank, site, ids, counts)
            before = _frozen(bank)
            if expected:
                bank.bulk_add_site(site, ids, counts)
                accepted += 1
            else:
                with pytest.raises(CounterError):
                    bank.bulk_add_site(site, ids, counts)
                assert _frozen(bank) == before
                rejected += 1
        assert accepted > 40 and rejected > 40


# ----------------------------------------------------------------------
# bulk_add_sites: one round as one dense table, byte-identical to the
# per-site walk, and every bad slice refused before the bank is touched.
# ----------------------------------------------------------------------
GOOD_SLICE = (0, [1, 4, 9], [2, 1, 5])


@pytest.mark.parametrize("kind", sorted(BANK_FACTORIES))
class TestBulkAddSites:
    def _rounds(self, rng, n_rounds=30):
        """Rounds of ascending-site slices; counts large enough to move
        HYZ counters through round changes and into sampling mode."""
        for _ in range(n_rounds):
            sites = np.flatnonzero(rng.random(N_SITES) < 0.7)
            yield [
                (int(site),
                 np.sort(rng.choice(N_COUNTERS, size=12, replace=False)),
                 rng.integers(1, 60, size=12))
                for site in sites
            ]

    def test_round_matches_per_site_walk(self, kind):
        rng = np.random.default_rng(21)
        table, walk = BANK_FACTORIES[kind](), BANK_FACTORIES[kind]()
        for slices in self._rounds(rng):
            table.bulk_add_sites(slices)
            for site, ids, counts in slices:
                walk.bulk_add_site(site, ids, counts)
            assert _frozen(table) == _frozen(walk)
        assert not table._round_table.any()
        assert walk.message_log.epoch > 0

    def test_empty_round_is_a_noop(self, kind):
        bank = BANK_FACTORIES[kind]()
        before = _frozen(bank)
        bank.bulk_add_sites([])
        bank.bulk_add_sites([(1, [], [])])
        assert _frozen(bank) == before

    @pytest.mark.parametrize("name, bad", [
        ("id-too-large", (2, [3, N_COUNTERS], [1, 1])),
        ("id-negative", (2, [-1, 3], [1, 1])),
        ("duplicate-id", (2, [3, 7, 3], [1, 1, 1])),
        ("zero-count", (2, [3, 7], [1, 0])),
        ("misaligned", (2, [3, 7], [1])),
        ("site-too-large", (N_SITES, [3, 7], [1, 1])),
        ("site-negative", (-1, [3, 7], [1, 1])),
        ("repeated-site", (0, [3, 7], [1, 1])),
        ("descending-site", (1, [3, 7], [1, 1])),
    ])
    def test_rejections_leave_the_bank_untouched(self, kind, name, bad):
        bank = BANK_FACTORIES[kind]()
        bank.bulk_add_site(0, np.arange(10), np.full(10, 30))  # live state
        before = _frozen(bank)
        # A good slice first, so a scatter-then-check design would have
        # already written it; the descending case needs a site above 1.
        head = (3,) + GOOD_SLICE[1:] if name == "descending-site" \
            else GOOD_SLICE
        slices = [(s, np.array(i), np.array(c)) for s, i, c in (head, bad)]
        with pytest.raises(CounterError):
            bank.bulk_add_sites(slices)
        assert _frozen(bank) == before
        # The reused table is left clean: the next round, at a site the
        # refused round did not write, applies exactly as the walk does.
        walk = BANK_FACTORIES[kind]()
        walk.load_state_dict(bank.state_dict())
        walk.message_log.load_state_dict(bank.message_log.state_dict())
        bank.bulk_add_sites([(1,) + GOOD_SLICE[1:]])
        walk.bulk_add_site(1, *GOOD_SLICE[1:])
        assert _frozen(bank) == _frozen(walk)

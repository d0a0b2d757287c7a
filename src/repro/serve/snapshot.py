"""Immutable, versioned, read-optimized views of the current estimates.

A :class:`ModelSnapshot` turns the counter bank's estimate vector into
the one table every query path needs: the per-joint-counter log-CPD term

    ``terms[j] = log(num_j) - log(den_j)``

where ``num_j`` is the joint counter's estimate and ``den_j`` its parent
family's estimate (``repro/core/estimator.py::StreamingMLEEstimator``
lays joint blocks before parent blocks, so one static gather map links
the two halves).  Every serving-layer answer — full-assignment queries,
ancestrally closed events, classification scores — is a sum of entries
of this table, which is why one contiguous array per sync epoch replaces
per-call counter walks.

Bit-identity contract: the live scalar paths (``log_query``,
``log_query_event``, ``BayesianClassifier``) take ``math.log`` of the
same float64 estimates per call.  ``np.log`` over arrays is *not*
bitwise-identical to ``math.log`` on this container (SIMD polynomial
paths differ by an ulp on a ~1e-4 fraction of inputs), so the table is
built with one ``math.log`` loop over the *distinct* positive estimates
(a parent estimate divides a whole family block, and exact-mode counters
share small integer values: over the first 210k events of a LINK stream
its 28k counters hold 7k-14k distinct values), gathered back per
counter and subtracted through the joint -> parent map — the same
correctly rounded float64 ``log(num) - log(den)`` per entry.  A few
milliseconds, paid once per sync epoch instead of per query.
"""

from __future__ import annotations

import math

import numpy as np


class ServePlan:
    """Static layout derived once per estimator for snapshot builds.

    ``parent_of_joint[j]`` is the absolute counter index of the parent
    family estimate that divides joint counter ``j`` — the estimator's
    own joint -> parent map (``_parent_of_joint_rel``, which the
    grouping layer derives parent counts with) shifted past the joint
    block, so a snapshot build is pure array gathers.
    """

    __slots__ = ("n_joint", "parent_of_joint")

    def __init__(self, estimator) -> None:
        self.n_joint = int(estimator.n_joint_counters)
        parent_of_joint = estimator._parent_of_joint_rel + self.n_joint
        parent_of_joint.setflags(write=False)
        self.parent_of_joint = parent_of_joint


class ModelSnapshot:
    """One sync epoch's estimates, frozen into query-ready arrays.

    Attributes
    ----------
    epoch:
        The :attr:`~repro.monitoring.channel.MessageLog.epoch` the
        snapshot was built at; valid for as long as the log still
        reports it (estimates cannot move without a recorded message).
        The epoch survives coordinator crash recovery: WAL replay
        (:mod:`repro.dist.recovery`) re-records every replayed round's
        messages through the same calls the live apply path makes, so a
        snapshot built over a recovered session carries the same epoch
        an uninterrupted run would have stamped (``docs/recovery.md``).
    version:
        Monotonic build counter of the owning server (epochs can skip —
        many syncs may land between two reads — versions never do).
    terms:
        ``(n_joint_counters,)`` float64 log-CPD term table; ``-inf``
        wherever the numerator or denominator estimate is zero.
    neg:
        Boolean mask of entries whose *numerator* is zero — the scalar
        query paths return ``-inf`` at the first such family.
    bad:
        Boolean mask of entries whose numerator is positive but whose
        denominator is zero — the strict query paths raise
        :class:`~repro.errors.QueryError` there (impossible under
        consistent updates, reachable only by direct bank writes).
    """

    __slots__ = ("epoch", "version", "terms", "neg", "bad")

    def __init__(self, epoch, version, terms, neg, bad) -> None:
        self.epoch = epoch
        self.version = version
        self.terms = terms
        self.neg = neg
        self.bad = bad

    @classmethod
    def build(
        cls, estimates: np.ndarray, plan: ServePlan, *, epoch: int,
        version: int,
    ) -> "ModelSnapshot":
        """Freeze ``estimates`` (the full counter vector) into a snapshot."""
        num = estimates[: plan.n_joint]
        den = estimates[plan.parent_of_joint]
        neg = num <= 0.0
        bad = ~neg & (den <= 0.0)
        terms = np.full(plan.n_joint, -np.inf)
        ok = np.flatnonzero(~neg & ~bad)
        if ok.size:
            # Each distinct positive estimate is logged once, then
            # gathered back to every counter holding it.
            positive = np.flatnonzero(estimates > 0.0)
            values, inverse = np.unique(
                estimates[positive], return_inverse=True
            )
            logs = np.zeros(estimates.size)
            logs[positive] = np.array(
                [math.log(v) for v in values.tolist()]
            )[inverse]
            terms[ok] = logs[ok] - logs[plan.parent_of_joint[ok]]
        for array in (terms, neg, bad):
            array.setflags(write=False)
        return cls(int(epoch), int(version), terms, neg, bad)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ModelSnapshot(epoch={self.epoch}, version={self.version}, "
            f"n_joint={self.terms.size})"
        )

"""The sampler tests' oracles: the plain inversion loop and a per-CPD
chi-squared goodness of fit.

:func:`reference_sample_into` is the forward sampler's per-variable loop
before its pass-saving shortcuts; the live loop must reproduce it byte
for byte, generator state included.  :func:`max_cpd_chi2_z` checks that
a stream is distributed as the network says, against the ground-truth
CPDs.
"""

import math

import numpy as np

#: Bound on the per-CPD chi-squared z-score (Wilson–Hilferty cube-root
#: normalization, accurate even at the low degrees of freedom of
#: sparsely observed variables): a correct sampler stays well under it
#: across hundreds of per-variable statistics, while a misread CDF row
#: sends the worst statistic orders of magnitude past it.
CHI2_Z_THRESHOLD = 6.0

#: Parent configurations with fewer samples than this are excluded from
#: the chi-squared statistic (the usual expected-count validity rule).
_MIN_CONFIG_SAMPLES = 20


def reference_sample_into(sampler, out: np.ndarray) -> np.ndarray:
    """Fill ``out`` with ``sampler``'s next draw, by the plain loop.

    Same tables and generator, but the uniforms are drawn the way the
    sampler first drew them: one block per topological level, as wide
    as the widest level.  The live sampler draws one row per variable
    instead, so matching this oracle pins that the row draws replay the
    block stream.  Every variable builds its full parent code ``cfg``
    (zeros for a root), gathers every state row at it and counts in
    scratch before copying into its column.  ``out`` is int64.  Returns
    ``out``.
    """
    m = out.shape[0]
    cfg = np.empty(m, dtype=np.int64)
    tmp = np.empty(m, dtype=np.int64)
    key = np.empty(m, dtype=np.float64)
    gathered = np.empty(m, dtype=np.float64)
    below = np.empty(m, dtype=bool)
    count = np.empty(m, dtype=np.int64)
    width = max(len(level) for level in sampler._levels)
    uniforms = np.empty((width, m), dtype=np.float64)
    for level in sampler._levels:
        u_block = uniforms[: len(level)]
        sampler._rng.random(out=u_block)
        for u, index in zip(u_block, level):
            cardinality, parents, state_rows, packed = sampler._tables[index]
            column = out[:, index]
            if parents:
                position, stride = parents[0]
                np.multiply(out[:, position], stride, out=cfg)
                for position, stride in parents[1:]:
                    np.multiply(out[:, position], stride, out=tmp)
                    cfg += tmp
            else:
                cfg[:] = 0
            if cardinality == 1:
                column[:] = 0
            elif state_rows is not None:
                np.take(state_rows[0], cfg, out=gathered)
                np.less(gathered, u, out=below)
                if cardinality == 2:
                    np.copyto(column, below)
                    continue
                np.copyto(count, below)
                for row in state_rows[1:]:
                    np.take(row, cfg, out=gathered)
                    np.less(gathered, u, out=below)
                    count += below
                np.copyto(column, count)
            else:
                np.add(cfg, u, out=key)
                hit = packed.searchsorted(key, side="right")
                np.multiply(cfg, cardinality, out=cfg)
                hit -= cfg
                np.copyto(column, hit)
    return out


def max_cpd_chi2_z(net, data: np.ndarray) -> float:
    """Worst per-CPD chi-squared z-score of ``data`` against the network.

    For every CPD the empirical conditional distribution is tallied per
    parent configuration (one ``bincount`` over ``config * cardinality +
    state`` keys), configurations with fewer than
    ``_MIN_CONFIG_SAMPLES`` rows are dropped, and the remaining
    cells with nonzero probability form one chi-squared statistic whose
    Wilson–Hilferty z-score is returned at its maximum over variables
    (the cube-root normalization stays accurate at the 1-2 degrees of
    freedom of sparsely observed variables, where the plain
    ``(stat - dof) / sqrt(2 dof)`` approximation is right-skewed enough
    to trip the bound on noise alone).  Zero-probability states must
    never be observed at all — that is a hard error, not a large z.
    """
    m = len(data)
    worst = -math.inf
    for row, cpd in zip(net.stride_rows(), net.cpds()):
        cardinality, k_configs, parents = row
        cfg = np.zeros(m, dtype=np.int64)
        for position, stride in parents:
            cfg += data[:, position] * stride
        column = net.variable_index(cpd.variable)
        cells = np.bincount(
            cfg * cardinality + data[:, column],
            minlength=k_configs * cardinality,
        ).reshape(k_configs, cardinality)
        config_totals = cells.sum(axis=1)
        keep = config_totals >= _MIN_CONFIG_SAMPLES
        if not keep.any():
            continue
        observed = cells[keep].astype(np.float64)
        probabilities = cpd.values.T[keep]
        expected = config_totals[keep, None] * probabilities
        support = probabilities > 0.0
        if observed[~support].any():
            raise AssertionError(
                f"sampled impossible state(s) of {cpd.variable!r}: "
                "zero-probability cells have nonzero counts"
            )
        stat = float(
            (((observed - expected) ** 2)[support] / expected[support]).sum()
        )
        dof = int(support.sum()) - int(keep.sum())
        if dof <= 0:
            continue
        variance = 2.0 / (9.0 * dof)
        z = ((stat / dof) ** (1.0 / 3.0) - (1.0 - variance)) / math.sqrt(
            variance
        )
        worst = max(worst, z)
    return worst

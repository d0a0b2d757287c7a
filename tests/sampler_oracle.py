"""The sampler tests' statistical oracle: per-CPD chi-squared goodness of fit.

A forward-sampling engine may draw its stream any way it likes as long
as the stream is distributed as the network says; the engine and
sharded-sampler tests check that here, against the ground-truth CPDs.
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

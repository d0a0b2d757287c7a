"""The memory layouts every batch entry point must read alike.

A batch of ``(m, n)`` state indices reaches the library as the sampler's
F-ordered draw, a C-ordered copy, or a view with strided rows or columns
(a slice of a wider table, every other row of a longer one), in int64
or in a narrower integer dtype: the fused sampler's reused chunk is
F-ordered uint8, and a caller may hand in int32.  Results and end state
must be bitwise-equal across all of them; the tests walk this table
rather than one layout each.
"""

import numpy as np


def layouts(rows) -> dict:
    """``rows`` in each layout, every one equal to ``rows`` by value."""
    rows = np.asarray(rows)
    padded = np.zeros((rows.shape[0], 2 * rows.shape[1]), dtype=rows.dtype)
    padded[:, ::2] = rows
    out = {
        "C-order": np.ascontiguousarray(rows),
        "F-order": np.asfortranarray(rows),
        "strided columns": padded[:, ::2],
        "strided rows": np.repeat(rows, 2, axis=0)[::2],
        "uint8 F-order": np.asfortranarray(rows, dtype=np.uint8),
        "int32 C-order": np.ascontiguousarray(rows, dtype=np.int32),
    }
    for name, data in out.items():
        assert np.array_equal(data, rows), name
    return out

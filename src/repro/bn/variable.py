"""Categorical random variables."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import QueryError
from repro.utils.validation import check_positive_int


@dataclass(frozen=True)
class Variable:
    """A categorical random variable.

    Parameters
    ----------
    name:
        Unique variable name within its network.
    cardinality:
        Number of states (``J_i`` in the paper), at least 1.
    states:
        Optional state labels; defaults to ``s0..s{J-1}``.
    """

    name: str
    cardinality: int
    states: tuple[str, ...] = field(default=())

    def __post_init__(self) -> None:
        check_positive_int(self.cardinality, "cardinality")
        if not self.name:
            raise ValueError("variable name must be non-empty")
        if self.states:
            if len(self.states) != self.cardinality:
                raise ValueError(
                    f"variable {self.name!r}: {len(self.states)} state labels "
                    f"for cardinality {self.cardinality}"
                )
            if len(set(self.states)) != len(self.states):
                raise ValueError(f"variable {self.name!r}: duplicate state labels")
        else:
            object.__setattr__(
                self,
                "states",
                tuple(f"s{i}" for i in range(self.cardinality)),
            )

    def state_index(self, state: "str | int") -> int:
        """Resolve a state label or integer index to a validated index.

        Only a label, an ``int`` or a numpy integer names a state: a
        float would truncate (0.5 would read as state 0) and ``True`` is
        not an index, so both are refused rather than cast.
        Raises :class:`~repro.errors.QueryError` for those, an unknown
        label, and an out-of-range index alike.
        """
        # Exact type first: ``bool`` is not ``int`` here, and the common
        # case stays one comparison on the served event-query path.
        if type(state) is not int and not isinstance(state, np.integer):
            if isinstance(state, str):
                try:
                    return self.states.index(state)
                except ValueError:
                    raise QueryError(
                        f"variable {self.name!r} has no state {state!r}"
                    ) from None
            raise QueryError(
                f"state of variable {self.name!r} must be an integer index "
                f"or a state label, got {state!r}"
            )
        index = int(state)
        if not 0 <= index < self.cardinality:
            raise QueryError(
                f"state index {index} out of range for variable {self.name!r} "
                f"with cardinality {self.cardinality}"
            )
        return index

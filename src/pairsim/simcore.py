"""The similarity groups shared by both learning paradigms.

Everything downstream (losses, gradients, training) consumes similarity
scores grouped per anchor: the within-class scores ``sp`` and the
between-class scores ``sn``. A group holds one anchor as 1-D arrays, or
B anchors as dense B x K and B x L rows: every entry of a row belongs to
its anchor. The two paradigms differ only in where the rows come from.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["SimilarityGroup", "unit_rows", "unit_rows_grad"]


@dataclass(frozen=True)
class SimilarityGroup:
    """The within-class scores sp and between-class scores sn of B anchors.

    sp and sn are 1-D for a single anchor, or B x K and B x L with one
    row per anchor. Every score must be finite, and every anchor needs a
    score on each side.
    """

    sp: np.ndarray
    sn: np.ndarray

    def __post_init__(self):
        # reshape rather than np.atleast_1d: groups are built once per loss
        # evaluation, and the wrapper costs more than the check.
        sp = np.asarray(self.sp, dtype=np.float64)
        sn = np.asarray(self.sn, dtype=np.float64)
        if sp.ndim == 0:
            sp = sp.reshape(1)
        if sn.ndim == 0:
            sn = sn.reshape(1)
        if sp.ndim > 2 or sp.shape[:-1] != sn.shape[:-1]:
            raise ValueError("sp and sn must be 1-D, or B x K and B x L rows")
        if sp.shape[-1] < 1 or sn.shape[-1] < 1:
            raise ValueError("empty similarity side")
        if not (np.isfinite(sp).all() and np.isfinite(sn).all()):
            raise ValueError("non-finite similarity score")
        object.__setattr__(self, "sp", sp)
        object.__setattr__(self, "sn", sn)

    @property
    def k(self) -> int:
        """Entries per sp row: each anchor's K."""
        return self.sp.shape[-1]

    @property
    def l(self) -> int:
        """Entries per sn row: each anchor's L."""
        return self.sn.shape[-1]


def unit_rows(x: np.ndarray, name: str) -> tuple[np.ndarray, np.ndarray]:
    """The rows of x scaled to unit length, and their norms as a column.

    A non-finite entry, a norm that overflows float64 and a zero norm are
    refused, each with a ValueError naming ``name``. A non-finite entry
    always gives a non-finite norm, so the entries are scanned only then.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        norms = np.linalg.norm(x, axis=1, keepdims=True)
    if not np.isfinite(norms).all():
        if not np.isfinite(x).all():
            raise ValueError(f"degenerate feature: non-finite {name}")
        raise ValueError(f"degenerate feature: {name} norm overflows float64")
    if np.any(norms == 0.0):
        raise ValueError(f"degenerate feature: zero-norm {name}")
    return x / norms, norms


def unit_rows_grad(d_unit: np.ndarray, unit: np.ndarray, norms: np.ndarray) -> np.ndarray:
    """The gradient over x, given the gradient over ``unit, norms = unit_rows(x)``."""
    return (d_unit - np.sum(d_unit * unit, axis=1, keepdims=True) * unit) / norms

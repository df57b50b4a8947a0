"""The similarity groups shared by both learning paradigms.

Everything downstream (losses, gradients, training) consumes similarity
scores grouped per anchor: the within-class scores ``sp`` and the
between-class scores ``sn``. A group holds one anchor as 1-D arrays, or
B anchors as B x K and B x L rows. Batched rows may be padded: boolean
member masks say which entries of each row belong to that anchor, so a
score matrix and two masks express a whole batch in either paradigm.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["SimilarityGroup", "unit_rows", "unit_rows_grad"]


def _member_mask(mask, scores: np.ndarray, side: str) -> np.ndarray:
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != scores.shape:
        raise ValueError(f"{side} mask shape {mask.shape} != scores shape {scores.shape}")
    if not mask.any(axis=-1).all():
        raise ValueError("empty similarity side: an anchor has no members")
    return mask


@dataclass(frozen=True)
class SimilarityGroup:
    """The within-class scores sp and between-class scores sn of B anchors.

    sp and sn are 1-D for a single anchor, or B x K and B x L with one
    row per anchor. The optional boolean masks sp_mask and sn_mask,
    shaped like sp and sn, select each anchor's members; without a mask
    every entry of the row is a member. Every score must be finite,
    members or not, and every anchor needs a member on each side.
    """

    sp: np.ndarray
    sn: np.ndarray
    sp_mask: np.ndarray | None = None
    sn_mask: np.ndarray | None = None

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
        if self.sp_mask is not None:
            object.__setattr__(self, "sp_mask", _member_mask(self.sp_mask, sp, "sp"))
        if self.sn_mask is not None:
            object.__setattr__(self, "sn_mask", _member_mask(self.sn_mask, sn, "sn"))

    @property
    def k(self) -> int:
        """Entries per sp row: the anchor's K when sp has no mask."""
        return self.sp.shape[-1]

    @property
    def l(self) -> int:
        """Entries per sn row: the anchor's L when sn has no mask."""
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

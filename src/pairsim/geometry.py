"""Decision-boundary geometry and gradient-field grids.

For the binary case (one sn, one sp) the circle loss decides at
an * (sn - Dn) - ap * (sp - Dp) = 0, which is a circle in the (sn, sp)
plane with center ((On + Dn) / 2, (Op + Dp) / 2) and squared radius
((On - Dn)^2 + (Op - Dp)^2) / 4. In reduced mode: center (0, 1), radius
sqrt(2) * m.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataio import write_csv
from .grads import loss_grad
from .losses import CircleParams, circle_logits
from .simcore import SimilarityGroup

__all__ = [
    "BoundaryCircle",
    "decision_boundary",
    "convergence_target",
    "on_boundary",
    "GridSpec",
    "gradient_field",
    "write_gradient_field_csv",
]

GRADIENT_FIELD_HEADER = "sn,sp,d_sn,d_sp,loss"
GRADIENT_FIELD_ROW = "%.6g,%.6g,%.6g,%.6g,%.6g\n"


@dataclass(frozen=True)
class BoundaryCircle:
    center_sn: float
    center_sp: float
    radius: float


def decision_boundary(p: CircleParams) -> BoundaryCircle:
    """The circular decision boundary of a circle-loss parameterization."""
    c = ((p.on - p.dn) ** 2 + (p.op - p.dp) ** 2) / 4.0
    if c <= 0.0:
        raise ValueError("degenerate boundary")
    return BoundaryCircle(
        center_sn=(p.on + p.dn) / 2.0,
        center_sp=(p.op + p.dp) / 2.0,
        radius=math.sqrt(c),
    )


def convergence_target(m: float) -> tuple[float, float]:
    """The boundary point T = (m, 1 - m) minimizing the gap sp - sn.

    On the reduced boundary, center (0, 1) radius sqrt(2) * m, the gap
    sp - sn is minimized at center + radius * (1, -1) / sqrt(2).
    """
    if not 0.0 < m < 1.0:
        raise ValueError("m must lie in (0, 1)")
    return (m, 1.0 - m)


def on_boundary(sn: float, sp: float, p: CircleParams, tol: float) -> bool:
    """Whether |an * (sn - Dn) - ap * (sp - Dp)| <= tol at this point.

    That difference is the sum of the two circle logits over gamma.
    """
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    un, vp = circle_logits(SimilarityGroup(sp=np.array([sp]), sn=np.array([sn])), p)
    return abs(un[0] + vp[0]) <= tol * p.gamma


@dataclass(frozen=True)
class GridSpec:
    """Rectangular (sn, sp) grid; defaults match the [0, 1]^2 toy plots."""

    sn_range: tuple[float, float] = (0.0, 1.0)
    sp_range: tuple[float, float] = (0.0, 1.0)
    resolution: int = 101

    def __post_init__(self):
        if self.resolution < 2:
            raise ValueError("grid resolution must be >= 2 per axis")
        for name, (lo, hi) in (("sn_range", self.sn_range), ("sp_range", self.sp_range)):
            # False for a NaN or infinite bound and for a width that overflows.
            if not 0.0 < hi - lo < math.inf:
                raise ValueError(
                    f"grid {name} ({lo!r}, {hi!r}) must be a finite, non-empty interval"
                )


def gradient_field(loss_id: str, gamma: float, m: float, grid: GridSpec | None = None) -> np.ndarray:
    """Single-pair loss and gradients on a dense (sn, sp) grid.

    Rows are emitted row-major over (sn outer, sp inner) with columns
    (sn, sp, d_sn, d_sp, loss). A grid so far outside the cosine range
    [-1, 1] that gamma times a score overflows is refused.
    """
    grid = grid or GridSpec()
    sn, sp = np.meshgrid(
        np.linspace(*grid.sn_range, grid.resolution),
        np.linspace(*grid.sp_range, grid.resolution),
        indexing="ij",
    )
    # One anchor per grid point: B = resolution^2 rows with K = L = 1.
    sn, sp = sn.reshape(-1, 1), sp.reshape(-1, 1)
    with np.errstate(over="ignore", invalid="ignore"):
        lg = loss_grad(loss_id, SimilarityGroup(sp=sp, sn=sn), gamma, m)
    rows = np.column_stack((sn, sp, lg.d_sn, lg.d_sp, lg.value))
    if not np.isfinite(rows).all():
        raise ValueError(
            f"the {loss_id} field at gamma {gamma!r} overflows on the grid "
            f"sn_range {grid.sn_range!r}, sp_range {grid.sp_range!r}"
        )
    return rows


def write_gradient_field_csv(path, rows: np.ndarray) -> None:
    """Serialize a gradient field to CSV at 6 significant digits."""
    write_csv(path, GRADIENT_FIELD_HEADER, GRADIENT_FIELD_ROW, rows)

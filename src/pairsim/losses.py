"""Forward evaluation of the pair-similarity loss family.

The family shares one template: log(1 + sum over (i, j) pairs of
exp(pair logit)). The members differ only in how the pair logit is built
from (sp_i, sn_j):

* unified:     gamma * (sn_j - sp_i + m)
* am_softmax:  the K=1 rearrangement of the unified loss
* triplet:     the gamma -> inf limit (hard mining)
* circle:      gamma * (an_j * (sn_j - Dn) - ap_i * (sp_i - Dp)) with
               self-paced weights an, ap

For scores in [-1, 1], no evaluation overflows for gamma up to 2**16. A
value is positive while its largest pair logit stays above about -745;
below that the exponential underflows float64 and the value is 0.0. For
example, unified_loss at sp = 1, sn = -1, m = 0.2 (pair logit
-1.8 * gamma) is 0.0 from gamma of about 414 up, 2**16 included.

Each forward loss takes one anchor. Batched groups go to the row-wise
kernels in the grads module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .simcore import SimilarityGroup

__all__ = [
    "UnifiedParams",
    "CircleParams",
    "unified_loss",
    "am_softmax_loss",
    "triplet_hard_loss",
    "circle_weights",
    "circle_loss",
    "unified_to_triplet_gap",
]

# Hinge activations at or below this are treated as the kink itself: the
# subgradient is 0 there. Keeps boundary grid points (where cancellation
# leaves ~1e-17 residue) on the converged side.
HINGE_ACTIVE_TOL = 1e-12


def require_scale_margin(gamma: float, m: float) -> None:
    """Refuse a gamma that is not positive and finite, or an m that is not finite."""
    if not (math.isfinite(gamma) and gamma > 0):
        raise ValueError("gamma must be positive and finite")
    if not math.isfinite(m):
        raise ValueError("m must be finite")


@dataclass(frozen=True)
class UnifiedParams:
    """Scale factor and margin of the unified loss."""

    gamma: float
    m: float = 0.0

    def __post_init__(self):
        require_scale_margin(self.gamma, self.m)


@dataclass(frozen=True)
class CircleParams:
    """Optima (Op, On), margins (Dp, Dn) and scale of the circle loss.

    Reduced mode ties all four geometry parameters to one relaxation
    factor m: Op = 1 + m, On = -m, Dp = 1 - m, Dn = m. Reduced mode is
    the default entry point; the general parameterization (Op > Dp,
    Dn > On, including the margin-free Dp = Dn = 0) requires explicit
    opt-in via ``general``. The forward loss, the analytic gradient and
    ``fd_check`` accept either mode.
    """

    gamma: float
    op: float
    on: float
    dp: float
    dn: float
    m: float | None = None
    is_reduced: bool = False

    def __post_init__(self):
        if not (math.isfinite(self.gamma) and self.gamma > 0):
            raise ValueError("gamma must be positive and finite")
        for v in (self.op, self.on, self.dp, self.dn):
            if not math.isfinite(v):
                raise ValueError("circle parameters must be finite")
        if not self.is_reduced:
            if not (self.op > self.dp and self.dn > self.on):
                raise ValueError("general mode requires Op > Dp and Dn > On")

    @classmethod
    def reduced(cls, gamma: float, m: float) -> "CircleParams":
        # Negative m down to -0.2 is legal for sweeps; the positive-radius
        # requirement is asserted only by geometry operations.
        if not (math.isfinite(m) and -1.0 < m < 1.0):
            raise ValueError("reduced mode requires m in (-1, 1)")
        return cls(
            gamma=gamma,
            op=1.0 + m,
            on=-m,
            dp=1.0 - m,
            dn=m,
            m=m,
            is_reduced=True,
        )

    @classmethod
    def general(cls, gamma: float, op: float, on: float, dp: float, dn: float) -> "CircleParams":
        return cls(gamma=gamma, op=op, on=on, dp=dp, dn=dn)


def row_softmax(logits: np.ndarray):
    """Overwrite each row of ``logits`` with its softmax; return each row's log-sum-exp.

    Rows are shifted by their max, so no exponential overflows.
    """
    shift = np.max(logits, axis=-1, keepdims=True)
    logits -= shift
    np.exp(logits, out=logits)
    total = np.sum(logits, axis=-1, keepdims=True)
    logits /= total
    return (shift + np.log(total))[..., 0]


def require_one_anchor(g: SimilarityGroup, name: str) -> None:
    """Refuse a batched group: ``name`` takes one anchor."""
    if g.sp.ndim != 1:
        raise ValueError(
            f"{name} takes one anchor; the kernels circle_grad, "
            "unified_grad and triplet_grad take batches"
        )


def log1p_sum_exp(terms: np.ndarray) -> float:
    """log(1 + sum_k exp(terms_k)) of a float64 array, shifted so no exponential overflows."""
    # Array methods rather than np.max / np.sum, and no np.asarray: this
    # runs once per loss evaluation, and each wrapper costs more than the
    # reduction itself on short rows.
    shift = float(terms.max())
    if shift <= 0.0:
        # log1p keeps tiny losses strictly positive instead of rounding to 0.
        return math.log1p(float(np.exp(terms).sum()))
    return shift + math.log(
        math.exp(-shift) + float(np.exp(terms - shift).sum())
    )


def unified_logits(g: SimilarityGroup, p: UnifiedParams):
    """Per-score logits (un_j, vp_i) = (gamma (sn_j + m), -gamma sp_i) of the unified loss."""
    un = g.sn + p.m
    un *= p.gamma
    return un, -p.gamma * g.sp


def unified_loss(g: SimilarityGroup, p: UnifiedParams) -> float:
    """log[1 + sum_j exp(gamma(sn_j + m)) * sum_i exp(-gamma sp_i)] of one anchor."""
    require_one_anchor(g, "unified_loss")
    un, vp = unified_logits(g, p)
    return log1p_sum_exp(np.add.outer(un, vp).ravel())


def am_softmax_loss(sp: float, sn, p: UnifiedParams) -> float:
    """-log softmax form of the K=1 unified loss.

    Computed from the rearranged negative-log-softmax expression rather
    than by delegating to :func:`unified_loss`, so the algebraic-identity
    check between the two stays a genuine dual route. With m=0 this is
    the NormFace loss; with gamma=1, m=0 on raw logits it is plain
    softmax cross-entropy.
    """
    sn = np.asarray(sn, dtype=np.float64)
    if sn.ndim == 0:
        sn = sn.reshape(1)
    elif sn.ndim > 1:
        raise ValueError("am_softmax_loss takes one anchor's sn; unified_grad takes batches")
    if sn.size < 1:
        raise ValueError("empty similarity side")
    if not (math.isfinite(sp) and np.isfinite(sn).all()):
        raise ValueError("non-finite similarity score")
    # -log softmax rearranged: log(1 + sum_j exp(gamma sn_j - gamma (sp - m))).
    # The subtraction happens inside the logits, a different float path than
    # unified_loss's (sn + m) - sp pairing.
    target = p.gamma * (sp - p.m)
    return log1p_sum_exp(p.gamma * sn - target)


def triplet_hard_loss(g: SimilarityGroup, m: float) -> float:
    """max(0, max_j sn_j - min_i sp_i + m): triplet loss with hard mining, one anchor."""
    require_one_anchor(g, "triplet_hard_loss")
    return max(0.0, float(np.max(g.sn) - np.min(g.sp) + m))


def circle_weights(g: SimilarityGroup, p: CircleParams):
    """Self-paced weights ap_i = [Op - sp_i]_+, an_j = [sn_j - On]_+."""
    alpha_p = np.maximum(p.op - g.sp, 0.0)
    alpha_n = np.maximum(g.sn - p.on, 0.0)
    return alpha_p, alpha_n


def circle_logits(g: SimilarityGroup, p: CircleParams, weights=None):
    """Weighted per-score logits (un_j, vp_i) entering the circle loss.

    un_j = gamma * an_j * (sn_j - Dn), vp_i = -gamma * ap_i * (sp_i - Dp).
    ``weights`` is an (ap, an) pair to hold fixed, as the detached
    gradient does; by default they are ``circle_weights(g, p)``. A
    cut-off weight of zero makes the corresponding logit exactly 0.
    """
    alpha_p, alpha_n = circle_weights(g, p) if weights is None else weights
    un = p.gamma * alpha_n * (g.sn - p.dn)
    vp = -p.gamma * alpha_p * (g.sp - p.dp)
    return un, vp


def circle_loss(g: SimilarityGroup, p: CircleParams) -> float:
    """log[1 + sum_j exp(un_j) * sum_i exp(vp_i)] with self-paced logits, one anchor.

    The margin-free variant is general mode with Dp = Dn = 0.
    """
    require_one_anchor(g, "circle_loss")
    un, vp = circle_logits(g, p)
    return log1p_sum_exp(np.add.outer(un, vp).ravel())


def unified_to_triplet_gap(g: SimilarityGroup, m: float, gamma: float) -> float:
    """|(1/gamma) * smooth max - hard max|; at most log(1 + K*L) / gamma."""
    return abs(unified_loss(g, UnifiedParams(gamma, m)) / gamma - triplet_hard_loss(g, m))

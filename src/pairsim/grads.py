"""Analytic gradients of the losses, plus finite-difference verification.

Each loss has one row-wise kernel over a SimilarityGroup of one anchor
or of B dense rows: it gives the value, the attenuation factor Z and the
gradients of every anchor at once. Training, gradient-field grids and the
single-group API share the kernels; only ``backprop_to_params`` knows
which scores of a batch belong to which anchor; a pair-wise batch's
rows are read from, and written back through, P x K block views.

The circle-loss gradient follows the detached-weighting convention: the
self-paced weights are treated as constants during back-propagation, so
the per-score factor is gamma * an_j for sn_j and -gamma * ap_i for sp_i,
in reduced and general mode alike. In reduced mode that is
gamma * (sn + m) rather than the gamma * 2 * sn of differentiating
through the weights. A "full" finite-difference mode that does so exists
for comparison only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .losses import (
    HINGE_ACTIVE_TOL,
    CircleParams,
    UnifiedParams,
    circle_logits,
    circle_weights,
    require_one_anchor,
    row_softmax,
    unified_logits,
)
from .simcore import SimilarityGroup, unit_rows, unit_rows_grad

__all__ = [
    "LossGrad",
    "circle_grad",
    "unified_grad",
    "triplet_grad",
    "loss_grad",
    "fd_check",
    "backprop_to_params",
]


@dataclass(frozen=True)
class LossGrad:
    """Loss value with gradients over sp / sn and the attenuation factor Z.

    For a 1-D group value and z are floats; for a batched group they are
    arrays with one entry per anchor. d_sp / d_sn are shaped like sp / sn.
    """

    value: float | np.ndarray
    d_sp: np.ndarray
    d_sn: np.ndarray
    z: float | np.ndarray


def _per_anchor(x):
    """A float for a single anchor, the per-row array for a batch."""
    return float(x) if np.ndim(x) == 0 else x


def _pair_softmax_grad(gamma, un, vp, slope_n, slope_p) -> LossGrad:
    """Value, Z and gradients of log[1 + sum e^un * sum e^vp] for each anchor.

    un and vp are scratch logits shaped like sn and sp whose slopes,
    with any weights held fixed, are gamma * slope_n in sn and
    gamma * slope_p in sp. They are overwritten with the gradients
    Z * softmax * gamma * slope.
    Z = 1 - exp(-value) is the sigmoid of the summed log-sum-exps.
    """
    lse_n = row_softmax(un)
    lse_p = row_softmax(vp)
    value = np.logaddexp(0.0, lse_n + lse_p)
    z = -np.expm1(-value)
    scale = (z * gamma)[..., None]
    un *= scale * slope_n
    vp *= scale * slope_p
    return LossGrad(value=_per_anchor(value), d_sp=vp, d_sn=un, z=_per_anchor(z))


def circle_grad(g: SimilarityGroup, p: CircleParams) -> LossGrad:
    """Detached-weight gradient of the circle loss, reduced or general mode.

    d_sn_j = Z * softmax_j(weighted logits) * gamma * an_j
    d_sp_i = Z * softmax_i(weighted logits) * gamma * min(sp_i - Op, 0)

    min(sp_i - Op, 0) is -ap_i written so that a cut-off weight gives
    +0.0, not -0.0. A cut-off entry contributes a logit of exactly 0 to
    the softmax normalization and receives a zero gradient.
    """
    alpha_p, alpha_n = circle_weights(g, p)
    un, vp = circle_logits(g, p, (alpha_p, alpha_n))
    return _pair_softmax_grad(p.gamma, un, vp, alpha_n, np.minimum(g.sp - p.op, 0.0))


def unified_grad(g: SimilarityGroup, p: UnifiedParams) -> LossGrad:
    """Exact gradient of the unified loss; |d_sp| = |d_sn| when K = L = 1.

    It is the circle kernel's rule with every weight fixed at 1.
    """
    un, vp = unified_logits(g, p)
    return _pair_softmax_grad(p.gamma, un, vp, 1.0, -1.0)


def triplet_grad(g: SimilarityGroup, m: float) -> LossGrad:
    """Subgradient of the hard-mining triplet loss.

    Inside the violating region each anchor's hardest pair gets (+1, -1);
    at the hinge kink (activation within HINGE_ACTIVE_TOL of zero) and
    beyond the boundary the gradient is zero.
    """
    hardest_n = np.argmax(g.sn, axis=-1)[..., None]
    hardest_p = np.argmin(g.sp, axis=-1)[..., None]
    hinge = np.take_along_axis(g.sn, hardest_n, -1) - np.take_along_axis(g.sp, hardest_p, -1) + m
    value = np.maximum(hinge[..., 0], 0.0)
    active = value[..., None] > HINGE_ACTIVE_TOL
    d_sn = np.zeros_like(g.sn)
    d_sp = np.zeros_like(g.sp)
    np.put_along_axis(d_sn, hardest_n, np.where(active, 1.0, 0.0), axis=-1)
    np.put_along_axis(d_sp, hardest_p, np.where(active, -1.0, 0.0), axis=-1)
    z = -np.expm1(-value)
    return LossGrad(value=_per_anchor(value), d_sp=d_sp, d_sn=d_sn, z=_per_anchor(z))


# The ids loss_grad dispatches: TrainConfig and `pairsim train --loss` take these.
LOSS_IDS = ("circle", "am_softmax", "normface", "softmax", "triplet", "unified")


def loss_grad(loss_id: str, g: SimilarityGroup, gamma: float, m: float) -> LossGrad:
    """Dispatch a loss id to its value-and-gradient evaluation."""
    if loss_id == "circle":
        return circle_grad(g, CircleParams.reduced(gamma, m))
    if loss_id in ("unified", "am_softmax"):
        return unified_grad(g, UnifiedParams(gamma, m))
    if loss_id == "normface":
        return unified_grad(g, UnifiedParams(gamma, 0.0))
    if loss_id == "softmax":
        return unified_grad(g, UnifiedParams(1.0, 0.0))
    if loss_id == "triplet":
        return triplet_grad(g, m)
    raise ValueError(f"unknown loss id {loss_id!r}; valid: {', '.join(LOSS_IDS)}")


def fd_check(
    loss_id: str,
    g: SimilarityGroup,
    params,
    eps: float = 1e-5,
    mode: str = "frozen",
) -> float:
    """Max scaled error between analytic gradients and central differences.

    For the circle loss, mode="frozen" holds the self-paced weights at
    their unperturbed values during the probe, matching the detached
    semantics of the analytic gradient. mode="full" differentiates
    through the weights and is expected to disagree away from sn = m.
    Entries within eps of a cut-off kink are skipped (subgradient
    ambiguity). Errors are scaled by max(1, |analytic|, |fd|); a NaN
    error gives NaN. The 2(K + L) probes of the one anchor
    (each score +-eps) form one batched group, valued in one kernel call.
    """
    if not 1e-7 <= eps <= 1e-3:
        raise ValueError("eps must lie in [1e-7, 1e-3]")
    if mode not in ("frozen", "full"):
        raise ValueError("mode must be 'frozen' or 'full'")
    require_one_anchor(g, "fd_check")

    if loss_id == "circle":
        if not isinstance(params, CircleParams):
            raise ValueError("circle fd_check needs CircleParams")
        kernel = circle_grad
        kinks = np.abs(np.concatenate((g.sp - params.op, g.sn - params.on))) <= eps
    elif loss_id in ("unified", "am_softmax"):
        if not isinstance(params, UnifiedParams):
            raise ValueError("unified fd_check needs UnifiedParams")
        kernel, kinks = unified_grad, False
    else:
        raise ValueError(f"fd_check does not support loss id {loss_id!r}")

    # Row r of the probes moves score r of (sp, sn) up by eps, row n + r down.
    n = g.k + g.l
    scores = np.concatenate((g.sp, g.sn))
    steps = np.eye(n) * eps
    probes = np.concatenate((scores + steps, scores - steps))
    batch = SimilarityGroup(probes[:, : g.k], probes[:, g.k :])
    if loss_id == "circle" and mode == "frozen":
        un, vp = circle_logits(batch, params, circle_weights(g, params))
        values = _pair_softmax_grad(params.gamma, un, vp, 0.0, 0.0).value
    else:
        values = kernel(batch, params).value
    analytic = kernel(g, params)
    fd = (values[:n] - values[n:]) / (2 * eps)
    a = np.concatenate((analytic.d_sp, analytic.d_sn))
    err = np.abs(fd - a) / np.maximum(np.maximum(np.abs(a), np.abs(fd)), 1.0)
    return float(np.max(np.where(kinks, 0.0, err)))


def _block_layout(labels: np.ndarray) -> tuple[int, int]:
    """(P, K) of a pair-wise batch of P >= 2 blocks of K >= 2 rows.

    One class per block and a different class in each, as
    ``engine.pk_sample`` draws it; K is the length of the first label
    run. Any other layout is refused.
    """
    batch = labels.shape[0]
    starts = np.flatnonzero(labels[1:] != labels[:-1]) + 1
    k = int(starts[0]) if starts.size else batch
    p = batch // k if k >= 2 else 0
    blocked = p >= 2 and p * k == batch and np.array_equal(starts, np.arange(k, batch, k))
    if not blocked or len(set(labels[::k].tolist())) != p:
        raise ValueError("pair_wise batch must be P >= 2 blocks of K >= 2 rows of distinct classes")
    return p, k


def backprop_to_params(model, features, labels, loss_id: str, gamma: float, m: float, paradigm: str):
    """Mean batch loss, its parameter gradients, and batch similarity stats.

    Chains LossGrad entries through the cosine-similarity Jacobian and
    the embedding map. All reductions run in fixed index order, so the
    result is bit-reproducible. ``model`` must expose forward / backward
    in the EmbeddingModel sense (see engine module). A pair-wise batch must
    be P >= 2 blocks of K >= 2 rows of distinct classes, as pk_sample draws.

    Returns (param_grads dict, mean_loss, mean_sp, mean_sn).
    """
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels)
    batch = features.shape[0]
    if labels.shape[0] != batch:
        raise ValueError("features/labels batch size mismatch")

    emb, cache = model.forward(features)
    ehat, norms = unit_rows(emb, "embedding")

    if paradigm == "class_level":
        if model.class_weights is None:
            raise ValueError("class_level paradigm needs class weights")
        what, wnorms = unit_rows(model.class_weights, "class weight")
        scores = ehat @ what.T
        np.clip(scores, -1.0, 1.0, out=scores)
        # K = 1, L = N - 1: with each row's target score swapped into the
        # last column, sp is that column and sn the others, both views.
        rows = np.arange(batch)
        scores[rows, labels], scores[:, -1] = scores[:, -1].copy(), scores[rows, labels]
        group = SimilarityGroup(sp=scores[:, -1:], sn=scores[:, :-1])
        means = float(np.mean(group.sp)), float(np.mean(group.sn))
        lg = loss_grad(loss_id, group, gamma, m)
        # The scores are spent, so their array takes the gradient: no fresh B x N array.
        grad_s = np.concatenate((lg.d_sn, lg.d_sp), axis=1, out=scores)
        grad_s[rows, labels], grad_s[:, -1] = grad_s[:, -1].copy(), grad_s[rows, labels]
        grad_s /= batch
        d_ehat = grad_s @ what
        d_w = unit_rows_grad(grad_s.T @ ehat, what, wnorms)
    elif paradigm == "pair_wise":
        p, k = _block_layout(labels)
        scores = np.clip(ehat @ ehat.T, -1.0, 1.0)
        # Block (a, b) of the (P, P, K, K) view scores the rows of block a
        # against the columns of block b: sp is the diagonal blocks less each
        # row's own score, sn the off-diagonal blocks, in ascending columns.
        own, off_self = np.eye(p, dtype=bool), ~np.eye(k, dtype=bool)
        blocks = scores.reshape(p, k, p, k).transpose(0, 2, 1, 3)
        sp = blocks[own][:, off_self].reshape(batch, k - 1)
        sn = blocks[~own].reshape(p, p - 1, k, k).transpose(0, 2, 1, 3).reshape(batch, batch - k)
        group = SimilarityGroup(sp=sp, sn=sn)
        means = float(np.mean(group.sp)), float(np.mean(group.sn))
        lg = loss_grad(loss_id, group, gamma, m)
        # Back through the same views; each row's own score stays 0.
        diag = np.zeros((p, k, k))
        diag[:, off_self] = lg.d_sp.reshape(p, -1)
        blocks = np.empty((p, p, k, k))
        blocks[own] = diag
        blocks[~own] = lg.d_sn.reshape(p, k, p - 1, k).transpose(0, 2, 1, 3).reshape(-1, k, k)
        grad_s = blocks.transpose(0, 2, 1, 3).reshape(batch, batch)
        grad_s /= batch
        d_ehat = (grad_s + grad_s.T) @ ehat
        d_w = None
    else:
        raise ValueError(f"unknown paradigm {paradigm!r}")

    param_grads = model.backward(unit_rows_grad(d_ehat, ehat, norms), cache)
    if d_w is not None:
        param_grads["class_weights"] = d_w

    mean_loss = float(np.sum(lg.value)) / batch
    return param_grads, mean_loss, *means

"""Desk-scale embedding trainer.

Plain SGD over a one- or two-layer linear embedding map, with the loss
family from the losses/grads modules. Supports both paradigms: class
weights (one sp against the target class, N-1 sn against the rest) and
pair-wise batches built by P-K sampling (every batch element serves as
anchor against the rest of the batch). Training is single-threaded and
bit-reproducible per seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import grads
from .dataio import LabeledDataset
from .simcore import unit_rows

__all__ = [
    "EmbeddingModel",
    "TrainConfig",
    "RunRecord",
    "init_model",
    "class_members",
    "pk_sample",
    "train_step",
    "train",
]

LOSS_IDS = ("circle", "am_softmax", "normface", "softmax", "triplet", "unified")
DEFAULT_LR_SCHEDULE = ((0.5, 0.1), (0.7, 0.01), (0.9, 0.001))


@dataclass
class EmbeddingModel:
    """Linear or tanh-MLP embedding map with optional class weights."""

    w1: np.ndarray
    w2: np.ndarray | None = None
    class_weights: np.ndarray | None = None

    @property
    def din(self) -> int:
        return self.w1.shape[1]

    @property
    def embed_dim(self) -> int:
        return self.w1.shape[0] if self.w2 is None else self.w2.shape[0]

    @property
    def hidden(self) -> int | None:
        return None if self.w2 is None else self.w1.shape[0]

    @property
    def n_classes(self) -> int | None:
        return None if self.class_weights is None else self.class_weights.shape[0]

    def forward(self, x: np.ndarray):
        """Raw (un-normalized) embeddings plus the cache backward needs."""
        if x.shape[1] != self.din:
            raise ValueError(f"input dim {x.shape[1]} != model Din {self.din}")
        # An entry that overflows is left for unit_rows to refuse, without a warning.
        with np.errstate(over="ignore", invalid="ignore"):
            if self.w2 is None:
                return x @ self.w1.T, {"x": x}
            z = np.tanh(x @ self.w1.T)
            return z @ self.w2.T, {"x": x, "z": z}

    def backward(self, d_emb: np.ndarray, cache: dict) -> dict:
        if self.w2 is None:
            return {"w1": d_emb.T @ cache["x"]}
        z = cache["z"]
        dz = (d_emb @ self.w2) * (1.0 - z * z)
        return {"w2": d_emb.T @ z, "w1": dz.T @ cache["x"]}

    def apply_gradients(self, param_grads: dict, lr: float) -> None:
        self.w1 -= lr * param_grads["w1"]
        if self.w2 is not None:
            self.w2 -= lr * param_grads["w2"]
        if self.class_weights is not None and "class_weights" in param_grads:
            self.class_weights -= lr * param_grads["class_weights"]

    def embed(self, x: np.ndarray) -> np.ndarray:
        """L2-normalized embeddings of a feature matrix."""
        emb, _ = self.forward(np.asarray(x, dtype=np.float64))
        return unit_rows(emb, "embedding")[0]


@dataclass(frozen=True)
class TrainConfig:
    paradigm: str = "pair_wise"
    loss: str = "circle"
    gamma: float = 256.0
    m: float = 0.25
    lr: float = 0.05
    lr_schedule: tuple = DEFAULT_LR_SCHEDULE
    iterations: int = 200
    batch_size: int = 32
    p_classes: int = 8
    k_samples: int = 4
    embed_dim: int = 32
    hidden: int | None = None
    seed: int = 0

    def __post_init__(self):
        if self.paradigm not in ("class_level", "pair_wise"):
            raise ValueError(f"unknown paradigm {self.paradigm!r}")
        if self.loss not in LOSS_IDS:
            raise ValueError(f"unknown loss {self.loss!r}; valid: {', '.join(LOSS_IDS)}")
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise ValueError("lr must be positive and finite")
        if self.iterations < 0:
            raise ValueError("iterations must be non-negative")
        if self.paradigm == "pair_wise" and (self.p_classes < 2 or self.k_samples < 2):
            raise ValueError("pair_wise mode needs P >= 2 and K >= 2")
        if self.paradigm == "class_level" and self.batch_size < 1:
            raise ValueError("class_level mode needs batch size >= 1")


@dataclass
class RunRecord:
    """Per-iteration trajectory plus the final model."""

    iteration: np.ndarray
    mean_sp: np.ndarray
    mean_sn: np.ndarray
    loss: np.ndarray
    lr: np.ndarray
    model: EmbeddingModel


def init_model(
    seed: int,
    din: int,
    embed_dim: int,
    n_classes: int | None = None,
    hidden: int | None = None,
) -> EmbeddingModel:
    """Uniform(-1, 1) / sqrt(fan_in) init, deterministic per seed."""
    if din < 1 or embed_dim < 2 or (hidden is not None and hidden < 1):
        raise ValueError("dims must satisfy Din >= 1, D >= 2 and hidden >= 1")
    rng = np.random.default_rng(seed)

    def layer(fan_out, fan_in):
        bound = 1.0 / np.sqrt(fan_in)
        return rng.uniform(-bound, bound, size=(fan_out, fan_in))

    if hidden is None:
        w1, w2 = layer(embed_dim, din), None
    else:
        w1, w2 = layer(hidden, din), layer(embed_dim, hidden)
    cw = None if n_classes is None else layer(n_classes, embed_dim)
    return EmbeddingModel(w1=w1, w2=w2, class_weights=cw)


def class_members(labels) -> tuple[np.ndarray, list]:
    """The distinct labels, ascending, and the row indices of each, ascending."""
    classes, inverse, counts = np.unique(labels, return_inverse=True, return_counts=True)
    return classes, np.split(np.argsort(inverse, kind="stable"), np.cumsum(counts)[:-1])


def pk_sample(
    dataset: LabeledDataset, p: int, k: int, rng: np.random.Generator, members=None
) -> np.ndarray:
    """Indices of P distinct classes x K distinct samples per class.

    ``members`` is ``class_members(dataset.labels)``, passed in so that a
    training run groups the labels once; the draws are the same without it.
    """
    classes, groups = class_members(dataset.labels) if members is None else members
    if classes.size < p:
        raise ValueError(f"need {p} classes, dataset has {classes.size}")
    out = []
    for c in rng.choice(classes.size, size=p, replace=False):
        if groups[c].size < k:
            raise ValueError(f"class {classes[c]} has {groups[c].size} samples, need {k}")
        out.append(rng.choice(groups[c], size=k, replace=False))
    return np.concatenate(out)


def train_step(model: EmbeddingModel, features, labels, config: TrainConfig, lr: float):
    """One SGD step on a batch; returns (loss, mean_sp, mean_sn)."""
    # Overflow warns nothing: a non-finite loss is refused here, non-finite
    # weights by the next step's unit_rows or by save_checkpoint.
    with np.errstate(over="ignore", invalid="ignore"):
        param_grads, loss, mean_sp, mean_sn = grads.backprop_to_params(
            model, features, labels, config.loss, config.gamma, config.m, config.paradigm
        )
        if not np.isfinite(loss):
            raise RuntimeError(
                f"non-finite loss {loss} (loss={config.loss}, gamma={config.gamma}, "
                f"m={config.m}, lr={lr})"
            )
        model.apply_gradients(param_grads, lr)
    return loss, mean_sp, mean_sn


def _lr_at(config: TrainConfig, iteration: int) -> float:
    mult = 1.0
    for fraction, m in config.lr_schedule:
        if iteration >= fraction * config.iterations:
            mult = m
    return config.lr * mult


def train(dataset: LabeledDataset, config: TrainConfig) -> RunRecord:
    """Run the full training loop; deterministic per (dataset, config).

    Class-level training gives each distinct label one class-weight row,
    in ascending label order, so the weights grow with the number of
    classes, not with the largest label.
    """
    labels, n_classes, members = dataset.labels, None, None
    rows = dataset.features.shape[0]
    if config.paradigm == "class_level":
        if config.batch_size > rows:
            raise ValueError(f"class_level batch size {config.batch_size} > {rows} dataset rows")
        # Dense class indices: the labels themselves when they are 0..N-1.
        classes, labels = np.unique(dataset.labels, return_inverse=True)
        n_classes = classes.size
    else:
        members = class_members(dataset.labels)
    model = init_model(
        config.seed, dataset.features.shape[1], config.embed_dim, n_classes, config.hidden
    )
    sampler = np.random.default_rng([config.seed, 0x5A])

    iters = config.iterations
    rec = {k: np.empty(iters) for k in ("mean_sp", "mean_sn", "loss", "lr")}
    for it in range(iters):
        lr = _lr_at(config, it)
        if config.paradigm == "pair_wise":
            idx = pk_sample(dataset, config.p_classes, config.k_samples, sampler, members)
        else:
            idx = sampler.choice(rows, size=config.batch_size, replace=False)
        loss, mean_sp, mean_sn = train_step(model, dataset.features[idx], labels[idx], config, lr)
        rec["mean_sp"][it], rec["mean_sn"][it] = mean_sp, mean_sn
        rec["loss"][it], rec["lr"][it] = loss, lr
    return RunRecord(
        iteration=np.arange(iters),
        mean_sp=rec["mean_sp"],
        mean_sn=rec["mean_sn"],
        loss=rec["loss"],
        lr=rec["lr"],
        model=model,
    )

"""Pair-similarity loss family: forward losses, gradients, geometry,
a desk-scale embedding trainer, and evaluation metrics."""

from .simcore import SimilarityGroup
from .losses import (
    UnifiedParams,
    CircleParams,
    unified_loss,
    am_softmax_loss,
    triplet_hard_loss,
    circle_weights,
    circle_loss,
    unified_to_triplet_gap,
)
from .grads import LossGrad, circle_grad, unified_grad, triplet_grad, loss_grad, fd_check
from .geometry import (
    BoundaryCircle,
    GridSpec,
    decision_boundary,
    convergence_target,
    on_boundary,
    gradient_field,
    write_gradient_field_csv,
)
from .dataio import (
    LabeledDataset,
    ClusterSpec,
    gen_clusters,
    save_dataset,
    load_dataset,
    save_checkpoint,
    load_checkpoint,
    save_record,
)
from .engine import EmbeddingModel, TrainConfig, RunRecord, init_model, pk_sample, train
from .evalkit import (
    MetricsReport,
    recall_at_k,
    tar_at_far,
    similarity_scatter,
    sweep,
)

__version__ = "0.1.0"

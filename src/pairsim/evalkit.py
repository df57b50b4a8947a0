"""Retrieval / verification metrics and hyper-parameter sweeps.

Covers R@K nearest-neighbor retrieval, TAR@FAR verification, the
hardest-pair similarity scatter used for convergence analysis, and
seeded training sweeps over gamma or m.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace

import numpy as np

from .dataio import LabeledDataset

__all__ = [
    "MetricsReport",
    "ScatterResult",
    "recall_at_k",
    "tar_at_far",
    "similarity_scatter",
    "sweep",
    "write_report_csv",
    "write_report_json",
    "write_sweep_csv",
]


@dataclass
class MetricsReport:
    recall_at_k: dict = field(default_factory=dict)
    rank1: float | None = None
    tar_at_far: dict = field(default_factory=dict)
    pair_scatter: np.ndarray | None = None
    concentration: tuple[float, float] | None = None


@dataclass
class ScatterResult:
    """Hardest-pair (max sn, min sp) points, one per usable anchor."""

    points: np.ndarray
    skipped: int


def _cosine_matrix(embeddings: np.ndarray) -> np.ndarray:
    e = np.asarray(embeddings, dtype=np.float64)
    norms = np.linalg.norm(e, axis=1, keepdims=True)
    if np.any(norms == 0.0):
        raise ValueError("degenerate feature: zero-norm embedding")
    eh = e / norms
    return np.clip(eh @ eh.T, -1.0, 1.0)


def recall_at_k(embeddings, labels, ks) -> dict:
    """Fraction of queries whose k nearest neighbors hit a same-class item.

    Cosine metric, self excluded, ties broken by ascending index.
    """
    labels = np.asarray(labels)
    sim = _cosine_matrix(embeddings)
    n = sim.shape[0]
    if n < 2:
        raise ValueError("need at least 2 samples")
    ks = sorted(int(k) for k in ks)
    if not ks:
        raise ValueError("ks must name at least one k")
    if ks[0] < 1 or ks[-1] >= n:
        raise ValueError(f"k must lie in [1, {n - 1}]")
    np.fill_diagonal(sim, -np.inf)
    order = np.argsort(-sim, axis=1, kind="stable")
    hits = labels[order] == labels[:, None]
    out = {}
    for k in ks:
        out[k] = float(np.mean(np.any(hits[:, :k], axis=1)))
    return out


def tar_at_far(genuine_scores, impostor_scores, far_targets) -> dict:
    """True-accept rate at each false-accept target, inclusive threshold.

    The threshold is the smallest score whose impostor acceptance
    fraction is <= far; acceptance is score >= threshold.
    """
    gen = np.asarray(genuine_scores, dtype=np.float64)
    imp = np.asarray(impostor_scores, dtype=np.float64)
    if gen.size == 0 or imp.size == 0:
        raise ValueError("both score lists must be non-empty")
    imp_desc = np.sort(imp)[::-1]
    out = {}
    for far in far_targets:
        if far < 1.0 / imp.size:
            raise ValueError("insufficient impostor pairs")
        allowed = int(np.floor(far * imp.size))
        if allowed >= imp.size:
            threshold = -np.inf
        else:
            threshold = np.nextafter(imp_desc[allowed], np.inf)
        out[far] = float(np.mean(gen >= threshold))
    return out


def similarity_scatter(model, dataset: LabeledDataset) -> ScatterResult:
    """Per-anchor hardest pair (max_j sn_j, min_i sp_i) over a dataset.

    Anchors in singleton classes have no positives and are skipped; the
    skip count is reported instead of warning per anchor.
    """
    emb = model.embed(dataset.features)
    sim = np.clip(emb @ emb.T, -1.0, 1.0)
    labels = dataset.labels
    n = sim.shape[0]
    points, skipped = [], 0
    for a in range(n):
        pos = (labels == labels[a]) & (np.arange(n) != a)
        neg = labels != labels[a]
        if not pos.any() or not neg.any():
            skipped += 1
            continue
        points.append((np.max(sim[a, neg]), np.min(sim[a, pos])))
    return ScatterResult(points=np.array(points), skipped=skipped)


def sweep(dataset: LabeledDataset, base_config, axis: str, values):
    """Independent seeded training runs per value; returns [(value, R@1)].

    Each run trains from scratch with the axis value substituted into
    the base config, then scores R@1 on the full dataset embeddings.
    """
    from .engine import train

    if axis not in ("gamma", "m"):
        raise ValueError("axis must be 'gamma' or 'm'")
    values = list(values)
    if not values:
        raise ValueError("sweep needs at least one value")
    rows = []
    for v in values:
        config = replace(base_config, **{axis: float(v)})
        record = train(dataset, config)
        emb = record.model.embed(dataset.features)
        r1 = recall_at_k(emb, dataset.labels, [1])[1]
        rows.append((float(v), r1))
    return rows


def write_report_csv(path, report: MetricsReport) -> None:
    """Flat `metric,key,value` CSV view of a report."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("metric,key,value\n")
        for k, v in sorted(report.recall_at_k.items()):
            fh.write(f"recall_at_k,{k},{v!r}\n")
        if report.rank1 is not None:
            fh.write(f"rank1,,{report.rank1!r}\n")
        for far, tar in sorted(report.tar_at_far.items()):
            fh.write(f"tar_at_far,{far!r},{tar!r}\n")
        if report.concentration is not None:
            fh.write(f"concentration,mean,{report.concentration[0]!r}\n")
            fh.write(f"concentration,variance,{report.concentration[1]!r}\n")


def write_report_json(path, report: MetricsReport) -> None:
    doc = {
        "recall_at_k": {str(k): v for k, v in report.recall_at_k.items()},
        "rank1": report.rank1,
        "tar_at_far": {repr(k): v for k, v in report.tar_at_far.items()},
        "concentration": report.concentration,
        "n_scatter_points": None
        if report.pair_scatter is None
        else int(report.pair_scatter.shape[0]),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True, indent=1)
        fh.write("\n")


def write_sweep_csv(path, axis: str, rows) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{axis},recall_at_1\n")
        for value, r1 in rows:
            fh.write(f"{value!r},{r1!r}\n")

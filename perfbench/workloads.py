"""The four benchmark workloads: inputs from a seed, one job, output checks.

Each workload builds its inputs from the seed with numpy code of its own,
so the inputs stay the same when the program changes. A job goes through
``pairsim.cli.main`` the way a user would (retrieval_eval adds
``evalkit.tar_at_far``, which the CLI does not expose) and adds the
duration of each of its steps to ``steps`` (a ``hostspeed.StepLog``,
which probes the host's speed between steps): an SGD step on the train
workloads, a ``pairsim eval`` call on retrieval_eval, a ``pairsim
gradfield`` call on gradfield. Every job of a run does the same steps in
the same order. ``check`` compares the first job's outputs with references
computed here, independently of the program, and returns the workload's
quality figure.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from pairsim import cli, dataio, engine, evalkit

DIM = 32
FARS = (1e-4, 1e-3, 1e-2)
RECALL_KS = (1, 2, 4, 8)
GRADFIELD_LOSSES = ("circle", "am_softmax", "triplet")
GRADFIELD_GAMMAS = (32.0, 64.0, 128.0, 256.0)
GRADFIELD_MARGINS = (0.15, 0.25, 0.35)
GRADFIELD_CHECKED_ROWS = 64
# Mirrors the program's hinge tolerance (losses.HINGE_ACTIVE_TOL) so the
# triplet reference puts grid points on the kink on the same side.
HINGE_TOL = 1e-12
# The gradient-field CSV keeps 6 significant digits.
CSV_RTOL = 1e-5
# Embeddings computed here and in the program may differ in the last
# bits; neighbours closer than this count as ties either way.
TIE_EPS = 1e-9
# Impostor pairs scored per piece in set-up, small enough that set-up does
# not set the run's peak RSS.
PAIR_CHUNK = 10_000


class JobFailed(RuntimeError):
    pass


def _cli(argv) -> None:
    try:
        code = cli.main([str(a) for a in argv])
    except SystemExit as exc:  # argparse rejected the arguments
        code = exc.code
    if code != 0:
        raise JobFailed(f"pairsim {argv[0]} exited with {code}")


def _timed_cli(argv, steps) -> None:
    start = time.perf_counter()
    _cli(argv)
    steps.add(time.perf_counter() - start)


@contextmanager
def _step_timer(steps):
    """Add the duration of every ``engine.train_step`` call to ``steps``."""
    original = engine.train_step

    def timed(*args, **kwargs):
        start = time.perf_counter()
        try:
            return original(*args, **kwargs)
        finally:
            steps.add(time.perf_counter() - start)

    engine.train_step = timed
    try:
        yield
    finally:
        engine.train_step = original


def _clusters(rng, n_classes: int, per_class: int, sigma: float):
    """Gaussian blobs around unit-norm centers; labels in class blocks."""
    centers = rng.standard_normal((n_classes, DIM))
    centers /= np.linalg.norm(centers, axis=1, keepdims=True)
    features = np.repeat(centers, per_class, axis=0)
    features += sigma * rng.standard_normal(features.shape)
    return features, np.repeat(np.arange(n_classes), per_class)


def _first_of_each_class(per_class: int, n_first: int, n_rows: int) -> np.ndarray:
    return (np.arange(n_rows) % per_class) < n_first


def _write_dataset(path: Path, features, labels) -> None:
    """CSV in the layout ``pairsim.dataio.load_dataset`` reads, lossless floats."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("label," + ",".join(f"f{i}" for i in range(features.shape[1])) + "\n")
        for label, row in zip(labels, features):
            fh.write(f"{int(label)}," + ",".join(repr(float(v)) for v in row) + "\n")


def _only(pattern: str, where: Path) -> Path:
    found = sorted(where.glob(pattern))
    if len(found) != 1:
        raise JobFailed(f"expected one {pattern} under {where}, found {len(found)}")
    return found[0]


def _reference_embed(checkpoint: Path, features) -> np.ndarray:
    """Unit embeddings from the checkpoint JSON, without the engine module."""
    doc = json.loads(checkpoint.read_text(encoding="utf-8"))
    h = features @ np.array(doc["w1"]).T
    if doc["w2"] is not None:
        h = np.tanh(h) @ np.array(doc["w2"]).T
    return h / np.linalg.norm(h, axis=1, keepdims=True)


def digest(out: Path, extra: dict) -> dict:
    """sha256 of every file a job wrote, plus its in-memory results."""
    sums = {
        str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.rglob("*"))
        if p.is_file()
    }
    sums.update(extra)
    return sums


class TrainWorkload:
    """``pairsim train`` on a cluster dataset; quality is held-out R@1."""

    step_name = "SGD step"
    aliases = {"items_per_s": "train_samples_per_s", "quality": "final_r1"}

    def __init__(self, seed, stream, n_classes, train_per_class, held_per_class, sigma,
                 steps, batch, flags):
        self.seed = seed
        self.stream = stream
        self.n_classes = n_classes
        self.train_per_class = train_per_class
        self.held_per_class = held_per_class
        self.sigma = sigma
        self.steps = steps
        self.flags = flags
        self.items_per_job = steps * batch

    def prepare(self, work: Path) -> dict:
        rng = np.random.default_rng([self.seed, self.stream])
        per_class = self.train_per_class + self.held_per_class
        x, y = _clusters(rng, self.n_classes, per_class, self.sigma)
        train = _first_of_each_class(per_class, self.train_per_class, y.size)
        data = work / "train.csv"
        _write_dataset(data, x[train], y[train])
        return {"data": data, "held_x": x[~train], "held_y": y[~train]}

    def job(self, inputs: dict, out: Path, steps) -> dict:
        with _step_timer(steps):
            _cli(["train", "--data", inputs["data"], *self.flags, "--iterations", self.steps,
                  "--seed", self.seed, "--out-dir", out, "--tag", "job"])
        return {}

    def check(self, inputs: dict, out: Path):
        problems = []
        run_dir = _only("job-*", out)
        lines = (run_dir / "record.csv").read_text(encoding="utf-8").splitlines()
        losses = [float(line.split(",")[3]) for line in lines[1:]]
        if len(losses) != self.steps or not all(map(math.isfinite, losses)):
            problems.append(f"record.csv: want {self.steps} finite losses, got {losses[:3]}...")
        checkpoint = run_dir / "checkpoint.json"
        model, echo = dataio.load_checkpoint(checkpoint)
        again = out / "roundtrip.json"
        dataio.save_checkpoint(again, model, echo)
        if again.read_bytes() != checkpoint.read_bytes():
            problems.append("checkpoint changed bytes over save -> load -> save")
        emb = model.embed(inputs["held_x"])
        return problems, evalkit.recall_at_k(emb, inputs["held_y"], [1])[1]


class EvalWorkload:
    """``pairsim eval --scatter`` on a gallery CSV, then TAR@FAR on its pairs."""

    step_name = "pairsim eval call"
    aliases = {"items_per_s": "eval_queries_per_s", "quality": "gallery_r1"}

    def __init__(self, seed, stream, n_classes, train_per_class, gallery_per_class, sigma,
                 impostors, train_flags):
        self.seed = seed
        self.stream = stream
        self.n_classes = n_classes
        self.train_per_class = train_per_class
        self.gallery_per_class = gallery_per_class
        self.sigma = sigma
        self.impostors = impostors
        self.train_flags = train_flags
        self.items_per_job = n_classes * gallery_per_class

    def prepare(self, work: Path) -> dict:
        rng = np.random.default_rng([self.seed, self.stream])
        per_class = self.train_per_class + self.gallery_per_class
        x, y = _clusters(rng, self.n_classes, per_class, self.sigma)
        train = _first_of_each_class(per_class, self.train_per_class, y.size)
        _write_dataset(work / "train.csv", x[train], y[train])
        gallery = work / "gallery.csv"
        gx, gy = x[~train], y[~train]
        _write_dataset(gallery, gx, gy)
        _cli(["train", "--data", work / "train.csv", *self.train_flags, "--seed", self.seed,
              "--out-dir", work, "--tag", "ckpt"])
        checkpoint = _only("ckpt-*/checkpoint.json", work)

        # Verification pairs: every genuine pair, a seeded sample of impostors.
        emb = _reference_embed(checkpoint, gx)
        i, j = np.triu_indices(self.gallery_per_class, k=1)
        block = self.gallery_per_class * np.arange(self.n_classes)[:, None]
        genuine = np.einsum("ij,ij->i", emb[(block + i).ravel()], emb[(block + j).ravel()])
        a = rng.integers(gy.size, size=2 * self.impostors)
        b = rng.integers(gy.size, size=2 * self.impostors)
        keep = np.flatnonzero(gy[a] != gy[b])[: self.impostors]
        a, b = a[keep], b[keep]
        impostor = np.concatenate([
            np.einsum("ij,ij->i", emb[a[i:i + PAIR_CHUNK]], emb[b[i:i + PAIR_CHUNK]])
            for i in range(0, a.size, PAIR_CHUNK)
        ])
        return {
            "checkpoint": checkpoint,
            "gallery": gallery,
            "x": gx,
            "y": gy,
            "genuine": np.clip(genuine, -1.0, 1.0),
            "impostor": np.clip(impostor, -1.0, 1.0),
        }

    def job(self, inputs: dict, out: Path, steps) -> dict:
        _timed_cli(["eval", "--checkpoint", inputs["checkpoint"], "--data", inputs["gallery"],
                    "--ks", ",".join(map(str, RECALL_KS)), "--scatter", "--out-dir", out,
                    "--tag", "job"], steps)
        tar = evalkit.tar_at_far(inputs["genuine"], inputs["impostor"], FARS)
        return {"tar_at_far": repr(sorted(tar.items()))}

    def check(self, inputs: dict, out: Path):
        problems = []
        run_dir = _only("job-*", out)
        report = json.loads((run_dir / "metrics.json").read_text(encoding="utf-8"))
        emb = _reference_embed(inputs["checkpoint"], inputs["x"])
        labels = inputs["y"]
        n = labels.size
        sim = np.clip(emb @ emb.T, -1.0, 1.0)

        # R@K: brute force per query, ties by ascending index.
        hits = {k: 0 for k in RECALL_KS}
        ties = {k: 0 for k in RECALL_KS}
        kmax = max(RECALL_KS)
        for q in range(n):
            row = sim[q].copy()
            row[q] = -np.inf
            order = np.lexsort((np.arange(n), -row))[: kmax + 1]
            same = labels[order] == labels[q]
            for k in RECALL_KS:
                hits[k] += bool(same[:k].any())
                ties[k] += row[order[k - 1]] - row[order[k]] <= TIE_EPS
        for k in RECALL_KS:
            got = report["recall_at_k"][str(k)]
            if abs(got - hits[k] / n) > ties[k] / n + 1e-12:
                problems.append(f"R@{k} = {got}, brute force gives {hits[k] / n}")

        # Hardest pair per anchor: (max sn, min sp).
        same_class = labels[:, None] == labels[None, :]
        np.fill_diagonal(same_class, False)
        diff_class = labels[:, None] != labels[None, :]
        want = np.column_stack([
            np.where(diff_class, sim, -np.inf).max(axis=1),
            np.where(same_class, sim, np.inf).min(axis=1),
        ])
        # Checked through the API: scatter.csv holds numpy reprs under numpy 2.
        model, _ = dataio.load_checkpoint(inputs["checkpoint"])
        got = evalkit.similarity_scatter(model, dataio.LabeledDataset(inputs["x"], labels)).points
        if got.shape != want.shape or np.max(np.abs(got - want)) > TIE_EPS:
            problems.append("similarity_scatter disagrees with the hardest-pair reference")

        # TAR@FAR: accept score > the (floor(far * n) + 1)-th largest impostor.
        tar = evalkit.tar_at_far(inputs["genuine"], inputs["impostor"], FARS)
        imp = inputs["impostor"]
        for far in FARS:
            rank = imp.size - 1 - int(np.floor(far * imp.size))
            threshold = np.partition(imp, rank)[rank]
            ref = float(np.mean(inputs["genuine"] > threshold))
            if tar[far] != ref:
                problems.append(f"TAR@FAR={far}: {tar[far]}, reference {ref}")
        return problems, report["rank1"]


def _closed_form(loss: str, sn: float, sp: float, gamma: float, m: float):
    """(d_sn, d_sp, loss) of the single-pair loss, written out by hand."""
    if loss == "triplet":
        value = max(0.0, sn - sp + m)
        active = 1.0 if value > HINGE_TOL else 0.0
        return active, -active, value
    if loss == "circle":
        a_n = max(sn + m, 0.0)
        a_p = max(1.0 + m - sp, 0.0)
        t = gamma * a_n * (sn - m) + -gamma * a_p * (sp - (1.0 - m))
        slope_n = gamma * (sn + m) if a_n > 0.0 else 0.0
        slope_p = gamma * (sp - 1.0 - m) if a_p > 0.0 else 0.0
    else:  # am_softmax: the K = L = 1 unified loss
        t = gamma * (sn + m) + -gamma * sp
        slope_n, slope_p = gamma, -gamma
    z = 1.0 / (1.0 + math.exp(-t)) if t >= 0.0 else math.exp(t) / (1.0 + math.exp(t))
    value = max(t, 0.0) + math.log1p(math.exp(-abs(t)))
    return z * slope_n, z * slope_p, value


class GradfieldWorkload:
    """``pairsim gradfield`` for each loss at every (gamma, m) setting."""

    step_name = "pairsim gradfield call"
    aliases = {"items_per_s": "gradfield_points_per_s", "quality": "field_match"}

    def __init__(self, seed, stream, resolution):
        self.seed = seed
        self.stream = stream
        self.resolution = resolution
        self.calls = len(GRADFIELD_LOSSES) * len(GRADFIELD_GAMMAS) * len(GRADFIELD_MARGINS)
        self.items_per_job = self.calls * resolution * resolution

    def prepare(self, work: Path) -> dict:
        rng = np.random.default_rng([self.seed, self.stream])
        # The seed only jitters m and the grid's lower edge, by 1e-3: m and
        # the grid move how many terms underflow to subnormals, which
        # changes the cost per grid point (by 8 % across seeds at 1e-2).
        settings = [
            (gamma, m + 1e-3 * float(rng.random()))
            for gamma in GRADFIELD_GAMMAS
            for m in GRADFIELD_MARGINS
        ]
        return {"settings": settings, "lo": -1e-3 * float(rng.random()), "hi": 1.0,
                "rows": rng.integers(self.resolution ** 2, size=GRADFIELD_CHECKED_ROWS)}

    def _calls(self, inputs: dict):
        for n, (gamma, m) in enumerate(inputs["settings"]):
            for loss in GRADFIELD_LOSSES:
                yield f"{loss}{n}", loss, gamma, m

    def job(self, inputs: dict, out: Path, steps) -> dict:
        for tag, loss, gamma, m in self._calls(inputs):
            # "--lo=<value>": argparse reads a lone "-5e-05" as an option.
            _timed_cli(["gradfield", "--loss", loss, f"--gamma={gamma!r}", f"--m={m!r}",
                        "--resolution", self.resolution, f"--lo={inputs['lo']!r}",
                        f"--hi={inputs['hi']!r}", "--out-dir", out, "--tag", tag], steps)
        return {}

    def check(self, inputs: dict, out: Path):
        """Every file's shape, and a seeded sample of rows against the closed form."""
        problems = []
        axis = np.linspace(inputs["lo"], inputs["hi"], self.resolution)
        matched = total = 0
        for tag, loss, gamma, m in self._calls(inputs):
            lines = _only(f"{tag}-*/gradfield.csv", out).read_text(encoding="utf-8").splitlines()
            rows = lines[1:]
            if lines[0] != "sn,sp,d_sn,d_sp,loss" or len(rows) != axis.size ** 2:
                problems.append(f"{tag}: bad header or {len(rows)} rows")
                continue
            for idx in inputs["rows"]:
                sn, sp = float(axis[idx // axis.size]), float(axis[idx % axis.size])
                want = (sn, sp, *_closed_form(loss, sn, sp, gamma, m))
                got = [float(v) for v in rows[idx].split(",")]
                total += 1
                if all(abs(g - w) <= CSV_RTOL * abs(w) + 1e-300 for g, w in zip(got, want)):
                    matched += 1
                elif len(problems) < 5:
                    problems.append(f"{tag} row {idx}: {got} vs closed form {want}")
        return problems, matched / max(total, 1)


def make(name: str, seed: int):
    """The workload called ``name``, with its inputs drawn from ``seed``."""
    if name == "train_pairwise":
        p, k = 16, 8
        return TrainWorkload(
            seed, 1, n_classes=64, train_per_class=16, held_per_class=16, sigma=0.15,
            steps=100, batch=p * k,
            flags=["--loss", "circle", "--paradigm", "pair_wise", "--gamma", "80",
                   "--m", "0.25", "--lr", "0.3", "--p-classes", p, "--k-samples", k,
                   "--embed-dim", "32", "--hidden", "64"],
        )
    if name == "train_classlevel":
        batch = 256
        return TrainWorkload(
            seed, 2, n_classes=1000, train_per_class=4, held_per_class=2, sigma=0.1,
            steps=40, batch=batch,
            flags=["--loss", "am_softmax", "--paradigm", "class_level", "--gamma", "30",
                   "--m", "0.35", "--lr", "0.5", "--batch-size", batch, "--embed-dim", "32"],
        )
    if name == "retrieval_eval":
        return EvalWorkload(
            seed, 3, n_classes=250, train_per_class=8, gallery_per_class=8, sigma=0.13,
            impostors=200_000,
            train_flags=["--loss", "circle", "--paradigm", "pair_wise", "--gamma", "80",
                         "--m", "0.25", "--lr", "0.3", "--iterations", "30",
                         "--p-classes", "16", "--k-samples", "8", "--embed-dim", "32"],
        )
    if name == "gradfield":
        return GradfieldWorkload(seed, 4, resolution=31)
    raise ValueError(f"unknown workload {name!r}")


NAMES = ("train_pairwise", "train_classlevel", "retrieval_eval", "gradfield")

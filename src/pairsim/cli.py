"""Command-line front end: gen | train | eval | gradfield | sweep.

Every subcommand is deterministic given its flags and input files, and
run outputs land in a directory named by the user tag plus a hash of the
resolved configuration, so reruns overwrite their own artifacts byte for
byte. The directory is made only once the command's work has succeeded.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys
from dataclasses import asdict, fields
from pathlib import Path

from . import dataio, engine, evalkit, geometry

__all__ = ["main", "build_parser"]


class _UsageError(Exception):
    """A malformed command line; ``main`` reports it as one error:usage: line."""


class _Parser(argparse.ArgumentParser):
    """Raises _UsageError where argparse would print usage and exit 2.

    The subcommand parsers are of this class too.
    """

    def error(self, message):
        raise _UsageError(message)


def _config_hash(config: dict) -> str:
    blob = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:8]


def _run_dir(out_dir: str, tag: str, config: dict) -> Path:
    path = Path(out_dir) / f"{tag}-{_config_hash(config)}"
    path.mkdir(parents=True, exist_ok=True)
    with open(path / "config.json", "w", encoding="utf-8") as fh:
        json.dump(config, fh, sort_keys=True, indent=1)
        fh.write("\n")
    return path


def _check_config_value(action: argparse.Action, key: str, value) -> None:
    """Reject a config value that the flag's own parser could not produce."""
    kind = bool if action.nargs == 0 else (action.type or str)
    allowed = (int, float) if kind is float else (kind,)
    ok = (value is None and action.default is None and not action.required) or (
        isinstance(value, allowed) and isinstance(value, bool) == (kind is bool)
    )
    if not ok or (action.choices is not None and value not in action.choices):
        raise ValueError(f"config key {key!r}: {value!r} is not a valid value")


def _apply_config_file(args: argparse.Namespace, parser: argparse.ArgumentParser) -> None:
    if getattr(args, "config", None):
        with open(args.config, "r", encoding="utf-8") as fh:
            overrides = json.load(fh)
        if not isinstance(overrides, dict):
            raise ValueError("config file must hold a JSON object")
        (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        actions = {a.dest: a for a in subparsers.choices[args.command]._actions}
        for key, value in overrides.items():
            if key not in actions or key == "help":
                raise ValueError(f"unknown config key {key!r}")
            _check_config_value(actions[key], key, value)
            setattr(args, key, value)


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--out-dir", default="runs")
    sub.add_argument("--tag", default=None, help="run directory name prefix")
    sub.add_argument("--config", default=None, help="JSON file overriding flags")


def _add_train_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--loss", default="circle", choices=engine.LOSS_IDS)
    sub.add_argument("--paradigm", default="pair_wise", choices=["class_level", "pair_wise"])
    sub.add_argument("--gamma", type=float, default=256.0)
    sub.add_argument("--m", type=float, default=0.25)
    sub.add_argument("--lr", type=float, default=0.05)
    sub.add_argument("--iterations", type=int, default=200)
    sub.add_argument("--batch-size", type=int, default=32)
    sub.add_argument("--p-classes", type=int, default=8)
    sub.add_argument("--k-samples", type=int, default=4)
    sub.add_argument("--embed-dim", type=int, default=32)
    sub.add_argument("--hidden", type=int, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="pairsim")
    subs = parser.add_subparsers(dest="command", required=True)

    gen = subs.add_parser("gen", help="generate a synthetic cluster dataset")
    gen.add_argument("--classes", type=int, required=True)
    gen.add_argument("--per-class", type=int, required=True)
    gen.add_argument("--dim", type=int, required=True)
    gen.add_argument("--sigma", type=float, default=0.1)
    gen.add_argument("--center-scale", type=float, default=1.0)
    gen.add_argument("-o", "--output", required=True)
    _add_common(gen)

    train = subs.add_parser("train", help="train an embedding model")
    train.add_argument("--data", required=True)
    _add_train_flags(train)
    _add_common(train)

    ev = subs.add_parser("eval", help="score a checkpoint on a dataset")
    ev.add_argument("--checkpoint", required=True)
    ev.add_argument("--data", required=True)
    ev.add_argument("--ks", default="1,2,4,8", help="comma-separated R@K values")
    ev.add_argument("--scatter", action="store_true", help="also write hardest-pair scatter CSV")
    _add_common(ev)

    gf = subs.add_parser("gradfield", help="emit a single-pair gradient-field CSV")
    gf.add_argument("--loss", default="circle", choices=["triplet", "am_softmax", "circle"])
    gf.add_argument("--gamma", type=float, default=256.0)
    gf.add_argument("--m", type=float, default=0.25)
    gf.add_argument("--resolution", type=int, default=101)
    gf.add_argument("--lo", type=float, default=0.0)
    gf.add_argument("--hi", type=float, default=1.0)
    _add_common(gf)

    sw = subs.add_parser("sweep", help="train once per hyper-parameter value")
    sw.add_argument("--data", required=True)
    sw.add_argument("--axis", required=True, choices=["gamma", "m"])
    sw.add_argument("--values", required=True, help="comma-separated values")
    _add_train_flags(sw)
    _add_common(sw)

    return parser


# main's parser, built on its first call and reused: parse_args returns a new
# Namespace each time and leaves the parser as it was.
_parser = functools.cache(build_parser)


def _train_config(args) -> engine.TrainConfig:
    """The TrainConfig of the flags named after its fields; lr_schedule keeps its default."""
    names = {f.name for f in fields(engine.TrainConfig)}
    return engine.TrainConfig(**{k: v for k, v in vars(args).items() if k in names})


def _cmd_gen(args) -> None:
    spec = dataio.ClusterSpec(
        n_classes=args.classes,
        per_class=args.per_class,
        dim=args.dim,
        center_scale=args.center_scale,
        noise_sigma=args.sigma,
        seed=args.seed,
    )
    dataio.save_dataset(args.output, dataio.gen_clusters(spec))
    print(f"wrote {args.output}: {args.classes * args.per_class} rows")


def _cmd_train(args) -> None:
    dataset = dataio.load_dataset(args.data)
    config = _train_config(args)
    record = engine.train(dataset, config)
    echo = asdict(config)
    echo["data"] = args.data
    run_dir = _run_dir(args.out_dir, args.tag or f"train-{args.loss}", echo)
    dataio.save_checkpoint(run_dir / "checkpoint.json", record.model, echo)
    dataio.save_record(run_dir / "record.csv", record)
    print(f"wrote {run_dir}/checkpoint.json and record.csv")


def _cmd_eval(args) -> None:
    dataset = dataio.load_dataset(args.data)
    model, _ = dataio.load_checkpoint(args.checkpoint, expect_din=dataset.features.shape[1])
    ks = [int(v) for v in args.ks.split(",") if v]
    emb = model.embed(dataset.features)
    report = evalkit.MetricsReport(recall_at_k=evalkit.recall_at_k(emb, dataset.labels, ks))
    report.rank1 = report.recall_at_k.get(1)
    if args.scatter:
        points = report.pair_scatter = evalkit.similarity_scatter(model, dataset).points
        if points.size:
            report.concentration = (float(points.mean()), float(points.var(axis=0).sum()))
    echo = {"checkpoint": args.checkpoint, "data": args.data, "ks": ks, "scatter": args.scatter}
    run_dir = _run_dir(args.out_dir, args.tag or "eval", echo)
    if args.scatter:
        evalkit.write_scatter_csv(run_dir / "scatter.csv", points)
    evalkit.write_report_csv(run_dir / "metrics.csv", report)
    evalkit.write_report_json(run_dir / "metrics.json", report)
    print(f"wrote {run_dir}/metrics.csv")


def _cmd_gradfield(args) -> None:
    grid = geometry.GridSpec(
        sn_range=(args.lo, args.hi), sp_range=(args.lo, args.hi), resolution=args.resolution
    )
    echo = {
        "loss": args.loss,
        "gamma": args.gamma,
        "m": args.m,
        "resolution": args.resolution,
        "lo": args.lo,
        "hi": args.hi,
    }
    rows = geometry.gradient_field(args.loss, args.gamma, args.m, grid)
    run_dir = _run_dir(args.out_dir, args.tag or f"gradfield-{args.loss}", echo)
    geometry.write_gradient_field_csv(run_dir / "gradfield.csv", rows)
    print(f"wrote {run_dir}/gradfield.csv")


def _cmd_sweep(args) -> None:
    dataset = dataio.load_dataset(args.data)
    values = [float(v) for v in args.values.split(",") if v]
    config = _train_config(args)
    rows = evalkit.sweep(dataset, config, args.axis, values)
    echo = asdict(config)
    echo.update({"data": args.data, "axis": args.axis, "values": values})
    run_dir = _run_dir(args.out_dir, args.tag or f"sweep-{args.axis}", echo)
    evalkit.write_sweep_csv(run_dir / "sweep.csv", args.axis, rows)
    print(f"wrote {run_dir}/sweep.csv")


_COMMANDS = {
    "gen": _cmd_gen,
    "train": _cmd_train,
    "eval": _cmd_eval,
    "gradfield": _cmd_gradfield,
    "sweep": _cmd_sweep,
}


def main(argv=None) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
        _apply_config_file(args, parser)
        _COMMANDS[args.command](args)
    except _UsageError as exc:
        print(f"error:usage:{exc}", file=sys.stderr)
        return 1
    except (ValueError, RuntimeError, OverflowError) as exc:
        print(f"error:invalid-input:{exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error:memory:{exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error:io:{exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

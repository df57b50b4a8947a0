import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pairsim import cli, dataio, engine, geometry
from pairsim.cli import build_parser, main


@pytest.fixture(scope="module")
def data_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "toy.csv"
    rc = main(
        [
            "gen",
            "--classes", "4",
            "--per-class", "6",
            "--dim", "8",
            "--sigma", "0.05",
            "--seed", "3",
            "-o", str(path),
        ]
    )
    assert rc == 0
    return path


def run_dirs(out_dir):
    return sorted(p for p in out_dir.iterdir() if p.is_dir())


def _strict_json(text):
    """json.loads that refuses NaN, Infinity and -Infinity, which are not JSON."""

    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    return json.loads(text, parse_constant=reject)


class TestGen:
    def test_writes_csv(self, data_csv):
        lines = data_csv.read_text().splitlines()
        assert lines[0] == "label,f0,f1,f2,f3,f4,f5,f6,f7"
        assert len(lines) == 25

    def test_deterministic(self, tmp_path, data_csv):
        other = tmp_path / "again.csv"
        rc = main(
            [
                "gen", "--classes", "4", "--per-class", "6", "--dim", "8",
                "--sigma", "0.05", "--seed", "3", "-o", str(other),
            ]
        )
        assert rc == 0
        assert other.read_bytes() == data_csv.read_bytes()

    def test_missing_output_flag(self, capsys):
        assert main(["gen", "--classes", "4", "--per-class", "6", "--dim", "8"]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error:usage:the following arguments are required: -o/--output\n"
        assert captured.out == ""


class TestUsageErrors:
    """A malformed command line exits 1 with one error:usage: line and no
    usage block; --help still prints the usage and exits 0."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["train", "--data", "x.csv", "--iterations", "abc"],
             "argument --iterations: invalid int value: 'abc'"),
            (["bogus"], "argument command: invalid choice: 'bogus'"),
            (["train", "--iterations", "3"], "the following arguments are required: --data"),
            (["sweep", "--data", "x.csv", "--axis", "lr", "--values", "1"],
             "argument --axis: invalid choice: 'lr'"),
        ],
    )
    def test_one_error_line(self, capsys, argv, message):
        assert main(argv) == 1
        captured = capsys.readouterr()
        (line,) = captured.err.splitlines()
        assert line.startswith("error:usage:" + message)
        assert captured.out == ""

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["train", "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: pairsim train")


class TestTrain:
    def test_end_to_end_and_byte_identical_rerun(self, tmp_path, data_csv):
        argv = [
            "train",
            "--data", str(data_csv),
            "--loss", "circle",
            "--gamma", "64",
            "--m", "0.25",
            "--lr", "0.1",
            "--iterations", "25",
            "--p-classes", "3",
            "--k-samples", "3",
            "--embed-dim", "8",
            "--seed", "7",
            "--out-dir", str(tmp_path / "runs"),
        ]
        assert main(argv) == 0
        (run_dir,) = run_dirs(tmp_path / "runs")
        first = {
            name: (run_dir / name).read_bytes()
            for name in ("config.json", "checkpoint.json", "record.csv")
        }
        assert main(argv) == 0
        assert run_dirs(tmp_path / "runs") == [run_dir]
        for name, blob in first.items():
            assert (run_dir / name).read_bytes() == blob

    def test_record_header(self, tmp_path, data_csv):
        out = tmp_path / "runs"
        assert main(
            [
                "train", "--data", str(data_csv), "--iterations", "5",
                "--p-classes", "3", "--k-samples", "3", "--embed-dim", "8",
                "--out-dir", str(out),
            ]
        ) == 0
        (run_dir,) = run_dirs(out)
        lines = (run_dir / "record.csv").read_text().splitlines()
        assert lines[0] == "iter,mean_sp,mean_sn,loss,lr"
        assert len(lines) == 6

    def test_class_level_with_a_huge_label(self, tmp_path, data_csv):
        # One class-weight row per distinct label, not per label value.
        lines = data_csv.read_text().splitlines()
        lines[1] = "1000000000000," + lines[1].split(",", 1)[1]
        data = tmp_path / "huge.csv"
        data.write_text("\n".join(lines) + "\n")
        out = tmp_path / "runs"
        assert main(["train", "--data", str(data), "--paradigm", "class_level",
                     "--loss", "am_softmax", "--iterations", "3", "--batch-size", "8",
                     "--embed-dim", "4", "--out-dir", str(out)]) == 0
        (run_dir,) = run_dirs(out)
        doc = json.loads((run_dir / "checkpoint.json").read_text())
        assert doc["n_classes"] == 5 and len(doc["class_weights"]) == 5

    def test_config_file_overrides(self, tmp_path, data_csv):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"iterations": 3, "loss": "am_softmax"}))
        out = tmp_path / "runs"
        assert main(
            [
                "train", "--data", str(data_csv), "--iterations", "50",
                "--p-classes", "3", "--k-samples", "3", "--embed-dim", "8",
                "--out-dir", str(out), "--config", str(cfg),
            ]
        ) == 0
        (run_dir,) = run_dirs(out)
        echo = json.loads((run_dir / "config.json").read_text())
        assert echo["iterations"] == 3
        assert echo["loss"] == "am_softmax"

    def test_unknown_config_key(self, tmp_path, data_csv, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"warp_factor": 9}))
        rc = main(
            [
                "train", "--data", str(data_csv), "--out-dir", str(tmp_path / "r"),
                "--config", str(cfg),
            ]
        )
        assert rc == 1
        assert capsys.readouterr().err.startswith("error:invalid-input:")

    @pytest.mark.parametrize(
        "override",
        [{"iterations": "5"}, {"lr": True}, {"hidden": 2.5}, {"loss": "arcface"}, {"data": None}],
    )
    def test_config_value_of_wrong_type(self, tmp_path, data_csv, capsys, override):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(override))
        rc = main(
            [
                "train", "--data", str(data_csv), "--out-dir", str(tmp_path / "r"),
                "--config", str(cfg),
            ]
        )
        assert rc == 1
        assert capsys.readouterr().err.startswith("error:invalid-input:config key")

    def test_config_file_not_an_object(self, tmp_path, data_csv, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[3]")
        rc = main(["train", "--data", str(data_csv), "--config", str(cfg)])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error:invalid-input:config file")

    def test_missing_data_file(self, tmp_path, capsys):
        rc = main(["train", "--data", str(tmp_path / "nope.csv"), "--out-dir", str(tmp_path)])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error:io:")

    def test_invalid_loss_lists_choices(self, capsys):
        assert main(["train", "--data", "x.csv", "--loss", "arcface"]) == 1
        captured = capsys.readouterr()
        (line,) = captured.err.splitlines()
        assert line.startswith("error:usage:argument --loss: invalid choice: 'arcface'")
        assert "circle" in line and "am_softmax" in line
        assert captured.out == ""

    @pytest.mark.parametrize("command", [["train"], ["sweep", "--axis", "m", "--values", "0.1"]])
    def test_class_level_zero_batch_size(self, tmp_path, data_csv, capsys, command):
        out = tmp_path / "r"
        rc = main(
            [*command, "--data", str(data_csv), "--paradigm", "class_level",
             "--batch-size", "0", "--out-dir", str(out)]
        )
        assert rc == 1
        (line,) = capsys.readouterr().err.splitlines()
        assert line == "error:invalid-input:class_level mode needs batch size >= 1"
        assert not out.exists()


@pytest.fixture(scope="module")
def checkpoint(tmp_path_factory, data_csv):
    out = tmp_path_factory.mktemp("trainrun")
    assert main(
        [
            "train", "--data", str(data_csv), "--gamma", "64", "--lr", "0.2",
            "--iterations", "60", "--p-classes", "4", "--k-samples", "4",
            "--embed-dim", "8", "--seed", "1", "--out-dir", str(out),
        ]
    ) == 0
    (run_dir,) = run_dirs(out)
    return run_dir / "checkpoint.json"


@pytest.fixture(scope="module")
def huge_inputs(tmp_path_factory, checkpoint):
    """A checkpoint whose w1 entries are all 1e308, and a dataset of ones."""
    root = tmp_path_factory.mktemp("huge")
    doc = json.loads(checkpoint.read_text())
    doc["w1"] = [[1e308] * 8] * 8
    huge = root / "huge.json"
    huge.write_text(json.dumps(doc))
    ones = root / "ones.csv"
    rows = [f"{i % 2}," + ",".join(["1"] * 8) for i in range(6)]
    ones.write_text("\n".join(["label," + ",".join(f"f{i}" for i in range(8)), *rows]) + "\n")
    return huge, ones


class TestEval:
    def test_metrics_files(self, tmp_path, data_csv, checkpoint):
        out = tmp_path / "evalrun"
        assert main(
            [
                "eval", "--checkpoint", str(checkpoint), "--data", str(data_csv),
                "--ks", "1,2", "--scatter", "--out-dir", str(out),
            ]
        ) == 0
        (run_dir,) = run_dirs(out)
        lines = (run_dir / "metrics.csv").read_text().splitlines()
        assert lines[0] == "metric,key,value"
        assert any(line.startswith("recall_at_k,1,") for line in lines)
        doc = json.loads((run_dir / "metrics.json").read_text())
        assert set(doc["recall_at_k"]) == {"1", "2"}
        scatter = (run_dir / "scatter.csv").read_text().splitlines()
        assert scatter[0] == "sn_max,sp_min"
        assert len(scatter) == 25

    def test_scatter_fields_are_plain_floats(self, tmp_path, data_csv, checkpoint):
        out = tmp_path / "evalrun"
        assert main(
            [
                "eval", "--checkpoint", str(checkpoint), "--data", str(data_csv),
                "--ks", "1", "--scatter", "--out-dir", str(out),
            ]
        ) == 0
        (run_dir,) = run_dirs(out)
        for line in (run_dir / "scatter.csv").read_text().splitlines()[1:]:
            assert [float(field) for field in line.split(",")]

    def test_empty_ks(self, tmp_path, data_csv, checkpoint, capsys):
        rc = main(
            ["eval", "--checkpoint", str(checkpoint), "--data", str(data_csv),
             "--ks", "", "--out-dir", str(tmp_path / "r")]
        )
        assert rc == 1
        assert capsys.readouterr().err.startswith("error:invalid-input:")

    def test_checkpoint_missing_key(self, tmp_path, data_csv, checkpoint, capsys):
        doc = json.loads(checkpoint.read_text())
        del doc["w2"]
        broken = tmp_path / "broken.json"
        broken.write_text(json.dumps(doc))
        rc = main(
            ["eval", "--checkpoint", str(broken), "--data", str(data_csv),
             "--out-dir", str(tmp_path / "r")]
        )
        assert rc == 1
        assert capsys.readouterr().err.startswith("error:invalid-input:")

    @pytest.mark.parametrize(
        "key, value",
        [
            ("w1", [1.0, 2.0]),
            ("w1", [[[1.0] * 8] * 8]),
            ("w1", []),
            ("w1", [[float("nan")] * 8] * 8),
            ("w1", [[float("inf")] * 8] * 8),
            ("w2", [[1.0, 2.0]]),
            ("w2", [1.0] * 8),
            ("class_weights", [[1.0, 2.0, 3.0]]),
        ],
    )
    def test_checkpoint_bad_array(self, tmp_path, data_csv, checkpoint, capsys, key, value):
        # The fixture's model is linear, 8 -> 8: w2 needs 8 columns, as do
        # the class weights. Non-finite weights are refused, not scored.
        doc = json.loads(checkpoint.read_text())
        doc[key] = value
        broken = tmp_path / "broken.json"
        broken.write_text(json.dumps(doc))
        rc = main(
            ["eval", "--checkpoint", str(broken), "--data", str(data_csv),
             "--out-dir", str(tmp_path / "r")]
        )
        assert rc == 1
        assert capsys.readouterr().err.startswith(f"error:invalid-input:checkpoint {key}")
        assert not (tmp_path / "r").exists()

    def test_scatter_without_usable_anchor_is_strict_json(self, tmp_path, checkpoint):
        singletons = tmp_path / "singletons.csv"
        assert main(
            ["gen", "--classes", "6", "--per-class", "1", "--dim", "8", "--seed", "2",
             "-o", str(singletons)]
        ) == 0
        out = tmp_path / "evalrun"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(
                ["eval", "--checkpoint", str(checkpoint), "--data", str(singletons),
                 "--ks", "1", "--scatter", "--out-dir", str(out)]
            )
        assert rc == 0
        (run_dir,) = run_dirs(out)
        doc = _strict_json((run_dir / "metrics.json").read_text())
        assert doc["concentration"] is None
        assert doc["n_scatter_points"] == 0
        assert doc["recall_at_k"] == {"1": 0.0}
        metrics = (run_dir / "metrics.csv").read_text()
        assert "concentration" not in metrics and "nan" not in metrics
        assert (run_dir / "scatter.csv").read_text() == "sn_max,sp_min\n"

    def test_dimension_mismatch(self, tmp_path, checkpoint, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("label,f0,f1\n0,1.0,0.0\n1,0.0,1.0\n")
        rc = main(
            ["eval", "--checkpoint", str(checkpoint), "--data", str(bad),
             "--ks", "1", "--out-dir", str(tmp_path / "r")]
        )
        assert rc == 1
        assert "error:invalid-input:" in capsys.readouterr().err


def _run_quietly(argv):
    """main(argv) with its output captured; returns (exit code, stderr)."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        rc = main(argv)
    return rc, err.getvalue()


def _assert_clean_exit(rc, err):
    assert rc in (0, 1)
    if rc == 1:
        assert err.startswith("error:")
    assert "Traceback" not in err


def _drop_key(doc, key, data):
    del doc[key]


def _as_matrix(value):
    try:
        arr = np.array(value, dtype=np.float64)
    except (TypeError, ValueError):
        return None
    return arr if arr.ndim == 2 and arr.size else None


def _reshape(doc, key, data):
    arr = _as_matrix(doc[key])
    if arr is not None:
        shapes = {
            "flatten": arr.ravel(),
            "transpose": arr.T,
            "drop_row": arr[1:],
            "drop_col": arr[:, 1:],
            "wrap": arr[None],
        }
        doc[key] = shapes[data.draw(st.sampled_from(sorted(shapes)))].tolist()


def _non_finite(doc, key, data):
    arr = _as_matrix(doc[key])
    if arr is not None:
        arr.flat[data.draw(st.integers(0, arr.size - 1))] = data.draw(
            st.sampled_from([np.nan, np.inf, -np.inf])
        )
        doc[key] = arr.tolist()


def _retype(doc, key, data):
    doc[key] = data.draw(
        st.one_of(
            st.none(),
            st.booleans(),
            st.integers(-3, 3),
            st.floats(allow_nan=False),
            st.text(max_size=3),
            st.lists(st.text(max_size=2), max_size=3),
            st.dictionaries(st.text(max_size=2), st.integers(), max_size=2),
        )
    )


class TestCheckpointFuzz:
    """Drop keys, reshape arrays, insert NaN or inf, or change a value's
    type: eval ends with exit 0, or exit 1 and an error: line, never with
    an exception."""

    KEYS = ["format", "din", "embed_dim", "hidden", "n_classes", "w1", "w2",
            "class_weights", "config"]

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_mutated_checkpoint_never_tracebacks(self, data_csv, checkpoint, data):
        doc = json.loads(checkpoint.read_text())
        # A hidden layer and class weights give every array key an array to mutate.
        doc.update(hidden=8, w2=np.eye(8).tolist(), n_classes=2,
                   class_weights=[[0.5] * 8, [-0.5] * 8])
        for _ in range(data.draw(st.integers(1, 3))):
            key = data.draw(st.sampled_from([k for k in self.KEYS if k in doc]))
            mutate = data.draw(st.sampled_from([_drop_key, _reshape, _non_finite, _retype]))
            mutate(doc, key, data)
        with tempfile.TemporaryDirectory() as work:
            mutant = f"{work}/mutant.json"
            with open(mutant, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
            rc, err = _run_quietly(
                ["eval", "--checkpoint", mutant, "--data", str(data_csv), "--ks", "1,2",
                 "--scatter", "--out-dir", f"{work}/runs"]
            )
        _assert_clean_exit(rc, err)


TRAIN_SMALL = ["--iterations", "2", "--p-classes", "2", "--k-samples", "2", "--embed-dim", "4",
               "--batch-size", "8"]

CSV_CELLS = st.one_of(
    st.sampled_from(["nan", "-inf", "inf", "1e999", "", " ", "x", "0x1", "1,5", "--1", "+2"]),
    st.text(max_size=4),
)
CSV_LABELS = st.sampled_from(
    ["-1", "1.5", "2.0", "1e3", " 1", "", "a", str(2**62), str(2**63), str(2**64), "-0"]
)


def _csv_mutations(lines, data):
    """Apply one random edit, in place, to the lines of a dataset CSV."""
    row = data.draw(st.integers(1, len(lines) - 1)) if len(lines) > 1 else 0
    cells = lines[row].split(",")
    col = data.draw(st.integers(0, len(cells) - 1))
    kind = data.draw(st.sampled_from(
        ["drop_cell", "drop_column", "extra_cell", "extra_column", "cell", "label",
         "header", "blank_line", "drop_rows"]
    ))
    if kind == "drop_cell":
        del cells[col]
        lines[row] = ",".join(cells)
    elif kind == "drop_column":
        lines[:] = [",".join(c for j, c in enumerate(line.split(",")) if j != col)
                    for line in lines]
    elif kind == "extra_cell":
        lines[row] += "," + data.draw(CSV_CELLS)
    elif kind == "extra_column":
        lines[:] = [lines[0] + ",extra"] + [line + ",0.5" for line in lines[1:]]
    elif kind == "cell":
        cells[col] = data.draw(CSV_CELLS)
        lines[row] = ",".join(cells)
    elif kind == "label":
        cells[0] = data.draw(CSV_LABELS)
        lines[row] = ",".join(cells)
    elif kind == "header":
        lines[0] = data.draw(st.sampled_from(
            ["", "label", "lab,f0", "f0,label", lines[0] + ",f99", lines[0].rsplit(",", 1)[0]]
        ))
    elif kind == "blank_line":
        lines.insert(data.draw(st.integers(0, len(lines))), "")
    else:
        del lines[data.draw(st.integers(1, len(lines))):]


class TestDatasetCsvFuzz:
    """Drop or add cells and columns, write non-numeric, NaN or inf cells,
    negative, float or oversized labels, edit the header or add blank
    lines: train in either paradigm ends with exit 0, or exit 1 and an
    error: line."""

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_mutated_dataset_never_tracebacks(self, data_csv, data):
        lines = data_csv.read_text().splitlines()
        for _ in range(data.draw(st.integers(1, 3))):
            _csv_mutations(lines, data)
        paradigm = data.draw(st.sampled_from(["pair_wise", "class_level"]))
        with tempfile.TemporaryDirectory() as work:
            mutant = f"{work}/mutant.csv"
            with open(mutant, "w", encoding="utf-8") as fh:
                fh.write("\n".join(lines) + "\n")
            rc, err = _run_quietly(
                ["train", "--data", mutant, *TRAIN_SMALL, "--paradigm", paradigm,
                 "--out-dir", f"{work}/runs"]
            )
        _assert_clean_exit(rc, err)


CONFIG_VALUES = st.one_of(
    st.sampled_from(
        [None, True, False, 0, 1, 2, 3, -1, 0.0, 0.5, -0.5, 1e308, math.nan, math.inf,
         -math.inf, "", "circle", "am_softmax", "triplet", "class_level", "pair_wise", [1], {}]
    ),
    st.integers(-3, 3),
    st.floats(),
    st.text(max_size=3),
)
NOT_AN_OBJECT = ["[1, 2]", "3", "null", '"iterations"', "", "{", '{"iterations": 2,}']


class TestConfigFuzz:
    """Give train flags values of the wrong type, add unknown keys or
    replace the document with a non-object: train ends with exit 0, or
    exit 1 and an error: line."""

    # The run-directory keys are left out: a fuzzed path could point anywhere.
    KEYS = sorted(
        set(vars(build_parser().parse_args(["train", "--data", "x"])))
        - {"out_dir", "tag", "config"}
    ) + ["unknown", "", "Iterations", "batch-size"]

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_mutated_config_never_tracebacks(self, data_csv, data):
        doc = {"iterations": 2, "gamma": 64.0}
        for _ in range(data.draw(st.integers(1, 3))):
            doc[data.draw(st.sampled_from(self.KEYS))] = data.draw(CONFIG_VALUES)
        text = json.dumps(doc)
        if data.draw(st.integers(0, 3)) == 0:
            text = data.draw(st.sampled_from(NOT_AN_OBJECT))
        with tempfile.TemporaryDirectory() as work:
            config = f"{work}/config.json"
            with open(config, "w", encoding="utf-8") as fh:
                fh.write(text)
            rc, err = _run_quietly(
                ["train", "--data", str(data_csv), *TRAIN_SMALL, "--config", config,
                 "--out-dir", f"{work}/runs"]
            )
        _assert_clean_exit(rc, err)


# Sizes are small, or ask for more than the 2^47-byte address space (so the
# allocation fails at once), or overflow numpy's C integers: never in between.
HUGE = [str(2**50), str(2**70)]
JUNK = ["", "x", "-1", "0", "1.5", "nan", "1e400", "--"]
INTS = st.sampled_from(["1", "2", "3", "-2", *JUNK])
SIZES = st.sampled_from(["1", "2", "3", *HUGE, *JUNK])
FLOATS = st.sampled_from(["0", "1", "-1", "0.25", "64", "inf", "-inf", "1e308", "-1e308", *JUNK])
LISTS = st.sampled_from(["1,2", "32,64", "0.1", ",", "1,x", str(2**70), *JUNK])
TRAIN_FLAGS = {
    "--loss": st.sampled_from(["circle", "am_softmax", "normface", "softmax", "triplet",
                               "unified", "bogus"]),
    "--paradigm": st.sampled_from(["pair_wise", "class_level", "bogus"]),
    "--gamma": FLOATS, "--m": FLOATS, "--lr": FLOATS, "--iterations": SIZES,
    "--batch-size": SIZES, "--p-classes": SIZES, "--k-samples": SIZES,
    "--embed-dim": SIZES, "--hidden": SIZES,
}
SEEDS = st.sampled_from(["0", "-1", str(2**70), *JUNK])
COMMON_FLAGS = {"--tag": st.sampled_from(["t", "", "a b", "x/y"]), "--bogus": INTS}
ARGV_FLAGS = {
    "gen": {"--classes": SIZES, "--per-class": SIZES, "--dim": SIZES, "--sigma": FLOATS,
            "--center-scale": FLOATS, "--seed": SEEDS},
    "train": {**TRAIN_FLAGS, "--seed": SEEDS},
    "eval": {"--ks": LISTS, "--scatter": st.just(None)},
    "gradfield": {"--loss": st.sampled_from(["circle", "am_softmax", "triplet", "softmax"]),
                  "--gamma": FLOATS, "--m": FLOATS, "--resolution": SIZES, "--lo": FLOATS,
                  "--hi": FLOATS},
    # --axis lr is a usage error before any code runs: TestUsageErrors covers it.
    "sweep": {**TRAIN_FLAGS, "--seed": SEEDS, "--axis": st.sampled_from(["gamma", "m"]),
              "--values": LISTS},
    "bogus": {},
}


class TestArgvFuzz:
    """Draw a subcommand and flags with junk, negative, NaN, 1e400 and
    over-address-space values: main ends with exit 0, no stderr and only
    strict JSON files, or exit 1, one error: line, no numpy warning and no
    run directory."""

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_fuzzed_argv_exits_cleanly(self, data_csv, checkpoint, huge_inputs, data):
        command = data.draw(st.sampled_from(sorted(ARGV_FLAGS)))
        flags = {**ARGV_FLAGS[command], **COMMON_FLAGS}
        huge, ones = huge_inputs
        with tempfile.TemporaryDirectory() as work:
            out = Path(work) / "runs"
            # The required flags and small sizes first; the fuzzed flags override them.
            base = {
                "gen": ["--classes", "2", "--per-class", "2", "--dim", "2", "-o", f"{work}/g.csv"],
                "train": ["--data", str(data_csv), *TRAIN_SMALL],
                "eval": ["--checkpoint", str(data.draw(st.sampled_from([checkpoint, huge, ones]))),
                         "--data", str(data.draw(st.sampled_from([data_csv, ones])))],
                "gradfield": ["--resolution", "3"],
                "sweep": ["--data", str(data_csv), "--axis", "m", "--values", "0.1,0.2",
                          *TRAIN_SMALL],
                "bogus": [],
            }[command]
            if base and data.draw(st.integers(0, 4)) == 0:
                base = base[data.draw(st.integers(1, len(base))):]
            argv = [command, *base]
            chosen = data.draw(st.lists(st.sampled_from(sorted(flags)), max_size=4))
            if "--loss" in flags:
                # Every loss meets a drawn gamma or m, including the losses that ignore them.
                scale_margin = st.lists(st.sampled_from(["--gamma", "--m"]), min_size=1,
                                        max_size=2, unique=True)
                chosen = ["--loss", *data.draw(scale_margin), *chosen]
            for flag in chosen:
                value = data.draw(flags[flag])
                argv += [flag] if value is None else [flag, value]
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                rc, err = _run_quietly([*argv, "--out-dir", str(out)])
            assert caught == [], argv
            if rc == 0:
                assert err == "", argv
                for path in out.rglob("*.json"):
                    _strict_json(path.read_text())
            else:
                assert rc == 1, argv
                (line,) = err.splitlines()
                assert line.startswith("error:"), argv
                assert not out.exists(), argv


class TestGradfield:
    def test_csv_shape(self, tmp_path):
        out = tmp_path / "gf"
        assert main(
            [
                "gradfield", "--loss", "circle", "--gamma", "64", "--m", "0.25",
                "--resolution", "11", "--out-dir", str(out),
            ]
        ) == 0
        (run_dir,) = run_dirs(out)
        lines = (run_dir / "gradfield.csv").read_text().splitlines()
        assert lines[0] == "sn,sp,d_sn,d_sp,loss"
        assert len(lines) == 122

    def test_bad_resolution(self, tmp_path, capsys):
        rc = main(["gradfield", "--resolution", "1", "--out-dir", str(tmp_path)])
        assert rc == 1
        assert "resolution" in capsys.readouterr().err

    @pytest.mark.parametrize("bound", ["--lo=-inf", "--hi=inf", "--lo=nan", "--hi=nan"])
    def test_non_finite_range(self, tmp_path, capsys, bound):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main(["gradfield", bound, "--resolution", "5", "--out-dir", str(tmp_path)])
        assert rc == 1
        assert caught == []
        err = capsys.readouterr().err
        assert err.startswith("error:invalid-input:grid sn_range")
        assert err.count("\n") == 1
        assert not any(tmp_path.iterdir())


    @pytest.mark.parametrize("loss, bound", [("circle", "1e300"), ("am_softmax", "1e306")])
    def test_overflowing_range(self, tmp_path, capsys, loss, bound):
        # Finite, but gamma times a score overflows: refused, not scored as NaN.
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main(["gradfield", "--loss", loss, f"--lo=-{bound}", f"--hi={bound}",
                       "--resolution", "5", "--out-dir", str(tmp_path)])
        assert rc == 1
        assert caught == []
        err = capsys.readouterr().err
        assert err.startswith(f"error:invalid-input:the {loss} field at gamma 256.0 overflows")
        assert err.count("\n") == 1
        assert not any(tmp_path.iterdir())


class TestSweep:
    def test_two_values(self, tmp_path, data_csv):
        out = tmp_path / "sw"
        assert main(
            [
                "sweep", "--data", str(data_csv), "--axis", "gamma",
                "--values", "32,64", "--iterations", "20", "--p-classes", "3",
                "--k-samples", "3", "--embed-dim", "8", "--out-dir", str(out),
            ]
        ) == 0
        (run_dir,) = run_dirs(out)
        lines = (run_dir / "sweep.csv").read_text().splitlines()
        assert lines[0] == "gamma,recall_at_1"
        assert len(lines) == 3
        assert [float(line.split(",")[0]) for line in lines[1:]] == [32.0, 64.0]

    def test_echo_leaves_out_the_axis_base_value(self, tmp_path, data_csv):
        # The base --gamma is unused when gamma is the axis: both runs are one run.
        out = tmp_path / "sw"
        for gamma in ("256", "128"):
            assert main(
                [
                    "sweep", "--data", str(data_csv), "--axis", "gamma", "--values", "32,64",
                    "--gamma", gamma, *TRAIN_SMALL, "--out-dir", str(out),
                ]
            ) == 0
        (run_dir,) = run_dirs(out)
        echo = json.loads((run_dir / "config.json").read_text())
        assert "gamma" not in echo
        assert (echo["axis"], echo["values"], echo["m"]) == ("gamma", [32.0, 64.0], 0.25)

    def test_empty_values(self, tmp_path, data_csv, capsys):
        rc = main(
            ["sweep", "--data", str(data_csv), "--axis", "m", "--values", ",",
             "--out-dir", str(tmp_path)]
        )
        assert rc == 1
        assert "at least one value" in capsys.readouterr().err


class TestNoRunDirOnFailure:
    """A command that fails exits 1 with one error line and makes no run directory."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["train", "--paradigm", "class_level", "--batch-size", "50"],
             "class_level batch size 50 > 24 dataset rows"),
            (["sweep", "--axis", "m", "--values", "0.1", "--paradigm", "class_level",
              "--batch-size", "50"], "class_level batch size 50 > 24 dataset rows"),
            (["train", "--p-classes", "6"], "need 6 classes, dataset has 4"),
            (["sweep", "--axis", "m", "--values", "0.1", "--p-classes", "6"],
             "need 6 classes, dataset has 4"),
        ],
        ids=["train-batch-size", "sweep-batch-size", "train-p-classes", "sweep-p-classes"],
    )
    def test_training_fails(self, tmp_path, data_csv, capsys, argv, message):
        out = tmp_path / "r"
        rc = main([*argv, "--data", str(data_csv), "--iterations", "3", "--out-dir", str(out)])
        assert rc == 1
        (line,) = capsys.readouterr().err.splitlines()
        assert line == "error:invalid-input:" + message
        assert not out.exists()

    def test_eval_embedding_fails(self, tmp_path, data_csv, huge_inputs, capsys):
        # Every raw embedding entry is finite (at most about 1.5e308); the norms are not.
        huge, _ = huge_inputs
        out = tmp_path / "r"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main(["eval", "--checkpoint", str(huge), "--data", str(data_csv),
                       "--scatter", "--out-dir", str(out)])
        assert rc == 1
        assert caught == []
        (line,) = capsys.readouterr().err.splitlines()
        assert line == "error:invalid-input:degenerate feature: embedding norm overflows float64"
        assert not out.exists()

    def test_eval_overflowing_matmul_fails(self, tmp_path, huge_inputs, capsys):
        # A dataset of ones: the embedding entries themselves overflow to inf.
        huge, ones = huge_inputs
        out = tmp_path / "r"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main(["eval", "--checkpoint", str(huge), "--data", str(ones),
                       "--out-dir", str(out)])
        assert rc == 1
        assert caught == []
        (line,) = capsys.readouterr().err.splitlines()
        assert line == "error:invalid-input:degenerate feature: non-finite embedding"
        assert not out.exists()

    # Every size asks for more than the 2^47-byte address space, so the
    # allocation fails at once; 2^70 does not fit numpy's C integers.
    @pytest.mark.parametrize(
        "argv, prefix",
        [
            (["gradfield", "--resolution", "10000000"],
             "error:memory:Unable to allocate 728. TiB"),
            (["train", "--data", "{data}", "--embed-dim", str(2**50)],
             "error:memory:Unable to allocate 64.0 PiB"),
            (["gen", "--classes", "2", "--per-class", str(2**70), "--dim", "2",
              "-o", "{out}/x.csv"], "error:invalid-input:"),
        ],
        ids=["gradfield-resolution", "train-embed-dim", "gen-per-class"],
    )
    def test_size_fails(self, tmp_path, data_csv, capsys, argv, prefix):
        out = tmp_path / "r"
        argv = [a.format(data=data_csv, out=out) for a in argv]
        assert main([*argv, "--out-dir", str(out)]) == 1
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith(prefix)
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["gen", "--classes", "2", "--per-class", "2", "--dim", "2", "--center-scale", "1e308",
             "-o", "{out}/x.csv"],
            ["train", "--data", "{data}", "--gamma", "1e308", "--iterations", "8",
             "--p-classes", "2", "--k-samples", "2", "--embed-dim", "4"],
        ],
        ids=["gen-center-scale", "train-gamma"],
    )
    def test_overflow_fails_without_warning(self, tmp_path, data_csv, capsys, argv):
        out = tmp_path / "r"
        argv = [a.format(data=data_csv, out=out) for a in argv]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main([*argv, "--out-dir", str(out)])
        assert rc == 1
        assert caught == []
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("error:invalid-input:")
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["train", "--data", "{data}", *TRAIN_SMALL, "--loss", "triplet", "--gamma", "nan"],
             "gamma must be positive and finite"),
            (["train", "--data", "{data}", *TRAIN_SMALL, "--loss", "softmax", "--m", "inf"],
             "m must be finite"),
            (["gradfield", "--resolution", "3", "--loss", "triplet", "--gamma", "nan"],
             "gamma must be positive and finite"),
            (["gradfield", "--resolution", "3", "--loss", "triplet", "--gamma", "-3"],
             "gamma must be positive and finite"),
            (["sweep", "--data", "{data}", *TRAIN_SMALL, "--loss", "triplet", "--axis", "gamma",
              "--values", "nan"], "gamma must be positive and finite"),
        ],
        ids=["train-triplet-gamma-nan", "train-softmax-m-inf", "gradfield-triplet-gamma-nan",
             "gradfield-triplet-gamma-negative", "sweep-triplet-gamma-nan"],
    )
    def test_scale_or_margin_refused_for_every_loss(self, tmp_path, data_csv, capsys, argv,
                                                    message):
        # A loss that ignores gamma or m still refuses a bad one: NaN and
        # Infinity would otherwise be echoed into config.json, which is not JSON.
        out = tmp_path / "r"
        argv = [a.format(data=data_csv) for a in argv]
        assert main([*argv, "--out-dir", str(out)]) == 1
        (line,) = capsys.readouterr().err.splitlines()
        assert line == "error:invalid-input:" + message
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, what",
        [
            (["eval", "--checkpoint", "{data}", "--data", "{data}"], "checkpoint"),
            (["train", "--config", "{data}", "--data", "{data}"], "config file"),
        ],
        ids=["eval-checkpoint", "train-config"],
    )
    def test_file_not_json_named(self, tmp_path, data_csv, capsys, argv, what):
        # A CSV where a JSON file belongs: the error names that file and its role.
        out = tmp_path / "r"
        argv = [a.format(data=data_csv) for a in argv]
        assert main([*argv, "--out-dir", str(out)]) == 1
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith(f"error:invalid-input:{what} {data_csv} is not JSON: ")
        assert not out.exists()


class TestRunDirNaming:
    def test_tag_prefix_and_hash_stability(self, tmp_path):
        out = tmp_path / "gf"
        argv = [
            "gradfield", "--loss", "triplet", "--m", "0.3", "--resolution", "5",
            "--tag", "demo", "--out-dir", str(out),
        ]
        assert main(argv) == 0
        (first,) = run_dirs(out)
        assert first.name.startswith("demo-")
        assert len(first.name) == len("demo-") + 8
        assert main(argv) == 0
        assert run_dirs(out) == [first]


class TestFlagsFollowTheLibrary:
    """A flag takes its default from the library parameter it sets, a command
    takes only the flags it reads, and a config value is what its flag parses."""

    def test_defaults_are_the_library_defaults(self):
        parse = build_parser().parse_args
        assert cli._train_config(parse(["train", "--data", "x"])) == engine.TrainConfig()
        gen = parse(["gen", "--classes", "2", "--per-class", "1", "--dim", "1", "-o", "x"])
        spec = dataio.ClusterSpec(2, 1, 1)
        assert (gen.sigma, gen.center_scale, gen.seed) == (
            spec.noise_sigma, spec.center_scale, spec.seed)
        gf, grid = parse(["gradfield"]), geometry.GridSpec()
        assert (gf.resolution, (gf.lo, gf.hi), (gf.lo, gf.hi)) == (
            grid.resolution, grid.sn_range, grid.sp_range)

    @pytest.mark.parametrize("command", ["eval", "gradfield"])
    def test_seed_refused_where_nothing_reads_it(self, tmp_path, data_csv, checkpoint, capsys,
                                                 command):
        base = {"eval": ["--checkpoint", str(checkpoint), "--data", str(data_csv)],
                "gradfield": ["--resolution", "3"]}[command]
        out = tmp_path / "r"
        assert main([command, *base, "--seed", "1", "--out-dir", str(out)]) == 1
        (line,) = capsys.readouterr().err.splitlines()
        assert line == "error:usage:unrecognized arguments: --seed 1"
        assert not out.exists()

    def test_eval_config_seed_is_an_unknown_key(self, tmp_path, data_csv, checkpoint, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 1}))
        out = tmp_path / "r"
        assert main(["eval", "--checkpoint", str(checkpoint), "--data", str(data_csv),
                     "--config", str(cfg), "--out-dir", str(out)]) == 1
        (line,) = capsys.readouterr().err.splitlines()
        assert line == "error:invalid-input:unknown config key 'seed'"
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, flags, twin",
        [
            (["train", "--data", "{data}", *TRAIN_SMALL], ["--gamma", "64", "--lr", "1"],
             {"gamma": 64, "lr": 1}),
            (["gradfield"], ["--gamma", "64", "--resolution", "5", "--lo", "0", "--hi", "1"],
             {"gamma": 64, "resolution": 5, "lo": 0, "hi": 1}),
        ],
        ids=["train", "gradfield"],
    )
    def test_config_twin_lands_in_the_flag_run_directory(self, tmp_path, data_csv, argv, flags,
                                                         twin):
        # JSON integers for float flags resolve to the config the flags give.
        out = tmp_path / "r"
        argv = [a.format(data=data_csv) for a in argv]
        assert main([*argv, *flags, "--out-dir", str(out)]) == 0
        flag_run = _tree(out)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(twin))
        assert main([*argv, "--config", str(cfg), "--out-dir", str(out)]) == 0
        assert _tree(out) == flag_run

    def test_integer_past_float_range_refused(self, tmp_path, data_csv, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"gamma": 10**400}))
        out = tmp_path / "r"
        assert main(["train", "--data", str(data_csv), *TRAIN_SMALL, "--config", str(cfg),
                     "--out-dir", str(out)]) == 1
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("error:invalid-input:")
        assert not out.exists()


def _run_alone(argv, cwd):
    """``pairsim argv`` in a fresh interpreter; returns (exit code, stderr)."""
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run(
        [sys.executable, "-c", "import sys; from pairsim.cli import main; sys.exit(main())", *argv],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
    )
    return proc.returncode, proc.stderr


def _tree(root):
    return {str(p.relative_to(root)): p.read_bytes() for p in root.rglob("*") if p.is_file()}


class TestParserReuse:
    """main builds its parser once per process; reuse changes no result."""

    def test_build_parser_returns_a_new_parser(self):
        assert build_parser() is not build_parser()
        assert cli._parser() is not build_parser()

    def test_main_builds_the_parser_once(self, tmp_path):
        cli._parser.cache_clear()
        argv = ["gradfield", "--resolution", "3", "--out-dir", str(tmp_path)]
        for _ in range(3):
            assert main(argv) == 0
        info = cli._parser.cache_info()
        assert (info.misses, info.hits) == (1, 2)

    def test_call_sequence_matches_fresh_processes(self, tmp_path, data_csv):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"loss": "am_softmax", "gamma": 32.0, "resolution": 7}))
        calls = [
            ["gradfield", "--m", "0.35", "--config", str(cfg), "--tag", "override"],
            ["gradfield", "--tag", "plain"],
            ["gradfield", "--resolution", "many"],
            ["train", "--data", str(data_csv), "--iterations", "5", "--p-classes", "3",
             "--k-samples", "3", "--embed-dim", "8", "--seed", "2"],
        ]
        usage = "error:usage:argument --resolution: invalid int value: 'many'\n"
        expected = [(0, ""), (0, ""), (1, usage), (0, "")]
        cli._parser()  # every call below reuses one parser
        misses = cli._parser.cache_info().misses
        for i, (argv, want) in enumerate(zip(calls, expected)):
            inproc, alone = tmp_path / f"in{i}", tmp_path / f"alone{i}"
            rc, err = _run_quietly([*argv, "--out-dir", str(inproc)])
            assert (rc, err) == want
            assert _run_alone([*argv, "--out-dir", str(alone)], tmp_path) == want
            if rc == 0:
                assert _tree(inproc) == _tree(alone)
            else:
                assert not inproc.exists() and not alone.exists()
        assert cli._parser.cache_info().misses == misses
        (override,) = (tmp_path / "in0").iterdir()
        (plain,) = (tmp_path / "in1").iterdir()
        assert json.loads((override / "config.json").read_text()) == {
            "loss": "am_softmax", "gamma": 32.0, "m": 0.35, "resolution": 7, "lo": 0.0, "hi": 1.0,
        }
        assert json.loads((plain / "config.json").read_text()) == {
            "loss": "circle", "gamma": 256.0, "m": 0.25, "resolution": 101, "lo": 0.0, "hi": 1.0,
        }

import configparser
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from masknet.cli import (
    _SECTIONS,
    _TRAIN_FLAGS,
    DataConfig,
    RunConfig,
    _parse_value,
    _run_config,
    build_parser,
    build_run_config,
    _out_dir,
    main,
    parse_config_file,
)
from masknet.data import SyntheticSpec, gen_synthetic
from masknet.errors import ConfigError
from masknet.evaluate import relaimp
from masknet.maskblock import Ablation
from masknet.model import TOPOLOGIES, ModelSpec
from masknet.train import TrainConfig
from oracles import o_dataset_to_csv

TINY_CONFIG = """
[data]
source = synthetic
fields = 3
vocab = 4
latent_dim = 2
instances = 300
logit_scale = 3.0

[model]
topology = dnn
blocks = 2
width = 6
embed_dim = 4

[train]
batch_size = 64
learning_rate = 0.003
epochs = 2
patience = 2

[run]
seed = 3
out_dir = {out}
"""


def write_config(tmp_path, out_name="run1", text=TINY_CONFIG):
    cfg = tmp_path / "run.ini"
    cfg.write_text(text.format(out=tmp_path / out_name))
    return cfg


def config_with(tmp_path, section, key, value):
    """TINY_CONFIG with one key set (added or replaced)."""
    cp = configparser.ConfigParser(interpolation=None)
    cp.read_string(TINY_CONFIG.format(out=tmp_path / "run1"))
    cp[section][key] = value
    cfg = tmp_path / "run.ini"
    with open(cfg, "w") as fh:
        cp.write(fh)
    return cfg


def test_gen_synth_writes_files_and_is_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    args = ["gen-synth", "--fields", "3", "--vocab", "5", "--instances", "200", "--seed", "9"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    for name in ("data.csv", "schema.txt", "manifest.txt"):
        assert (a / name).is_file()
        assert (a / name).read_bytes() == (b / name).read_bytes()
    manifest = (a / "manifest.txt").read_text()
    assert "bayes_auc_test=" in manifest and "marginal_auc_test=" in manifest


def test_gen_synth_scale_zero_chance_rate(tmp_path):
    out = tmp_path / "zero"
    assert main(["gen-synth", "--scale", "0", "--instances", "20000", "--out", str(out)]) == 0
    man = dict(
        line.split("=", 1) for line in (out / "manifest.txt").read_text().splitlines() if "=" in line
    )
    assert 0.49 <= float(man["positive_rate"]) <= 0.51


def test_gen_synth_bad_sizes_is_usage_error(tmp_path):
    assert main(["gen-synth", "--fields", "1", "--out", str(tmp_path / "x")]) == 2


@pytest.mark.parametrize("instances, seed", [(10, 2), (30, 2), (12, 1)])
def test_gen_synth_undefined_auc_writes_nothing(tmp_path, capsys, instances, seed):
    """A split with one label class exits 3 before the output directory exists."""
    out = tmp_path / "x"
    assert main(["gen-synth", "--instances", str(instances), "--seed", str(seed), "--out", str(out)]) == 3
    assert "AUC undefined" in capsys.readouterr().err
    assert not out.exists()


def test_gen_synth_full_size_csv_matches_row_by_row_writer(tmp_path):
    """Several blocks of rows and 10,001-entry token tables, byte for byte."""
    assert main(["gen-synth", "--instances", "20000", "--vocab", "10000", "--seed", "3", "--out", str(tmp_path)]) == 0
    full = gen_synthetic(SyntheticSpec(instances=20000, vocab=10000, seed=3))
    assert (tmp_path / "data.csv").read_bytes() == o_dataset_to_csv(full, ",").encode()


def test_train_command_writes_outputs(tmp_path):
    cfg = write_config(tmp_path)
    assert main(["train", "--config", str(cfg)]) == 0
    out = tmp_path / "run1"
    for name in ("checkpoint.ckpt", "history.csv", "eval_report.txt"):
        assert (out / name).is_file(), name
    report = (out / "eval_report.txt").read_text()
    assert "test.auc=" in report and "valid.auc=" in report


def test_train_flag_overrides(tmp_path):
    cfg = write_config(tmp_path, out_name="run2")
    code = main(
        ["train", "--config", str(cfg), "--topology", "serial", "--blocks", "1",
         "--width", "4", "--epochs", "1", "--out", str(tmp_path / "run2")]
    )
    assert code == 0
    report = (tmp_path / "run2" / "eval_report.txt").read_text()
    assert "topology=serial" in report and "blocks=1" in report


# flag, value, and where the value lands in the RunConfig
FLAG_CASES = [
    ("--topology", "parallel", lambda c: c.model.topology, "parallel"),
    ("--blocks", "2", lambda c: c.model.block_widths, (64, 64)),
    ("--width", "7", lambda c: c.model.block_widths, (7, 7, 7)),
    ("--embedding-dim", "5", lambda c: c.model.embed_dim, 5),
    ("--reduction-ratio", "3", lambda c: c.model.reduction, 3),
    ("--ablate", "no_ln,no_ffn", lambda c: c.model.ablation, Ablation(no_ln=True, no_ffn=True)),
    ("--epochs", "3", lambda c: c.train.epochs, 3),
    ("--batch-size", "32", lambda c: c.train.batch_size, 32),
    ("--learning-rate", "0.25", lambda c: c.train.learning_rate, 0.25),
    ("--l2", "1e-05", lambda c: c.train.l2, 1e-5),
    ("--seed", "9", lambda c: (c.seed, c.model.seed, c.train.seed), (9, 9, 9)),
    ("--out", "somewhere/else", lambda c: c.out_dir, "somewhere/else"),
]


def test_every_train_flag_has_a_case():
    assert [case[0] for case in FLAG_CASES] == list(_TRAIN_FLAGS)


@pytest.mark.parametrize("command", ["train", "ablation", "sweep"])
@pytest.mark.parametrize("flag, value, read, expected", FLAG_CASES, ids=[case[0] for case in FLAG_CASES])
def test_flag_overrides_its_key(tmp_path, command, flag, value, read, expected):
    sweep_args = ["--param", "blocks", "--values", "1"] if command == "sweep" else []
    empty = tmp_path / "run.ini"
    empty.write_text("")
    args = build_parser().parse_args([command, "--config", str(empty), flag, value] + sweep_args)
    assert read(_run_config(args)) == expected
    assert read(build_run_config({})) != expected  # the flag, not the default, set it


def test_unknown_config_key_is_usage_error(tmp_path):
    cfg = tmp_path / "bad.ini"
    cfg.write_text("[model]\ntopolgy = serial\n")
    assert main(["train", "--config", str(cfg)]) == 2


def test_unknown_section_is_usage_error(tmp_path):
    cfg = tmp_path / "bad2.ini"
    cfg.write_text("[extras]\nfoo = 1\n")
    assert main(["train", "--config", str(cfg)]) == 2


def test_missing_config_is_usage_error(tmp_path):
    assert main(["train", "--config", str(tmp_path / "nope.ini")]) == 2


def test_undefined_metric_exit_code(tmp_path):
    cfg = write_config(tmp_path, out_name="run3")
    code = main(["train", "--config", str(cfg), "--baseline-auc", "0.4", "--epochs", "1"])
    assert code == 3
    assert not (tmp_path / "run3" / "checkpoint.ckpt").exists()


@pytest.mark.parametrize("value", ["0.5", "nan", "inf", "1.5", "-0.7"])
def test_baseline_auc_outside_its_range_exits_before_training(tmp_path, capsys, value, monkeypatch):
    def no_training(*args, **kwargs):
        raise AssertionError("trained with an invalid baseline")

    monkeypatch.setattr("masknet.cli.run_experiment", no_training)
    cfg = write_config(tmp_path)
    assert main(["train", "--config", str(cfg), "--baseline-auc", value]) == 3
    assert "error: RelaImp undefined" in capsys.readouterr().err
    assert not (tmp_path / "run1").exists()


@pytest.mark.parametrize("value", ["0.6", "1.0"])
def test_train_report_with_baseline(tmp_path, value):
    cfg = write_config(tmp_path)
    assert main(["train", "--config", str(cfg), "--baseline-auc", value, "--baseline-name", "fm"]) == 0
    report = dict(line.split("=", 1) for line in (tmp_path / "run1" / "eval_report.txt").read_text().splitlines())
    assert report["test.baseline"] == "fm"
    assert report["test.baseline_auc"] == f"{float(value):.6f}"
    assert report["test.relaimp_pct"] == f"{relaimp(float(report['test.auc']), float(value)):+.2f}"
    assert "valid.baseline" not in report


def test_usage_error_exits_two():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_gradcheck_command():
    assert main(["gradcheck"]) == 0


def test_inspect_mask_command(tmp_path):
    text = TINY_CONFIG.replace("topology = dnn", "topology = serial")
    cfg = write_config(tmp_path, out_name="run4", text=text)
    assert main(["train", "--config", str(cfg)]) == 0
    out = tmp_path / "run4"
    bad = ["inspect-mask", "--checkpoint", str(out / "checkpoint.ckpt"), "--config", str(cfg), "--examples", "-1"]
    assert main(bad + ["--out", str(tmp_path / "insp_bad")]) == 3  # was a silent [:-1] slice
    assert not (tmp_path / "insp_bad").exists()
    code = main(
        ["inspect-mask", "--checkpoint", str(out / "checkpoint.ckpt"), "--config", str(cfg),
         "--sample", "100", "--examples", "2", "--out", str(tmp_path / "insp")]
    )
    assert code == 0
    for b in (1, 2):
        assert (tmp_path / "insp" / f"mask_hist_block{b}.txt").is_file()
    assert (tmp_path / "insp" / "mask_examples.txt").is_file()


def test_inspect_mask_rejects_maskless_checkpoint(tmp_path):
    cfg = write_config(tmp_path, out_name="run5")
    assert main(["train", "--config", str(cfg)]) == 0
    code = main(
        ["inspect-mask", "--checkpoint", str(tmp_path / "run5" / "checkpoint.ckpt"),
         "--config", str(cfg), "--out", str(tmp_path / "insp5")]
    )
    assert code == 1  # dnn checkpoint has no mask units


def inspect_mutated_checkpoint(tmp_path, mutate, out=None):
    """Exit code of inspect-mask on a saved 2-block serial model whose header
    `mutate` has edited in place, and the checkpoint's path."""
    from masknet.data import SyntheticSpec, gen_synthetic
    from masknet.model import Model, save_checkpoint

    schema = gen_synthetic(SyntheticSpec(fields=3, vocab=4, instances=20)).schema
    path = tmp_path / "model.ckpt"
    save_checkpoint(Model(ModelSpec(block_widths=(3, 3), embed_dim=2), schema), str(path))
    header_line, payload = path.read_bytes().split(b"\n", 1)
    header = json.loads(header_line)
    mutate(header)
    path.write_bytes(json.dumps(header).encode() + b"\n" + payload)
    cfg = write_config(tmp_path)
    return main(["inspect-mask", "--checkpoint", str(path), "--config", str(cfg), "--out", str(out or tmp_path / "i")]), path


def test_inspect_mask_rejects_header_without_schema(tmp_path, capsys):
    code, _ = inspect_mutated_checkpoint(tmp_path, lambda h: h.pop("schema"))
    assert code == 1
    err = capsys.readouterr().err
    assert "'schema'" in err and "Traceback" not in err


# (what is broken, how, the message's tail)
HEADER_MUTATIONS = [
    ("spec_extra_key", lambda h: h["spec"].update(extra=1), "header.spec has unknown entry 'extra'"),
    ("spec_not_object", lambda h: h.update(spec=[1, 2]), "header.spec is not an object"),
    ("spec_no_ablation", lambda h: h["spec"].pop("ablation"), "header.spec has no entry 'ablation'"),
    ("schema_entry_no_kind", lambda h: h["schema"][0].pop("kind"), "header.schema[0] has no entry 'kind'"),
    ("schema_not_list", lambda h: h.update(schema={"c1": "categorical"}), "header.schema is not a list"),
    ("array_entry_no_shape", lambda h: h["arrays"][2].pop("shape"), "header.arrays[2] has no entry 'shape'"),
    ("string_block_widths", lambda h: h["spec"].update(block_widths="3"), "header.spec.block_widths is not a list"),
    ("spec_no_topology", lambda h: h["spec"].pop("topology"), "header.spec has no entry 'topology'"),
]


@pytest.mark.parametrize("mutate, message", [m[1:] for m in HEADER_MUTATIONS], ids=[m[0] for m in HEADER_MUTATIONS])
def test_inspect_mask_rejects_malformed_header(tmp_path, capsys, mutate, message):
    code, path = inspect_mutated_checkpoint(tmp_path, mutate)
    assert code == 1
    assert capsys.readouterr().err == f"error: {path}: checkpoint {message}\n"


def test_train_names_the_line_of_an_oversized_csv_cell(tmp_path, capsys):
    rows = [f"c{i % 3},{i}.5,{i % 2}" for i in range(12)]
    rows[2] = "x" * 200_000 + ",2.5,0"  # line 4, past the csv module's 131072-character field limit
    (tmp_path / "data.csv").write_text("c1,x1,label\n" + "\n".join(rows) + "\n")
    (tmp_path / "schema.txt").write_text("c1,categorical\nx1,numerical\nlabel,label\n")
    cfg = tmp_path / "csv.ini"
    cfg.write_text(
        f"[data]\nsource = csv\npath = {tmp_path / 'data.csv'}\nschema = {tmp_path / 'schema.txt'}\n"
        f"[run]\nout_dir = {tmp_path / 'out'}\n"
    )
    assert main(["train", "--config", str(cfg)]) == 1
    assert capsys.readouterr().err == "error: line 4: field larger than field limit (131072)\n"
    assert not (tmp_path / "out").exists()


def one_error_line(capsys) -> str:
    """The run's stderr, required to be one `error:` line and no traceback."""
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err, err
    return err


def test_inspect_mask_missing_checkpoint_exits_two_before_the_config(tmp_path, capsys):
    missing = tmp_path / "nope.ckpt"
    argv = ["inspect-mask", "--checkpoint", str(missing), "--out", str(tmp_path / "i")]
    for cfg in (write_config(tmp_path), tmp_path / "nope.ini"):
        assert main(argv + ["--config", str(cfg)]) == 2
        assert one_error_line(capsys) == f"error: checkpoint file not found: {missing}\n"
    assert not (tmp_path / "i").exists()


# (command, the arguments after the config or output flag) for every command
# that writes into an output directory
OUT_COMMANDS = [
    ("train", []),
    ("ablation", []),
    ("sweep", ["--param", "blocks", "--values", "1,2"]),
    ("gen-synth", []),
    ("inspect-mask", []),
]


@pytest.mark.parametrize("nested", [False, True], ids=["file", "under_file"])
@pytest.mark.parametrize("command, extra", OUT_COMMANDS, ids=[c[0] for c in OUT_COMMANDS])
def test_output_path_that_is_a_file_exits_two_before_any_work(tmp_path, capsys, monkeypatch, command, extra, nested):
    def no_work(*args, **kwargs):
        raise AssertionError("loaded data for an unusable output path")

    for name in ("load_splits", "gen_synthetic", "load_checkpoint", "run_experiment"):
        monkeypatch.setattr(f"masknet.cli.{name}", no_work)
    taken = tmp_path / "taken"
    taken.write_text("keep")
    out = taken / "run" if nested else taken
    cfg = write_config(tmp_path)
    if command == "gen-synth":
        argv = ["gen-synth", "--out", str(out)]
    elif command == "inspect-mask":
        (tmp_path / "model.ckpt").write_bytes(b"")
        argv = ["inspect-mask", "--checkpoint", str(tmp_path / "model.ckpt"), "--config", str(cfg), "--out", str(out)]
    else:
        argv = [command, "--config", str(cfg), "--out", str(out), *extra]
    assert main(argv) == 2
    assert one_error_line(capsys).startswith(f"error: output directory {out}")
    assert taken.read_text() == "keep"
    assert {p.name for p in tmp_path.iterdir()} <= {"run.ini", "taken", "model.ckpt"}


def test_sweep_value_directory_that_is_a_file_exits_two(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("masknet.cli.load_splits", lambda cfg: pytest.fail("loaded data"))
    cfg = write_config(tmp_path, out_name="sw")
    (tmp_path / "sw").mkdir()
    (tmp_path / "sw" / "sweep_blocks_2").write_text("")
    assert main(["sweep", "--config", str(cfg), "--param", "blocks", "--values", "1,2"]) == 2
    assert one_error_line(capsys) == f"error: output directory {tmp_path / 'sw' / 'sweep_blocks_2'}: " \
        f"{tmp_path / 'sw' / 'sweep_blocks_2'} is not a directory\n"


# (command, arguments after the config, one file the command writes, relative
# to its output directory); the test makes that file a directory first
OUT_FILES = [
    ("train", [], "checkpoint.ckpt"),
    ("ablation", [], "ablation_detail.txt"),
    ("sweep", ["--param", "blocks", "--values", "1,2"], "sweep_blocks_2/history.csv"),
    ("sweep", ["--param", "blocks", "--values", "1,2"], "sweep_blocks_summary.txt"),
    ("gen-synth", [], "manifest.txt"),
    ("inspect-mask", [], "mask_hist_block2.txt"),
]


@pytest.mark.parametrize("command, extra, name", OUT_FILES, ids=[f"{c}-{n}" for c, _, n in OUT_FILES])
def test_output_file_that_is_a_directory_exits_two_before_any_work(tmp_path, capsys, monkeypatch, command, extra, name):
    for func in ("load_splits", "gen_synthetic", "run_experiment"):
        monkeypatch.setattr(f"masknet.cli.{func}", lambda *a, **k: pytest.fail("did work for an unwritable output file"))
    out = tmp_path / "run1"
    (out / name).mkdir(parents=True)
    if command == "inspect-mask":
        code, _ = inspect_mutated_checkpoint(tmp_path, lambda header: None, out=out)
    elif command == "gen-synth":
        code = main(["gen-synth", "--out", str(out)])
    else:
        code = main([command, "--config", str(write_config(tmp_path)), *extra])
    assert code == 2
    assert one_error_line(capsys) == f"error: output file {out / name}: exists and is not a file\n"
    assert [p.name for p in out.iterdir()] == [Path(name).parts[0]]  # nothing written
    assert not any((out / name).iterdir())


def test_out_dir_turns_a_failed_mkdir_into_a_config_error(tmp_path):
    (tmp_path / "taken").write_text("")
    with pytest.raises(ConfigError, match="output directory"):
        _out_dir(tmp_path / "taken" / "run")


@pytest.mark.parametrize("broken, code", [("config", 2), ("schema", 1), ("data", 1)])
def test_undecodable_input_file_is_named(tmp_path, capsys, broken, code):
    """A \\xff byte in the config, the schema spec or the data CSV fails as
    that file's other faults do (ConfigError, SchemaError, IngestError)."""
    (tmp_path / "data.csv").write_text("c1,label\n" + "".join(f"v{i % 3},{i % 2}\n" for i in range(20)))
    (tmp_path / "schema.txt").write_text("c1,categorical\nlabel,label\n")
    cfg = tmp_path / "csv.ini"
    cfg.write_text(
        f"[data]\nsource = csv\npath = {tmp_path / 'data.csv'}\nschema = {tmp_path / 'schema.txt'}\n"
        f"[run]\nout_dir = {tmp_path / 'out'}\n"
    )
    path, bad_line = {"config": (cfg, b"# \xff"), "schema": (tmp_path / "schema.txt", b"# \xff"),
                      "data": (tmp_path / "data.csv", b"v\xff,1")}[broken]
    path.write_bytes(path.read_bytes().replace(b"\n", b"\n" + bad_line + b"\n", 1))  # after the first line
    assert main(["train", "--config", str(cfg)]) == code
    err = one_error_line(capsys)
    assert err.startswith(f"error: {path}: ") and "can't decode byte 0xff" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("flag", ["--batch-size", "--epochs"])
def test_train_zero_size_flag_is_usage_error(tmp_path, flag):
    cfg = write_config(tmp_path)
    assert main(["train", "--config", str(cfg), flag, "0"]) == 2
    assert not (tmp_path / "run1" / "checkpoint.ckpt").exists()


@pytest.mark.parametrize(
    "section, key, value",
    [
        ("train", "learning_rate", "inf"),
        ("train", "l2", "inf"),
        ("model", "ln_eps", "-1"),
        ("model", "mask_bias_init", "nan"),
        ("data", "logit_scale", "nan"),
        ("model", "top_widths", "-1"),
        ("model", "top_widths", "8,0"),
        ("data", "seed", "-2"),
        ("data", "standardize", "maybe"),
        ("train", "epochs", "2.5"),
        ("model", "top_widths", "8,x"),
    ],
)
def test_bad_value_is_usage_error_before_training(tmp_path, capsys, section, key, value):
    cfg = config_with(tmp_path, section, key, value)
    assert main(["train", "--config", str(cfg)]) == 2
    assert not (tmp_path / "run1" / "checkpoint.ckpt").exists()
    assert key in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, value", [("true", True), ("YES", True), ("1", True), ("False", False), ("no", False), ("0", False)]
)
def test_boolean_spellings(text, value):
    assert _parse_value(text, False) is value


@pytest.mark.parametrize("command", ["train", "gen-synth", "gradcheck"])
def test_negative_seed_is_usage_error(tmp_path, capsys, command):
    args = {
        "train": ["train", "--config", str(write_config(tmp_path))],
        "gen-synth": ["gen-synth", "--instances", "100", "--out", str(tmp_path / "run1")],
        "gradcheck": ["gradcheck"],
    }[command]
    assert main(args + ["--seed", "-1"]) == 2
    assert "seed must be >= 0, got -1" in capsys.readouterr().err
    assert not (tmp_path / "run1").exists()


@pytest.mark.parametrize("source", ["synthetic", "csv"])
def test_negative_run_seed_exits_before_reading_data(tmp_path, capsys, monkeypatch, source):
    for func in ("ingest_csv", "gen_synthetic"):
        monkeypatch.setattr(f"masknet.cli.{func}", lambda *a, **k: pytest.fail("read data for a negative seed"))
    if source == "csv":
        (tmp_path / "data.csv").write_text("c1,label\n" + "".join(f"v{i % 3},{i % 2}\n" for i in range(20)))
        (tmp_path / "schema.txt").write_text("c1,categorical\nlabel,label\n")
        cfg = tmp_path / "csv.ini"
        cfg.write_text(
            f"[data]\nsource = csv\npath = {tmp_path / 'data.csv'}\nschema = {tmp_path / 'schema.txt'}\n"
            f"[run]\nout_dir = {tmp_path / 'run1'}\n"
        )
    else:
        cfg = config_with(tmp_path, "data", "seed", "3")  # the data seed does not inherit the run seed
    assert main(["train", "--config", str(cfg), "--seed", "-1"]) == 2
    assert one_error_line(capsys) == "error: seed must be >= 0, got -1\n"
    assert not (tmp_path / "run1").exists()


@pytest.mark.parametrize("section, key", [("model", "dnn_bias"), ("model", "seed"), ("train", "seed")])
def test_dataclass_fields_outside_the_table_are_unknown_keys(tmp_path, section, key):
    cfg = config_with(tmp_path, section, key, "1")
    assert main(["train", "--config", str(cfg)]) == 2
    assert not (tmp_path / "run1").exists()


# Typed values that every key of the table accepts; the float range lies
# inside (0, 1), which satisfies every float key's bound.
_CHOICES = {"source": ("synthetic", "csv"), "delimiter": ("comma", "tab"), "topology": TOPOLOGIES}
_ABLATIONS = ("no_mask", "no_ln", "no_ffn")


def _typed_value(key, default):
    if key in _CHOICES:
        return st.sampled_from(_CHOICES[key])
    if key == "ablate":
        return st.lists(st.sampled_from(_ABLATIONS), unique=True).map(tuple)
    if isinstance(default, bool):
        return st.booleans()
    if isinstance(default, tuple):
        return st.lists(st.integers(1, 512), max_size=3).map(tuple)
    if isinstance(default, int):
        return st.integers(1, 100_000)
    if isinstance(default, float):
        return st.floats(min_value=1e-9, max_value=0.99)
    return st.text(alphabet="abcxyz0123456789_./-", max_size=12)


def _text(value):
    if isinstance(value, tuple):
        return ",".join(map(str, value))
    return repr(value) if isinstance(value, float) else str(value)


_CONFIGS = st.fixed_dictionaries(
    {
        section: st.fixed_dictionaries({key: _typed_value(key, d) for key, d in keys.items()})
        for section, keys in _SECTIONS.items()
    }
)


@settings(max_examples=60, deadline=None)
@given(values=_CONFIGS)
def test_config_file_round_trip(values):
    ini = "".join(
        f"[{section}]\n" + "".join(f"{key} = {_text(v)}\n" for key, v in kv.items()) for section, kv in values.items()
    )
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "run.ini"
        path.write_text(ini)
        parsed = build_run_config(parse_config_file(str(path)))
    model = dict(values["model"])
    widths = (model.pop("width"),) * model.pop("blocks")
    ablation = Ablation.from_names(model.pop("ablate"))
    seed = values["run"]["seed"]
    assert parsed == RunConfig(
        data=DataConfig(**values["data"]),
        model=ModelSpec(block_widths=widths, ablation=ablation, seed=seed, **model),
        train=TrainConfig(seed=seed, **values["train"]),
        **values["run"],
    )


@settings(max_examples=60, deadline=None)
@given(
    section=st.sampled_from(sorted(_SECTIONS)),
    key=st.sampled_from(["block_widths", "ablation", "dnn_bias", "seed"])
    | st.from_regex(r"[a-z][a-z0-9_]{0,15}", fullmatch=True),
)
def test_key_outside_the_table_exits_two(section, key):
    assume(key not in _SECTIONS[section])
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "run.ini"
        path.write_text(f"[{section}]\n{key} = 1\n")
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config_file(str(path))
        assert main(["train", "--config", str(path)]) == 2


def test_readme_lists_the_train_flags():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    listed = readme.split("CLI flags (", 1)[1].split(") override", 1)[0]
    assert [f.strip("`") for f in listed.replace(",", " ").split()] == list(_TRAIN_FLAGS)


def test_readme_config_block_lists_the_table():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("## Run configuration", 1)[1].split("```ini\n", 1)[1].split("```", 1)[0]
    listed: dict[str, dict[str, str]] = {}
    for line in block.splitlines():
        line = line.split("#", 1)[0].strip()
        if line.startswith("["):
            section = listed.setdefault(line[1:-1], {})
        elif line:
            key, value = line.split("=", 1)
            section[key.strip()] = value.strip()
    assert {s: sorted(kv) for s, kv in listed.items()} == {s: sorted(kv) for s, kv in _SECTIONS.items()}
    for s, kv in listed.items():
        for key, value in kv.items():
            default = _SECTIONS[s][key]
            parsed = _parse_value(value, default)
            assert parsed == default and type(parsed) is type(default), (s, key)


def test_sweep_command(tmp_path, monkeypatch):
    from masknet.data import gen_synthetic

    loads = []
    monkeypatch.setattr("masknet.cli.gen_synthetic", lambda spec: loads.append(spec) or gen_synthetic(spec))
    cfg = write_config(tmp_path, out_name="sweep_out")
    code = main(["sweep", "--config", str(cfg), "--param", "blocks", "--values", "1,2",
                 "--epochs", "1"])
    assert code == 0
    assert len(loads) == 1  # every value trains on the same data
    base = tmp_path / "sweep_out"
    assert (base / "sweep_blocks_summary.txt").is_file()
    # each value writes train's three files, and its report has train's keys
    assert main(["train", "--config", str(cfg), "--epochs", "1", "--out", str(tmp_path / "train")]) == 0
    keys = lambda path: [line.split("=", 1)[0] for line in path.read_text().splitlines()]
    for v in ("1", "2"):
        assert (base / f"sweep_blocks_{v}" / "checkpoint.ckpt").is_file()
        assert (base / f"sweep_blocks_{v}" / "history.csv").is_file()
        assert keys(base / f"sweep_blocks_{v}" / "eval_report.txt") == keys(tmp_path / "train" / "eval_report.txt")
    assert (base / "sweep_blocks_2" / "eval_report.txt").read_text().startswith("label=blocks=2\ntopology=dnn\nblocks=2\n")


def test_sweep_checks_every_value_before_training(tmp_path):
    cfg = write_config(tmp_path, out_name="sweep_bad")
    for values in ("1,0", "1,1", "2, 1,2", "1,01"):  # a bad value; a repeated one
        assert main(["sweep", "--config", str(cfg), "--param", "blocks", "--values", values]) == 2, values
        assert not (tmp_path / "sweep_bad").exists()


def test_ablation_command(tmp_path):
    text = TINY_CONFIG.replace("topology = dnn", "topology = serial")
    cfg = write_config(tmp_path, out_name="abl_out", text=text)
    assert main(["ablation", "--config", str(cfg), "--epochs", "1", "--width", "4"]) == 0
    table = (tmp_path / "abl_out" / "ablation_report.txt").read_text()
    assert "serial" in table and "parallel" in table
    for row in ("full", "-w/o mask", "-w/o ln", "-w/o ffn"):
        assert row in table, row


def test_train_rerun_overwrites_identically(tmp_path):
    cfg = write_config(tmp_path, out_name="rerun")
    out = tmp_path / "rerun"
    assert main(["train", "--config", str(cfg)]) == 0
    first = {n: (out / n).read_bytes() for n in ("checkpoint.ckpt", "history.csv", "eval_report.txt")}
    assert main(["train", "--config", str(cfg)]) == 0
    for name, blob in first.items():
        again = (out / name).read_bytes()
        if name == "eval_report.txt":  # wall-clock line differs by design
            strip = lambda b: b"\n".join(l for l in b.splitlines() if not l.startswith(b"train_seconds"))
            assert strip(again) == strip(blob)
        else:
            assert again == blob, name


def test_train_from_csv_source(tmp_path):
    synth = tmp_path / "synthdata"
    assert main(["gen-synth", "--fields", "3", "--vocab", "4", "--instances", "300",
                 "--seed", "4", "--out", str(synth)]) == 0
    cfg = tmp_path / "csv.ini"
    cfg.write_text(
        f"""
[data]
source = csv
path = {synth / 'data.csv'}
schema = {synth / 'schema.txt'}

[model]
topology = dnn
blocks = 1
width = 4
embed_dim = 3

[train]
batch_size = 64
epochs = 1

[run]
seed = 4
out_dir = {tmp_path / 'csvrun'}
"""
    )
    assert main(["train", "--config", str(cfg)]) == 0
    assert (tmp_path / "csvrun" / "eval_report.txt").is_file()


def test_config_defaults_materialize(tmp_path):
    cfg = tmp_path / "empty.ini"
    cfg.write_text("")
    rc = build_run_config(parse_config_file(str(cfg)))
    assert rc.model.topology == "serial"
    assert rc.model.block_widths == (64, 64, 64)
    assert rc.train.batch_size == 1024
    assert rc.train.learning_rate == 1e-4
    assert rc.data.source == "synthetic"


def test_module_entrypoint_help():
    # the checkout's src/, not an installed copy; pytest's pythonpath does not reach a subprocess
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = os.environ | {"PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "masknet.cli", "--help"], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0
    assert "gen-synth" in proc.stdout

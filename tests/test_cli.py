import dataclasses
import os
import shutil
import warnings
import xml.etree.ElementTree as ET

import pytest

from lanebev import cli, dataset
from lanebev import trainer as TR
from lanebev.cli import main
from lanebev.config import EXPERIMENT_PRESETS, load_config
from lanebev.dataset import InventoryError, ParseError
from lanebev.model import groundtruth_by_frame
from lanebev.trainer import TrainLog

MICRO_SETS = []
for kv in ("embed_dim=16", "n_heads=2", "n_sample_points=2", "n_pillar_heights=2",
           "ffn_dim=16", "n_encoder_layers=1", "n_decoder_layers=1", "n_queries=16",
           "bev_h=6", "bev_w=4", "backbone=toy-shallow", "epochs=1"):
    MICRO_SETS += ["--set", kv]


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("data") / "ds"
    assert main(["gen-data", "--scenes", "3", "--seed", "5", "--split", "2:1",
                 "--out", str(d)]) == 0
    return str(d)


def tree_bytes(root):
    out = {}
    for base, _, files in os.walk(root):
        for name in files:
            p = os.path.join(base, name)
            with open(p, "rb") as f:
                out[os.path.relpath(p, root)] = f.read()
    return out


def test_gen_data_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    for d in (a, b):
        code, _, _ = run(capsys, "gen-data", "--scenes", "2", "--seed", "7",
                         "--out", str(d))
        assert code == 0
    assert tree_bytes(a) == tree_bytes(b)


def test_gen_data_split_disjoint(data_dir):
    train = set(open(os.path.join(data_dir, "split_train.txt")).read().split())
    test = set(open(os.path.join(data_dir, "split_test.txt")).read().split())
    assert len(train) == 2 and len(test) == 1
    assert not train & test


def test_gen_data_zero_scenes(tmp_path, capsys):
    code, _, err = run(capsys, "gen-data", "--scenes", "0", "--out", str(tmp_path / "x"))
    assert code == 2
    assert "scenes" in err


def test_gen_data_bad_split(tmp_path, capsys):
    code, _, err = run(capsys, "gen-data", "--scenes", "3", "--split", "5:1",
                       "--out", str(tmp_path / "x"))
    assert code == 2
    assert not (tmp_path / "x").exists()


def test_gen_data_refuses_an_out_that_is_not_empty(tmp_path, capsys):
    d = tmp_path / "d"
    assert run(capsys, "gen-data", "--scenes", "3", "--seed", "5", "--split", "2:1",
               "--out", str(d))[0] == 0
    before = tree_bytes(d)
    code, _, err = run(capsys, "gen-data", "--scenes", "2", "--seed", "9", "--out", str(d))
    assert code == 2 and "must be a new or empty directory" in err
    assert tree_bytes(d) == before
    code, _, _ = run(capsys, "gen-data", "--scenes", "1", "--out", str(d / "manifest.txt"))
    assert code == 2


def test_gen_data_into_an_empty_directory(tmp_path, capsys):
    assert run(capsys, "gen-data", "--scenes", "1", "--out", str(tmp_path))[0] == 0
    assert [sc.scene_id for sc in dataset.load_dataset(str(tmp_path))] == ["scene_00000000"]


def test_flops_resnet50(capsys):
    code, out, _ = run(capsys, "flops", "--preset", "resnet50-shape")
    assert code == 0
    assert "total MACs" in out and "total FLOPs (2 per MAC)" in out
    macs = int(out.split("total MACs")[1].splitlines()[0].replace(",", "").strip())
    assert abs(macs - 3.8e9) / 3.8e9 < 0.15
    ratio = float(out.split("MAC ratio:")[1].strip())
    assert 1.9 <= ratio <= 2.3


def test_flops_unknown_preset(capsys):
    code, _, err = run(capsys, "flops", "--preset", "resnet101")
    assert code == 2
    assert "resnet50-shape" in err  # lists valid presets


def test_eval_oracle(data_dir, tmp_path, capsys):
    report = tmp_path / "report.txt"
    code, out, _ = run(capsys, "eval", "--data", data_dir, "--oracle",
                       "--out", str(report), *MICRO_SETS)
    assert code == 0
    assert "map = 1.000000" in out
    assert report.read_text().startswith("map = 1.000000")


@pytest.mark.parametrize("override, field", [("beta1=1.0", "beta1"), ("backbone=nope", "backbone"),
                                             ("dataset_dir=x", "dataset_dir")])
def test_train_rejects_bad_config_value(data_dir, tmp_path, capsys, override, field):
    code, _, err = run(capsys, "train", "--data", data_dir, "--out", str(tmp_path / "ck"),
                       *MICRO_SETS, "--set", override)
    assert code == 2
    assert field in err and "Traceback" not in err
    assert not (tmp_path / "ck").exists()


def test_train_rejects_polylines_unlike_n_points(data_dir, tmp_path, capsys):
    code, _, err = run(capsys, "train", "--data", data_dir, "--out", str(tmp_path / "ck"),
                       *MICRO_SETS, "--set", "n_points=4")
    assert code == 2
    assert "[10] points, but n_points = 4" in err and "Traceback" not in err
    assert not (tmp_path / "ck").exists()


def test_train_rejects_more_segments_than_queries(data_dir, tmp_path, capsys):
    code, _, err = run(capsys, "train", "--data", data_dir, "--out", str(tmp_path / "ck"),
                       *MICRO_SETS, "--set", "n_queries=1")
    assert code == 2
    assert "groundtruth segments, but n_queries = 1" in err and "Traceback" not in err
    assert not (tmp_path / "ck").exists()


def test_split_naming_unknown_scenes_rejected(data_dir, tmp_path):
    ds = tmp_path / "ds"
    shutil.copytree(data_dir, ds)
    with open(ds / "split_train.txt", "a") as f:
        f.write("scene_nope\nscene_typo\n")
    with pytest.raises(InventoryError, match="not in the dataset: scene_nope, scene_typo"):
        dataset.load_dataset(str(ds), dataset.read_split(str(ds), "train"))


def test_split_file_with_non_utf8_byte_rejected(data_dir, tmp_path):
    ds = tmp_path / "ds"
    shutil.copytree(data_dir, ds)
    split = (ds / "split_train.txt").read_bytes()
    (ds / "split_train.txt").write_bytes(split.rstrip(b"\n") + b"\xff\n")
    offset = len(split.rstrip(b"\n"))
    with pytest.raises(ParseError, match=f"split_train.txt: byte {offset}: invalid UTF-8 byte 0xff"):
        dataset.read_split(str(ds), "train")


def scenes_read(monkeypatch):
    """The directories of the PGM files read from now on, as a growing list."""
    read = []
    read_pgm = dataset._read_pgm
    monkeypatch.setattr(dataset, "_read_pgm", lambda path: read.append(
        os.path.basename(os.path.dirname(path))) or read_pgm(path))
    return read


def test_split_reads_only_its_own_scenes(data_dir, monkeypatch):
    read = scenes_read(monkeypatch)
    scenes = dataset.load_dataset(data_dir, dataset.read_split(data_dir, "test"))
    kept = open(os.path.join(data_dir, "split_test.txt")).read().split()
    assert [s.scene_id for s in scenes] == kept
    assert read and set(read) == set(kept)


def test_viz_reads_only_its_scene(data_dir, tmp_path, capsys, monkeypatch):
    scene_id = open(os.path.join(data_dir, "manifest.txt")).read().split()[-1]
    read = scenes_read(monkeypatch)
    assert run(capsys, "viz", "--data", data_dir, "--scene", scene_id,
               "--out", str(tmp_path), *MICRO_SETS)[0] == 0
    assert read and set(read) == {scene_id}


def test_missing_split_file_rejected(data_dir):
    with pytest.raises(InventoryError, match="missing split_val.txt"):
        dataset.read_split(data_dir, "val")


def logged_steps(path):
    with open(path) as f:
        return [int(row.split(",")[0]) for row in f.read().splitlines()[1:]]


def test_second_train_starts_a_new_log(data_dir, tmp_path, capsys):
    for _ in range(2):
        assert run(capsys, "train", "--data", data_dir, "--split", "train", "--out",
                   str(tmp_path), *MICRO_SETS)[0] == 0
    assert logged_steps(tmp_path / "train_log.csv") == [1, 2]


def test_resume_keeps_log_rows_up_to_its_checkpoint(data_dir, tmp_path, capsys):
    sets = [*MICRO_SETS, "--set", "epochs=2", "--set", "checkpoint_every=1"]
    assert run(capsys, "train", "--data", data_dir, "--split", "train", "--out",
               str(tmp_path), *sets)[0] == 0
    assert run(capsys, "resume", "--checkpoint", str(tmp_path / "ckpt_epoch_1.bin"),
               "--data", data_dir, "--split", "train", "--out", str(tmp_path), *sets)[0] == 0
    assert logged_steps(tmp_path / "train_log.csv") == [1, 2, 3, 4]


def test_resume_with_a_malformed_log_names_it_and_cuts_nothing(data_dir, tmp_path, capsys):
    sets = [*MICRO_SETS, "--set", "epochs=2", "--set", "checkpoint_every=1"]
    assert run(capsys, "train", "--data", data_dir, "--split", "train", "--out",
               str(tmp_path), *sets)[0] == 0
    log = tmp_path / "train_log.csv"
    header, *rows = log.read_bytes().splitlines(keepends=True)
    log.write_bytes(header + rows[0] + b"\n" + b"".join(rows[1:]))   # a blank line 3
    before = log.read_bytes()
    code, _, err = run(capsys, "resume", "--checkpoint", str(tmp_path / "ckpt_epoch_1.bin"),
                       "--data", data_dir, "--split", "train", "--out", str(tmp_path), *sets)
    assert code == 1 and f"{log}: line 3 has no step" in err
    assert log.read_bytes() == before


def test_suite_evaluates_the_test_split_of_eval_data(data_dir, tmp_path, capsys, monkeypatch):
    eval_dir = tmp_path / "ev"
    shutil.copytree(data_dir, eval_dir)
    os.remove(eval_dir / "split_train.txt")
    calls = []
    monkeypatch.setattr(cli, "run_experiment_suite",
                        lambda train_scenes, eval_scenes, cfg: calls.append(eval_scenes) or [])
    assert run(capsys, "suite", "--data", data_dir, "--eval-data", str(eval_dir),
               *MICRO_SETS)[0] == 0
    kept = open(eval_dir / "split_test.txt").read().split()
    assert [[s.scene_id for s in scenes] for scenes in calls] == [kept]


@pytest.mark.parametrize("command, flags, drop", [
    ("train", [], False), ("resume", ["--checkpoint", "ck.bin"], False),
    ("resume", ["--checkpoint", "ck.bin", "--drop-rng-state"], True)])
def test_drop_rng_state_flag_reaches_train(data_dir, tmp_path, capsys, monkeypatch,
                                           command, flags, drop):
    calls = []
    monkeypatch.setattr(cli, "train",
                        lambda cfg, scenes, **kw: calls.append(kw) or (TrainLog(), {}, {}))
    monkeypatch.setattr(cli, "_print_config", lambda cfg: None)
    code, _, _ = run(capsys, command, *flags, "--data", data_dir, "--out", str(tmp_path),
                     *MICRO_SETS)
    assert code == 0
    assert [(kw["drop_rng_state"], kw["drop_optimizer_state"]) for kw in calls] == [(drop, False)]


def test_eval_rejects_non_utf8_config(data_dir, tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_bytes(b"seed = \xff\n")
    code, _, err = run(capsys, "eval", "--data", data_dir, "--oracle", "--config", str(cfg))
    assert code == 2
    assert "bad.cfg" in err and "Traceback" not in err


@pytest.mark.parametrize("kind", ["missing", "directory"])
def test_eval_rejects_unreadable_config(data_dir, tmp_path, capsys, kind):
    path = tmp_path / "nope.cfg"
    if kind == "directory":
        path.mkdir()
    code, _, err = run(capsys, "eval", "--data", data_dir, "--oracle", "--config", str(path))
    assert code == 2
    assert f"{path}: cannot read config file" in err and "Traceback" not in err


def test_suite_trains_the_config_it_prints(data_dir, tmp_path, capsys, monkeypatch):
    cfg_path = tmp_path / "suite.cfg"
    cfg_path.write_text("n_queries = 7\nlearning_rate = 0.005\nepochs = 1\n")
    trained = []

    def fake_train(cfg, scenes, **kw):
        trained.append(cfg)
        return TrainLog(steps=[dict.fromkeys(TR.STEP_MS, 1.0)], epoch_seconds=[1.0]), {}, {}

    monkeypatch.setattr(TR, "train", fake_train)
    monkeypatch.setattr(TR, "predict_scene",
                        lambda scene, params, cfg: dict.fromkeys(groundtruth_by_frame([scene]), []))
    code, out, err = run(capsys, "suite", "--data", data_dir, "--config", str(cfg_path),
                         "--set", "seed=3")
    assert code == 0, err
    resolved = load_config(str(cfg_path), ["seed=3"])
    assert resolved.resolved_text() in out
    assert trained == [dataclasses.replace(resolved, **EXPERIMENT_PRESETS[name])
                       for name in EXPERIMENT_PRESETS]


def test_suite_rejects_zero_epochs_before_training(data_dir, capsys, monkeypatch):
    trained = []
    monkeypatch.setattr(TR, "train", lambda cfg, scenes, **kw: trained.append(cfg))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, _, err = run(capsys, "suite", "--data", data_dir, *MICRO_SETS, "--set", "epochs=0")
    assert code == 2
    assert err.splitlines() == ["usage error: the suite trains every preset, but epochs = 0"]
    assert trained == []
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def test_suite_has_no_epochs_option(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.build_parser().parse_args(["suite", "--data", "d", "--epochs", "2"])
    assert exc.value.code == 2


def test_eval_needs_checkpoint(data_dir, capsys):
    code, _, err = run(capsys, "eval", "--data", data_dir, *MICRO_SETS)
    assert code == 2
    assert "checkpoint" in err


def test_eval_truncated_checkpoint_names_file(data_dir, tmp_path, capsys):
    ckpt_dir = tmp_path / "ck"
    assert run(capsys, "train", "--data", data_dir, "--split", "train", "--out",
               str(ckpt_dir), *MICRO_SETS, "--set", "epochs=0")[0] == 0
    ckpt = ckpt_dir / "ckpt_epoch_0.bin"
    ckpt.write_bytes(ckpt.read_bytes()[:100])
    code, _, err = run(capsys, "eval", "--data", data_dir, "--checkpoint", str(ckpt),
                       *MICRO_SETS, "--set", "epochs=0")
    assert code == 1
    assert f"{ckpt}: truncated checkpoint" in err and "Traceback" not in err


def test_train_corrupt_annotations_exits_1(data_dir, tmp_path, capsys):
    bad = tmp_path / "ds"
    shutil.copytree(data_dir, bad)
    scene_id = open(bad / "manifest.txt").read().split()[-1]
    ann = bad / scene_id / "annotations.txt"
    ann.write_bytes(ann.read_bytes().replace(b"META ", b"MTEA ", 1))
    code, _, err = run(capsys, "train", "--data", str(bad), "--out", str(tmp_path / "ck"),
                       *MICRO_SETS)
    assert code == 1
    assert f"{ann}: byte 0: unknown record 'MTEA'" in err and "Traceback" not in err


def test_viz_groundtruth_only(data_dir, tmp_path, capsys):
    scene_id = sorted(os.listdir(data_dir))[-1]
    scene_id = open(os.path.join(data_dir, "manifest.txt")).read().split()[-1]
    out_dir = tmp_path / "svg"
    code, out, _ = run(capsys, "viz", "--data", data_dir, "--scene", scene_id,
                       "--out", str(out_dir), *MICRO_SETS)
    assert code == 0
    files = sorted(os.listdir(out_dir))
    assert files
    svg = ET.parse(out_dir / files[0]).getroot()
    text = open(out_dir / files[0]).read()
    assert "groundtruth" in text
    assert "prediction" not in text


def test_viz_missing_scene(data_dir, tmp_path, capsys):
    code, _, err = run(capsys, "viz", "--data", data_dir, "--scene", "scene_nope",
                       "--out", str(tmp_path), *MICRO_SETS)
    assert code == 1
    assert "scene_" in err  # lists available ids


def test_train_resume_eval_viz_round_trip(data_dir, tmp_path, capsys):
    ckpt_dir = tmp_path / "ckpts"
    code, out, _ = run(capsys, "train", "--data", data_dir, "--split", "train",
                       "--out", str(ckpt_dir), *MICRO_SETS)
    assert code == 0
    assert "# resolved config" in out and "embed_dim = 16" in out
    assert (ckpt_dir / "ckpt_epoch_1.bin").exists()
    assert (ckpt_dir / "train_log.csv").exists()

    # resume with a different seed: config hash mismatch -> exit 1
    code, _, err = run(capsys, "resume", "--checkpoint",
                       str(ckpt_dir / "ckpt_epoch_1.bin"), "--data", data_dir,
                       "--out", str(ckpt_dir), *MICRO_SETS, "--set", "seed=3",
                       "--set", "epochs=2")
    assert code == 1
    assert "hash" in err

    # correct resume to 2 epochs
    code, _, _ = run(capsys, "resume", "--checkpoint",
                     str(ckpt_dir / "ckpt_epoch_1.bin"), "--data", data_dir,
                     "--split", "train", "--out", str(ckpt_dir), *MICRO_SETS,
                     "--set", "epochs=2")
    assert code == 0
    assert (ckpt_dir / "ckpt_epoch_2.bin").exists()

    # eval the trained checkpoint on the test split
    code, out, _ = run(capsys, "eval", "--data", data_dir, "--split", "test",
                       "--checkpoint", str(ckpt_dir / "ckpt_epoch_2.bin"),
                       *MICRO_SETS, "--set", "epochs=2")
    assert code == 0
    assert out.strip().splitlines()[-1].startswith(("map", "scene", "counts", "matched_chamfer"))

    # viz with the checkpoint: both panels present
    scene_id = open(os.path.join(data_dir, "manifest.txt")).read().split()[-1]
    out_dir = tmp_path / "svg2"
    code, _, _ = run(capsys, "viz", "--data", data_dir, "--scene", scene_id,
                     "--checkpoint", str(ckpt_dir / "ckpt_epoch_2.bin"),
                     "--out", str(out_dir), *MICRO_SETS, "--set", "epochs=2")
    assert code == 0
    text = open(out_dir / sorted(os.listdir(out_dir))[0]).read()
    assert "groundtruth" in text and "prediction" in text

"""Property tests for the input boundaries: a checkpoint, a dataset's
manifest, annotations and camera images, and a config file.

Each input, with up to three bytes overwritten, must either load or raise
its module's typed error, never a raw numpy, struct or Unicode error; what
loads must be usable.  Every defect found so far is pinned as an
``@example``; the byte offsets refer to the files the fixtures write, which
the fixtures check.
"""

import dataclasses
import math
import os

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from lanebev import dataset as D
from lanebev import trainer as TR
from lanebev.config import ConfigFileError, ExperimentConfig, load_config

MICRO = dict(backbone="toy-shallow", embed_dim=16, n_heads=2, n_sample_points=2,
             n_pillar_heights=2, ffn_dim=16, n_encoder_layers=1, n_decoder_layers=1,
             n_queries=6, n_points=4, bev_h=6, bev_w=4, checkpoint_every=1)

# (offset, new byte) pairs; offsets wrap around the file's length
edits = st.lists(st.tuples(st.integers(0, 1 << 16), st.integers(0, 255)), min_size=1, max_size=3)


def _mutated(path, data, changes):
    buf = bytearray(data)
    for at, byte in changes:
        buf[at % len(buf)] = byte
    with open(path, "wb") as f:
        f.write(bytes(buf))


@pytest.fixture(scope="module")
def checkpoint(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("ckpt") / "ck.bin")
    rng = np.random.default_rng(0)
    params = {"a/w": rng.standard_normal((2, 3)), "b": rng.standard_normal(4)}
    TR.save_checkpoint(path, ExperimentConfig(**MICRO), params, TR.init_adam_state(params),
                       np.random.default_rng(0), 1, 2, 3.0)
    with open(path, "rb") as f:
        data = f.read()
    assert data[211] == 48     # "a/w"'s payload length prefix: 6 float64s
    assert data[160:172] == bytes(12)   # the RNG blob's has_uint32 and uinteger
    assert data[344:347] == b"a/w"      # the name of "a/w"'s first Adam moment
    assert data[500:503] == b"a/w"      # the name of "a/w"'s second Adam moment
    return path, data


@given(changes=edits)
@example(changes=[(211, 47)])  # a payload that is not a whole number of float64s
@example(changes=[(168, 1)])   # the RNG's cached uint32 above 2**32
@example(changes=[(160, 2)])   # the RNG's has_uint32 flag neither 0 nor 1
@example(changes=[(346, ord("x"))])  # a first moment named "a/x", for no such parameter
@example(changes=[(226, 0x7F), (225, 0xF8)])  # "a/w"'s first entry a NaN
@example(changes=[(538, 0xBF)])  # "a/w"'s first second moment negative (-2**-15)
def test_mutated_checkpoint_loads_or_raises_checkpoint_error(checkpoint, changes):
    path, data = checkpoint
    _mutated(path, data, changes)
    try:
        ck = TR.load_checkpoint(path)
    except TR.CheckpointError:
        return
    params = ck["params"]
    for moments in (ck["adam"]["m"], ck["adam"]["v"]):
        assert moments.keys() == params.keys()
        assert all(moments[k].shape == params[k].shape for k in params)
    for section in (params, ck["adam"]["m"], ck["adam"]["v"]):
        assert all(np.all(np.isfinite(a)) for a in section.values())
    assert all(np.all(v >= 0) for v in ck["adam"]["v"].values())


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("data")
    D.save_dataset([D.generate_scene(0, "straight", D.GenParams(frames=2))], root)
    files = {name: os.path.join(root, name) for name in ("manifest.txt",)}
    for name in ("annotations.txt", "frame_0_cam_0.pgm"):
        files[name] = os.path.join(root, "scene_00000000", name)
    data = {}
    for name, path in files.items():
        with open(path, "rb") as f:
            data[name] = f.read()
    assert data["manifest.txt"] == b"version 1\nscene scene_00000000\n"
    assert data["annotations.txt"].startswith(b"META straight 0 2\nCAM 0 ")
    assert data["annotations.txt"][127:134] == b"CAM 1 2"
    assert data["annotations.txt"][833:839] == b"CAM 6 "
    assert data["frame_0_cam_0.pgm"].startswith(b"P5\n96 64\n255\n")
    return root, files, data


def _check_dataset(dataset_dir, name, changes):
    root, files, data = dataset_dir
    _mutated(files[name], data[name], changes)
    try:
        scenes = D.load_dataset(root)
    except D.DatasetError:
        return
    finally:
        with open(files[name], "wb") as f:
            f.write(data[name])
    for scene in scenes:
        assert scene.frames
        for frame in scene.frames:
            assert [c.name for c in frame.cameras] == list(D.CAMERA_ORDER[:len(frame.cameras)])
            assert frame.images.shape[0] == len(frame.cameras)


@given(changes=edits)
@example(changes=[(8, ord("x"))])     # version x
@example(changes=[(7, ord("\n"))])    # a version line with no value
@example(changes=[(15, ord("\n"))])   # a scene line with no value
@example(changes=[(3, 0xFF)])         # not UTF-8
@example(changes=[(29, ord("1"))])    # a scene directory that does not exist
def test_mutated_manifest_loads_or_raises_dataset_error(dataset_dir, changes):
    _check_dataset(dataset_dir, "manifest.txt", changes)


@given(changes=edits)
@example(changes=[(16, ord("0"))])    # META straight 0 0
@example(changes=[(12, ord(" ")), (13, ord("0")), (14, ord(" ")), (15, ord("-"))])  # -2 frames
@example(changes=[(127, ord("#"))])   # CAM 1 commented out
@example(changes=[(22, ord("1"))])    # CAM 0 renumbered: two CAM 1 records, no CAM 0
@example(changes=[(837, ord("5"))])   # CAM 6 renumbered: two CAM 5 records
def test_mutated_annotations_load_or_raise_dataset_error(dataset_dir, changes):
    _check_dataset(dataset_dir, "annotations.txt", changes)


@given(changes=st.lists(st.tuples(st.integers(0, 15), st.integers(0, 255)), min_size=1,
                        max_size=3) | edits)
@example(changes=[(3, ord("8"))])     # 86 pixels wide, the other cameras 96
def test_mutated_camera_image_loads_or_raises_dataset_error(dataset_dir, changes):
    _check_dataset(dataset_dir, "frame_0_cam_0.pgm", changes)


FIELDS = sorted(f.name for f in dataclasses.fields(ExperimentConfig))
text = st.text(st.characters(codec="utf-8"), max_size=12)
values = (st.integers(-3, 1 << 70).map(str) | st.floats().map(repr) | text
          | st.sampled_from(["toy", "inf", "-inf", "nan", "1e400", "0", ""]))
lines = st.tuples(st.sampled_from(FIELDS), values).map(" = ".join) | text


@given(raw=st.lists(lines, max_size=6).map(lambda ls: "\n".join(ls).encode()) | st.binary(max_size=40))
@example(raw=b"seed = \xff\n")               # not UTF-8
@example(raw=b"learning_rate = 1e400\n")     # infinite
@example(raw=b"adam_eps = inf\n")
def test_generated_config_file_loads_or_raises_config_error(tmp_path_factory, raw):
    path = tmp_path_factory.getbasetemp() / "generated.cfg"
    path.write_bytes(raw)
    try:
        cfg = load_config(str(path))
    except ConfigFileError:
        return
    for name in FIELDS:   # grad_clip = inf turns clipping off
        value = getattr(cfg, name)
        assert name == "grad_clip" or not isinstance(value, float) or math.isfinite(value)

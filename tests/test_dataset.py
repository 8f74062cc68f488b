import dataclasses
import os

import numpy as np
import pytest

from lanebev import dataset as D
from lanebev.segments import CLASS_CROSSWALK, CLASS_LANE

FAST = D.GenParams(frames=2)


def project(point3d, camera: D.Camera):
    """Scalar projection oracle: ego-frame 3D point to pixel (u, v), or None
    if behind / off-image."""
    p = camera.r @ np.asarray(point3d, dtype=np.float64) + camera.t
    z = p[2]
    if z <= 1e-9:
        return None
    u = camera.fx * p[0] / z + camera.cx
    v = camera.fy * p[1] / z + camera.cy
    if not (0.0 <= u < camera.width and 0.0 <= v < camera.height):
        return None
    return (u, v)


@pytest.fixture(scope="module")
def scenes():
    return [D.generate_scene(s, D.scenario_for_seed(s), FAST) for s in (0, 1, 2)]


def test_same_seed_bit_identical():
    a = D.generate_scene(5, "straight", FAST)
    b = D.generate_scene(5, "straight", FAST)
    assert a == b


def test_straight_centerlines_collinear():
    sc = D.generate_scene(3, "straight", FAST)
    for segs in sc.groundtruth:
        assert segs
        for seg in segs:
            c = seg.centerline
            d0 = c[-1] - c[0]
            d0 = d0 / np.linalg.norm(d0)
            lateral = (c - c[0]) @ np.array([-d0[1], d0[0]])
            assert np.abs(lateral).max() < 1e-9


def test_intersection_has_crosswalk():
    sc = D.generate_scene(4, "intersection", FAST)
    classes = {s.class_id for segs in sc.groundtruth for s in segs}
    assert CLASS_CROSSWALK in classes


def test_unknown_scenario():
    with pytest.raises(ValueError, match="unknown scenario"):
        D.generate_scene(0, "roundabout", FAST)


def test_project_optical_axis():
    cam = D.build_camera_rig()[0]
    # point 5 m along the optical axis: p_cam = (0,0,5) -> p_ego = c + 5*axis
    center = -cam.r.T @ cam.t
    p = center + 5.0 * cam.r[2]
    u, v = project(p, cam)
    assert u == pytest.approx(cam.cx)
    assert v == pytest.approx(cam.cy)


def test_project_behind_camera():
    cam = D.build_camera_rig()[0]
    center = -cam.r.T @ cam.t
    assert project(center - 5.0 * cam.r[2], cam) is None


def test_project_matches_manual_recomputation(rng):
    cams = D.build_camera_rig()
    for _ in range(50):
        p = rng.uniform(-30, 30, 3)
        p[2] = rng.uniform(-1, 3)
        cam = cams[rng.integers(len(cams))]
        got = project(p, cam)
        pc = cam.r @ p + cam.t
        if pc[2] <= 1e-9:
            assert got is None
            continue
        u = cam.fx * pc[0] / pc[2] + cam.cx
        v = cam.fy * pc[1] / pc[2] + cam.cy
        if 0 <= u < cam.width and 0 <= v < cam.height:
            assert got == (u, v)
        else:
            assert got is None


def test_camera_extrinsics_rigid():
    for cam in D.build_camera_rig():
        assert np.allclose(cam.r @ cam.r.T, np.eye(3), atol=1e-7)
        assert np.linalg.det(cam.r) == pytest.approx(1.0, abs=1e-7)


def test_gt_points_visible_in_some_camera(scenes):
    for sc in scenes:
        for frame, segs in zip(sc.frames, sc.groundtruth):
            for seg in segs:
                for pts in (seg.centerline, seg.left_boundary, seg.right_boundary):
                    for x, y in pts:
                        assert any(project((x, y, 0.0), c) for c in frame.cameras), \
                            f"{sc.scene_id} frame {frame.t_index}: ({x},{y}) unseen"


def test_gt_inside_extent(scenes):
    for sc in scenes:
        for segs in sc.groundtruth:
            for seg in segs:
                for pts in (seg.centerline, seg.left_boundary, seg.right_boundary):
                    assert pts[:, 0].min() >= D.X_MIN and pts[:, 0].max() <= D.X_MAX
                    assert pts[:, 1].min() >= D.Y_MIN and pts[:, 1].max() <= D.Y_MAX


def test_roundtrip(tmp_path, scenes):
    D.save_dataset(scenes, tmp_path)
    loaded = D.load_dataset(tmp_path)
    assert loaded == scenes


def test_load_dataset_ids_keep_manifest_order(tmp_path, scenes):
    D.save_dataset(scenes, tmp_path)
    ids = [scenes[2].scene_id, scenes[0].scene_id]
    assert D.load_dataset(tmp_path, ids) == D.load_dataset(tmp_path, ids[::-1]) \
        == [scenes[0], scenes[2]]


def test_save_is_byte_deterministic(tmp_path, scenes):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    D.save_dataset(scenes, d1)
    D.save_dataset([D.generate_scene(s, D.scenario_for_seed(s), FAST) for s in (0, 1, 2)], d2)
    for root, _, files in os.walk(d1):
        rel = os.path.relpath(root, d1)
        for name in files:
            with open(os.path.join(root, name), "rb") as f1, \
                 open(os.path.join(d2, rel, name), "rb") as f2:
                assert f1.read() == f2.read(), name


def test_truncated_annotations(tmp_path, scenes):
    D.save_dataset(scenes[:1], tmp_path)
    ann = tmp_path / scenes[0].scene_id / "annotations.txt"
    data = ann.read_bytes()
    ann.write_bytes(data[:len(data) - 40])
    with pytest.raises(D.ParseError, match="byte"):
        D.load_dataset(tmp_path)


def test_version_mismatch(tmp_path, scenes):
    D.save_dataset(scenes[:1], tmp_path)
    man = tmp_path / "manifest.txt"
    man.write_text(man.read_text().replace("version 1", "version 99"))
    with pytest.raises(D.UnsupportedVersionError):
        D.load_dataset(tmp_path)


def test_missing_camera_file(tmp_path, scenes):
    D.save_dataset(scenes[:1], tmp_path)
    os.remove(tmp_path / scenes[0].scene_id / "frame_1_cam_3.pgm")
    with pytest.raises(D.InventoryError, match="frame_1_cam_3"):
        D.load_dataset(tmp_path)


def test_missing_manifest(tmp_path):
    with pytest.raises(D.InventoryError, match="missing manifest.txt"):
        D.load_dataset(tmp_path)


def _changed(value):
    """value with one part altered: an array entry, a sequence's length, a number or text."""
    if isinstance(value, np.ndarray):
        value = value.copy()
        value.flat[-1] += 1
        return value
    if isinstance(value, (list, tuple)):
        return value[:-1]
    return value + ("x" if isinstance(value, str) else 1)


def test_equality_covers_every_field(scenes):
    """Changing any one field of a Scene, MultiViewFrame, Camera or LaneSegment breaks ==."""
    sc = scenes[2]
    frame = sc.frames[-1]
    seg = next(s for segs in sc.groundtruth for s in segs)
    for value in (sc, frame, frame.cameras[-1], seg):
        assert value == dataclasses.replace(value)
        for f in dataclasses.fields(value):
            other = dataclasses.replace(value, **{f.name: _changed(getattr(value, f.name))})
            assert value != other, f"{type(value).__name__}.{f.name}"


def _edit_file(path, old, new):
    data = path.read_bytes()
    assert data.count(old) == 1
    path.write_bytes(data.replace(old, new))
    return data.index(old)


@pytest.mark.parametrize("name, old, new", [
    ("annotations.txt", b"\nCAM 6 ", b"\nCAM 7 "),     # an 8th camera slot
    ("annotations.txt", b"\nCAM 0 ", b"\nCAM -1 "),
    ("annotations.txt", b"\nSEG 0 1 10 -22 -3.04", b"\nSEG 0 3 10 -22 -3.04"),  # no class 3
    ("annotations.txt", b"\nSEG 0 1 10 -22 -3.04", b"\nSEG 0 -1 10 -22 -3.04"),
    ("annotations.txt", b"\nEGO 1 ", b"\nEGO 0 "),       # a second pose for frame 0
    ("annotations.txt", b"\nEGO 1 ", b"\nEGO 2 "),       # the scene has 2 frames
    ("annotations.txt", b"\nEGO 0 ", b"\nEGO -1 "),
    ("annotations.txt", b"\nSEG 1 1 10 -21.9108851 -3.04", b"\nSEG 7 1 10 -21.9108851 -3.04"),
    ("frame_0_cam_0.pgm", b"\n255\n", b"\n0\n"),
    ("frame_1_cam_2.pgm", b"\n255\n", b"\n256\n"),
    ("frame_1_cam_2.pgm", b"\n255\n", b"\n65535\n"),
])
def test_out_of_range_records_rejected(tmp_path, scenes, name, old, new):
    D.save_dataset(scenes[:1], tmp_path)
    at = _edit_file(tmp_path / scenes[0].scene_id / name, old, new)
    with pytest.raises(D.ParseError, match=name) as err:
        D.load_dataset(tmp_path)
    assert err.value.offset == at + 1


@pytest.mark.parametrize("manifest, at", [
    (b"version x\nscene {}\n", 0),
    (b"version\nscene {}\n", 0),
    (b"version 1\nscene\n", 10),
    (b"version 1\nscene {}\xff\n", 10),     # not UTF-8
    (b"version 1\nscene {}\nscene {}\n", 31),   # the same scene twice
])
def test_malformed_manifest_rejected(tmp_path, scenes, manifest, at):
    D.save_dataset(scenes[:1], tmp_path)
    (tmp_path / "manifest.txt").write_bytes(manifest.replace(b"{}", scenes[0].scene_id.encode()))
    with pytest.raises(D.ParseError, match="manifest.txt") as err:
        D.load_dataset(tmp_path)
    assert err.value.offset == at


@pytest.mark.parametrize("frames", [b"0", b"-1"])
def test_meta_frame_count_must_be_positive(tmp_path, scenes, frames):
    D.save_dataset(scenes[:1], tmp_path)
    ann = tmp_path / scenes[0].scene_id / "annotations.txt"
    meta, rest = ann.read_bytes().split(b"\n", 1)
    assert meta.startswith(b"META ")
    ann.write_bytes(meta.rsplit(b" ", 1)[0] + b" " + frames + b"\n" + rest)
    with pytest.raises(D.ParseError, match="META frame count") as err:
        D.load_dataset(tmp_path)
    assert err.value.offset == 0


def test_second_meta_record_rejected(tmp_path, scenes):
    D.save_dataset(scenes[:1], tmp_path)
    ann = tmp_path / scenes[0].scene_id / "annotations.txt"
    data = ann.read_bytes()
    assert data.endswith(b"\n")
    ann.write_bytes(data + b"META intersection 99 1\n")
    with pytest.raises(D.ParseError, match="duplicate META record") as err:
        D.load_dataset(tmp_path)
    assert err.value.offset == len(data)


def test_frame_records_need_meta_first(tmp_path, scenes):
    D.save_dataset(scenes[:1], tmp_path)
    ann = tmp_path / scenes[0].scene_id / "annotations.txt"
    meta, rest = ann.read_bytes().split(b"\n", 1)
    ann.write_bytes(rest + meta + b"\n")
    with pytest.raises(D.ParseError, match="EGO record before META"):
        D.load_dataset(tmp_path)


@pytest.mark.parametrize("old, new, message", [
    (b"CAM 1 ", b"# ", "missing CAM record 1"),   # CAM 2 would pair with frame_t_cam_1.pgm
    (b"CAM ", b"# ", "missing CAM record 0"),
    (b"CAM 6 ", b"CAM 5 ", "duplicate CAM record 5"),   # camera 'back' would get CAM 6's intrinsics
])
def test_cam_indices_must_be_0_to_n(tmp_path, scenes, old, new, message):
    D.save_dataset(scenes[:1], tmp_path)
    ann = tmp_path / scenes[0].scene_id / "annotations.txt"
    lines = ann.read_bytes().split(b"\n")
    ann.write_bytes(b"\n".join(new + line[len(old):] if line.startswith(old) else line
                               for line in lines))
    with pytest.raises(D.ParseError, match=message):
        D.load_dataset(tmp_path)


def test_camera_image_size_mismatch_rejected(tmp_path, scenes):
    D.save_dataset(scenes[:1], tmp_path)
    (tmp_path / scenes[0].scene_id / "frame_1_cam_2.pgm").write_bytes(b"P5\n4 2\n255\n" + bytes(8))
    with pytest.raises(D.ParseError, match="frame_1_cam_2.pgm"):
        D.load_dataset(tmp_path)


def test_each_camera_file_read_once(tmp_path, scenes, monkeypatch):
    D.save_dataset(scenes[:1], tmp_path)
    reads = []
    read_pgm = D._read_pgm
    monkeypatch.setattr(D, "_read_pgm", lambda path: reads.append(path) or read_pgm(path))
    assert D.load_dataset(tmp_path) == scenes[:1]
    n_files = len(scenes[0].frames) * len(scenes[0].frames[0].cameras)
    assert (len(scenes[0].frames), n_files) == (2, 14)
    assert len(reads) == len(set(reads)) == n_files


def test_pgm_scaled_by_maxval(tmp_path):
    path = tmp_path / "img.pgm"
    path.write_bytes(b"P5\n3 1\n100\n" + bytes([0, 50, 100]))
    assert D._read_pgm(str(path)).tolist() == [[0.0, 0.5, 1.0]]


def test_camera_order_fixed(scenes):
    names = tuple(c.name for c in scenes[0].frames[0].cameras)
    assert names == D.CAMERA_ORDER


def test_frames_at_least_two(scenes):
    for sc in scenes:
        assert len(sc.frames) >= 2

"""Deterministic synthetic multi-camera scenes and the on-disk dataset format.

A scene is a short temporal sequence (default 4 frames) of 7-view camera
images of a procedurally generated road, with per-frame lane-segment
groundtruth in the ego frame.  Scenario kinds: straight, curve,
intersection (crossing road with pedestrian crossings).

Determinism: every float stored in a Scene is passed through the same
9-significant-digit formatter used by the on-disk text format, so
``load(save(scene)) == scene`` holds bit-exactly.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass

import numpy as np

from .segments import (CLASS_CROSSWALK, CLASS_LANE, CLASS_NAMES, LaneSegment, arclength,
                       densify_polyline, fields_equal, longest_run_inside, polyline_normals,
                       resample_polyline)


class DatasetError(Exception):
    pass


class ParseError(DatasetError):
    def __init__(self, path, offset, message):
        super().__init__(f"{path}: byte {offset}: {message}")
        self.path = path
        self.offset = offset


class UnsupportedVersionError(DatasetError):
    pass


class InventoryError(DatasetError):
    pass


FORMAT_VERSION = 1
CAMERA_ORDER = ("front", "front-left", "front-right", "back-left", "back-right",
                "back", "front-center-narrow")
SCENARIO_KINDS = ("straight", "curve", "intersection")
# generated scenes: image size, lanes per road, the groundtruth's metric (x, y)
# extent (ego frame) and the margin that keeps boundaries inside it
IMAGE_WIDTH, IMAGE_HEIGHT, MIN_LANES, MAX_LANES = 96, 64, 2, 6
X_MIN, X_MAX, Y_MIN, Y_MAX, EXTENT_MARGIN = -24.0, 24.0, -12.0, 12.0, 2.0


def quant9(x: float) -> float:
    """Round-trip a float through the on-disk 9-significant-digit format."""
    return float(f"{float(x):.9g}")


def quant9_arr(a) -> np.ndarray:
    a = np.asarray(a, dtype=np.float64)
    return np.array([[quant9(v) for v in row] for row in np.atleast_2d(a.reshape(-1, a.shape[-1]))],
                    dtype=np.float64).reshape(a.shape)


def fmt9(x: float) -> str:
    return f"{float(x):.9g}"


# ---------------------------------------------------------------------------
# cameras


@dataclass
class Camera:
    name: str
    fx: float
    fy: float
    cx: float
    cy: float
    r: np.ndarray       # 3x3, p_cam = r @ p_ego + t
    t: np.ndarray       # 3
    width: int
    height: int

    __eq__ = fields_equal


def _camera_from_pose(name, fx, fy, cx, cy, position, yaw, pitch, width, height):
    """Build a pinhole camera from an ego-frame pose.

    Ego frame: x forward, y left, z up.  Camera frame: x right, y down,
    z along the optical axis.  yaw rotates about ego z (left positive);
    pitch tilts the axis downward.
    """
    cy_, sy_ = np.cos(yaw), np.sin(yaw)
    cp, sp = np.cos(pitch), np.sin(pitch)
    axis = np.array([cp * cy_, cp * sy_, -sp])
    right = np.array([sy_, -cy_, 0.0])
    down = np.cross(axis, right)
    r = np.stack([right, down, axis])
    t = -r @ np.asarray(position, dtype=np.float64)
    return Camera(name, quant9(fx), quant9(fy), quant9(cx), quant9(cy),
                  quant9_arr(r), np.array([quant9(v) for v in t]), width, height)


def build_camera_rig(width: int = IMAGE_WIDTH, height: int = IMAGE_HEIGHT) -> list[Camera]:
    """Seven cameras covering a full 360 degrees around the ego vehicle."""
    cx, cy = width / 2.0, height / 2.0
    fx_wide, fy_wide = width * 0.27, height * 0.25
    pos = (0.0, 0.0, 1.6)
    pitch = np.deg2rad(35.0)
    yaws = {"front": 0.0, "front-left": 60.0, "front-right": -60.0,
            "back-left": 120.0, "back-right": -120.0, "back": 180.0}
    cams = [_camera_from_pose(n, fx_wide, fy_wide, cx, cy, pos, np.deg2rad(d), pitch,
                              width, height) for n, d in yaws.items()]
    cams.append(_camera_from_pose("front-center-narrow", width * 1.3, width * 1.3, cx, cy,
                                  pos, 0.0, np.deg2rad(8.0), width, height))
    order = {n: i for i, n in enumerate(CAMERA_ORDER)}
    cams.sort(key=lambda c: order[c.name])
    return cams


# ---------------------------------------------------------------------------
# scene data


@dataclass
class MultiViewFrame:
    images: np.ndarray          # [7, 1, H, W] float64 in [0,1]
    cameras: list[Camera]
    ego_pose: tuple[float, float, float]   # (x, y, yaw) in world frame
    t_index: int

    __eq__ = fields_equal


@dataclass
class Scene:
    scene_id: str
    frames: list[MultiViewFrame]
    groundtruth: list[list[LaneSegment]]   # per frame, ego frame
    scenario_kind: str
    seed: int

    __eq__ = fields_equal


@dataclass(frozen=True)
class GenParams:
    frames: int = 4
    n_points: int = 10                      # P, points per gt polyline


# ---------------------------------------------------------------------------
# world geometry


def _lane_offsets(n_lanes, width):
    return (np.arange(n_lanes) - (n_lanes - 1) / 2.0) * width


def _straight_world(rng):
    n_lanes = int(rng.integers(MIN_LANES, MAX_LANES + 1))
    width = float(rng.uniform(3.0, 4.0))
    xs = np.linspace(-60.0, 140.0, 101)
    lanes = [{"centerline": np.stack([xs, np.full_like(xs, off)], axis=1),
              "width": width, "class_id": CLASS_LANE}
             for off in _lane_offsets(n_lanes, width)]
    ego_lane = int(rng.integers(0, n_lanes))
    return lanes, [], lanes[ego_lane]["centerline"]


def _curve_world(rng):
    n_lanes = int(rng.integers(MIN_LANES, MAX_LANES + 1))
    width = float(rng.uniform(3.0, 4.0))
    radius = float(rng.uniform(40.0, 100.0)) * (1 if rng.random() < 0.5 else -1)
    span = 160.0 / abs(radius)
    theta = np.linspace(-0.2 * span, 0.8 * span, 121)
    lanes = []
    for off in _lane_offsets(n_lanes, width):
        r_i = radius - off * np.sign(radius)
        x = abs(r_i) * np.sin(theta)
        y = radius - np.sign(radius) * abs(r_i) * np.cos(theta)
        lanes.append({"centerline": np.stack([x, y], axis=1), "width": width,
                      "class_id": CLASS_LANE})
    ego_lane = int(rng.integers(0, n_lanes))
    return lanes, [], lanes[ego_lane]["centerline"]


def _intersection_world(rng, frames, speed):
    lanes, _, ego_path = _straight_world(rng)
    n_lanes, width = len(lanes), lanes[0]["width"]

    # crossing road placed so its crosswalk stays inside the BEV extent for
    # the whole sequence (ego approaches but never reaches it)
    x_cross = speed * (frames - 1) + float(rng.uniform(4.0, 8.0))
    n_cross = int(rng.integers(2, 5))
    cross_width = float(rng.uniform(3.0, 4.0))
    ys = np.linspace(-50.0, 50.0, 51)
    for off in _lane_offsets(n_cross, cross_width):
        lanes.append({"centerline": np.stack([np.full_like(ys, x_cross + off), ys], axis=1),
                      "width": cross_width, "class_id": CLASS_LANE})

    half_main = n_lanes * width / 2.0
    half_cross = n_cross * cross_width / 2.0
    crosswalks = []
    for xc in (x_cross - half_cross - 1.2, x_cross + half_cross + 1.2):
        yy = np.linspace(-half_main - 0.8, half_main + 0.8, 9)
        crosswalks.append({"centerline": np.stack([np.full_like(yy, xc), yy], axis=1),
                           "width": 1.2, "class_id": CLASS_CROSSWALK})
    return lanes, crosswalks, ego_path


def _world_to_ego(points, pose):
    x, y, yaw = pose
    c, s = np.cos(yaw), np.sin(yaw)
    rot = np.array([[c, s], [-s, c]])
    return (np.asarray(points) - np.array([x, y])) @ rot.T


def _ego_poses(ego_path, speed, n_frames, straight):
    """Ego pose (x, y, yaw) per frame, following the given lane centerline."""
    dense = densify_polyline(ego_path, 0.5)
    s = arclength(dense)
    s0 = s[np.argmin(np.hypot(dense[:, 0], dense[:, 1]))]  # start near world origin
    poses = []
    for k in range(n_frames):
        target = s0 + k * speed
        x = np.interp(target, s, dense[:, 0])
        y = np.interp(target, s, dense[:, 1])
        if straight:
            yaw = 0.0
        else:
            i = min(np.searchsorted(s, target), len(dense) - 2)
            d = dense[i + 1] - dense[i]
            yaw = np.arctan2(d[1], d[0])
        poses.append((quant9(x), quant9(y), quant9(yaw)))
    return poses


def _gt_for_frame(lanes, crosswalks, pose, n_points):
    m = EXTENT_MARGIN
    segs = []
    for item in lanes + crosswalks:
        ego_poly = _world_to_ego(densify_polyline(item["centerline"], 1.0), pose)
        run = longest_run_inside(ego_poly, X_MIN + m, X_MAX - m, Y_MIN + m, Y_MAX - m)
        if run is None:
            continue
        if arclength(run)[-1] < (3.0 if item["class_id"] == CLASS_LANE else 1.5):
            continue
        center = resample_polyline(run, n_points)
        normals = polyline_normals(center)
        half = item["width"] / 2.0
        left = center + normals * half
        right = center - normals * half
        segs.append(LaneSegment(quant9_arr(center), quant9_arr(left), quant9_arr(right),
                                item["class_id"], 1.0))
    return segs


# ---------------------------------------------------------------------------
# rendering


def _min_dist_to_segments(pts, seg_a, seg_b):
    """Min distance from each 2D point to any segment (there is at least one), chunked over points."""
    # float32 + squared distances: rendering only needs ~centimeter accuracy
    pts32 = pts.astype(np.float32)
    a32 = seg_a.astype(np.float32)
    ab = (seg_b - seg_a).astype(np.float32)
    ab2 = np.maximum((ab * ab).sum(axis=1), np.float32(1e-12))
    out = np.empty(len(pts), dtype=np.float32)
    for lo in range(0, len(pts), 4096):
        chunk = pts32[lo:lo + 4096]
        ap = chunk[:, None, :] - a32[None]
        tt = np.clip((ap[..., 0] * ab[None, :, 0] + ap[..., 1] * ab[None, :, 1]) / ab2[None], 0.0, 1.0)
        dx = ap[..., 0] - tt * ab[None, :, 0]
        dy = ap[..., 1] - tt * ab[None, :, 1]
        out[lo:lo + 4096] = (dx * dx + dy * dy).min(axis=1)
    return np.sqrt(out.astype(np.float64))


def _polylines_to_segments(polys):
    a, b = [], []
    for poly in polys:
        a.append(poly[:-1])
        b.append(poly[1:])
    if not a:
        return np.zeros((0, 2)), np.zeros((0, 2))
    return np.concatenate(a), np.concatenate(b)


SKY_VALUE = 0.05
GROUND_VALUE = 0.45
RENDER_FAR = 75.0


def _render_camera(cam: Camera, marking_polys, crosswalk_polys):
    """Ray-cast the ground plane and shade lane markings, ego frame."""
    h, w = cam.height, cam.width
    uu, vv = np.meshgrid(np.arange(w) + 0.5, np.arange(h) + 0.5)
    dirs_cam = np.stack([(uu - cam.cx) / cam.fx, (vv - cam.cy) / cam.fy,
                         np.ones_like(uu)], axis=-1)
    dirs_ego = dirs_cam @ cam.r  # == dirs_cam @ (r^T)^T, rows transform back
    center = -cam.r.T @ cam.t
    dz = dirs_ego[..., 2]
    with np.errstate(divide="ignore", invalid="ignore"):
        t_hit = np.where(dz < -1e-9, -center[2] / dz, np.inf)
    gx = center[0] + t_hit * dirs_ego[..., 0]
    gy = center[1] + t_hit * dirs_ego[..., 1]
    ground = np.isfinite(t_hit) & (t_hit > 0) & (np.hypot(gx, gy) <= RENDER_FAR)

    img = np.full((h, w), SKY_VALUE)
    pts = np.stack([gx[ground], gy[ground]], axis=1)
    val = np.full(len(pts), GROUND_VALUE)

    ma, mb = _polylines_to_segments(marking_polys)
    if len(ma):
        d = _min_dist_to_segments(pts, ma, mb)
        alpha = np.clip((0.18 - d) / 0.08, 0.0, 1.0)
        val = np.maximum(val, GROUND_VALUE + (1.0 - GROUND_VALUE) * alpha)
    ca, cb = _polylines_to_segments(crosswalk_polys)
    if len(ca):
        d = _min_dist_to_segments(pts, ca, cb)
        alpha = np.clip((0.6 - d) / 0.1, 0.0, 1.0)
        val = np.maximum(val, GROUND_VALUE + 0.4 * alpha)

    img[ground] = val
    return np.round(img * 255.0) / 255.0


def _render_frame(cams, lanes, crosswalks, pose):
    markings = []
    for item in lanes:
        center = _world_to_ego(densify_polyline(item["centerline"], 6.0), pose)
        keep = np.hypot(center[:, 0], center[:, 1]) < RENDER_FAR + 10
        if not keep.any():
            continue
        center = center[keep]  # lanes are simple arcs; the kept run is contiguous
        if len(center) < 2:
            continue
        normals = polyline_normals(center)
        half = item["width"] / 2.0
        markings.append(center + normals * half)
        markings.append(center - normals * half)
    cw = [_world_to_ego(item["centerline"], pose) for item in crosswalks]
    return np.stack([_render_camera(c, markings, cw)[None] for c in cams])


# ---------------------------------------------------------------------------
# generation


def generate_scene(seed: int, scenario_kind: str, params: GenParams | None = None) -> Scene:
    """Procedurally build one scene; fully determined by (seed, kind, params)."""
    if scenario_kind not in SCENARIO_KINDS:
        raise ValueError(f"unknown scenario kind {scenario_kind!r}; valid: {SCENARIO_KINDS}")
    p = params or GenParams()
    rng = np.random.default_rng(seed)
    if scenario_kind == "intersection":
        speed = float(rng.uniform(3.0, 4.5))
        lanes, crosswalks, ego_path = _intersection_world(rng, p.frames, speed)
    else:
        speed = float(rng.uniform(3.0, 6.0))
        if scenario_kind == "straight":
            lanes, crosswalks, ego_path = _straight_world(rng)
        else:
            lanes, crosswalks, ego_path = _curve_world(rng)

    poses = _ego_poses(ego_path, speed, p.frames, straight=scenario_kind == "straight")
    cams = build_camera_rig()
    frames, gt = [], []
    for k, pose in enumerate(poses):
        images = _render_frame(cams, lanes, crosswalks, pose)
        frames.append(MultiViewFrame(images, cams, pose, k))
        gt.append(_gt_for_frame(lanes, crosswalks, pose, p.n_points))
    return Scene(f"scene_{seed:08d}", frames, gt, scenario_kind, seed)


def scenario_for_seed(seed: int) -> str:
    return SCENARIO_KINDS[seed % len(SCENARIO_KINDS)]


# ---------------------------------------------------------------------------
# on-disk format


def _write_pgm(path, img):
    h, w = img.shape
    data = np.round(img * 255.0).astype(np.uint8)
    with open(path, "wb") as f:
        f.write(f"P5\n{w} {h}\n255\n".encode())
        f.write(data.tobytes())


def _read(path):
    """The file's bytes; InventoryError if it is missing."""
    if not os.path.isfile(path):
        raise InventoryError(f"{os.path.dirname(path)}: missing {os.path.basename(path)}")
    with open(path, "rb") as f:
        return f.read()


def _read_pgm(path):
    raw = _read(path)
    # magic, width, height, maxval; a field is empty where the file ends early
    header = re.match(rb"\s*(\S*)\s*(\S*)\s*(\S*)\s*(\S*)", raw)
    try:
        if header[1] != b"P5":
            raise ParseError(path, 0, f"not a binary PGM (magic {header[1]!r})")
        w, h, maxval = int(header[2]), int(header[3]), int(header[4])
        if not 1 <= maxval <= 255:
            raise ParseError(path, header.start(4), f"PGM maxval {maxval} outside 1..255")
        pos = header.end() + 1  # single whitespace after maxval
        pixels = np.frombuffer(raw[pos:pos + w * h], dtype=np.uint8)
        if pixels.size != w * h:
            raise ParseError(path, pos, f"truncated pixel data: {pixels.size} of {w * h} bytes")
        return pixels.reshape(h, w).astype(np.float64) / maxval
    except (ValueError, IndexError) as e:
        raise ParseError(path, 0, f"malformed PGM header: {e}") from None


def _seg_to_line(frame_idx, seg: LaneSegment) -> str:
    def pts(a):
        return " ".join(f"{fmt9(x)} {fmt9(y)}" for x, y in a)
    return (f"SEG {frame_idx} {seg.class_id} {len(seg.centerline)} "
            f"{pts(seg.centerline)} | {pts(seg.left_boundary)} | {pts(seg.right_boundary)}")


def save_dataset(scenes, out_dir):
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "manifest.txt"), "w") as f:
        f.write(f"version {FORMAT_VERSION}\n")
        for sc in scenes:
            f.write(f"scene {sc.scene_id}\n")
    for sc in scenes:
        sdir = os.path.join(out_dir, sc.scene_id)
        os.makedirs(sdir, exist_ok=True)
        for frame in sc.frames:
            for k in range(len(frame.cameras)):
                _write_pgm(os.path.join(sdir, f"frame_{frame.t_index}_cam_{k}.pgm"),
                           frame.images[k, 0])
        with open(os.path.join(sdir, "annotations.txt"), "w") as f:
            f.write(f"META {sc.scenario_kind} {sc.seed} {len(sc.frames)}\n")
            for k, cam in enumerate(sc.frames[0].cameras):
                r = " ".join(fmt9(v) for v in cam.r.reshape(-1))
                t = " ".join(fmt9(v) for v in cam.t)
                f.write(f"CAM {k} {fmt9(cam.fx)} {fmt9(cam.fy)} {fmt9(cam.cx)} {fmt9(cam.cy)} {r} {t}\n")
            for frame in sc.frames:
                x, y, yaw = frame.ego_pose
                f.write(f"EGO {frame.t_index} {fmt9(x)} {fmt9(y)} {fmt9(yaw)}\n")
            for idx, segs in enumerate(sc.groundtruth):
                for seg in segs:
                    f.write(_seg_to_line(idx, seg) + "\n")


def _frame_index(parts, meta):
    """An EGO or SEG record's frame index, which must lie in META's frame range."""
    fr = int(parts[1])
    if meta is None:
        raise ValueError(f"{parts[0]} record before META")
    if fr not in range(meta[2]):
        raise ValueError(f"{parts[0]} frame {fr} outside 0..{meta[2] - 1}")
    return fr


def _lines(path):
    """(byte offset, line) for each newline-separated line of the file, as bytes."""
    offset = 0
    for line in _read(path).split(b"\n"):
        yield offset, line
        offset += len(line) + 1


def _parse_annotations(path):
    meta = None
    cams_raw = {}
    egos = {}
    segs = {}
    for line_off, line in _lines(path):
        text = line.decode("utf-8", errors="replace").strip()
        if not text or text.startswith("#"):
            continue
        parts = text.split()
        try:
            if parts[0] == "META":
                if meta is not None:
                    raise ValueError("duplicate META record")
                meta = (parts[1], int(parts[2]), int(parts[3]))
                if meta[2] < 1:
                    raise ValueError(f"META frame count {meta[2]} is not positive")
            elif parts[0] == "CAM":
                k = int(parts[1])
                if k not in range(len(CAMERA_ORDER)):
                    raise ValueError(f"CAM index {k} outside 0..{len(CAMERA_ORDER) - 1}")
                if k in cams_raw:
                    raise ValueError(f"duplicate CAM record {k}")
                vals = [float(v) for v in parts[2:]]
                if len(vals) != 16:
                    raise ValueError(f"CAM needs 16 floats, got {len(vals)}")
                cams_raw[k] = vals
            elif parts[0] == "EGO":
                fr = _frame_index(parts, meta)
                if fr in egos:
                    raise ValueError(f"duplicate EGO record {fr}")
                egos[fr] = (float(parts[2]), float(parts[3]), float(parts[4]))
            elif parts[0] == "SEG":
                fr, cls, n = _frame_index(parts, meta), int(parts[2]), int(parts[3])
                if cls not in CLASS_NAMES:
                    raise ValueError(f"SEG class {cls} not in {sorted(CLASS_NAMES)}")
                blob = " ".join(parts[4:])
                chunks = [c.split() for c in blob.split("|")]
                if len(chunks) != 3:
                    raise ValueError("SEG needs centerline | left | right")
                arrs = []
                for c in chunks:
                    vals = [float(v) for v in c]
                    if len(vals) != 2 * n:
                        raise ValueError(f"expected {2 * n} coords, got {len(vals)}")
                    arrs.append(np.array(vals).reshape(n, 2))
                segs.setdefault(fr, []).append(LaneSegment(arrs[0], arrs[1], arrs[2], cls, 1.0))
            else:
                raise ValueError(f"unknown record {parts[0]!r}")
        except (ValueError, IndexError) as e:
            raise ParseError(path, line_off, str(e)) from None
    if meta is None:
        raise ParseError(path, 0, "missing META line")
    for k in range(max(cams_raw, default=0) + 1):   # save_dataset writes CAM 0..n-1
        if k not in cams_raw:
            raise ParseError(path, 0, f"missing CAM record {k}")
    return meta, cams_raw, egos, segs


def load_dataset(dir_path, ids=None) -> list[Scene]:
    """The manifest's scenes in its order, or only those in ``ids``; only these are read."""
    manifest = os.path.join(dir_path, "manifest.txt")
    listed = []
    for line_off, line in _lines(manifest):
        try:
            parts = line.decode().split()
            if not parts:
                continue
            if parts[0] not in ("version", "scene"):
                raise ValueError(f"unknown manifest record {parts[0]!r}")
            if len(parts) != 2:
                raise ValueError(f"{parts[0]} record needs one value, got {len(parts) - 1}")
            if parts[0] == "scene":
                if parts[1] in listed:
                    raise ValueError(f"duplicate scene record {parts[1]!r}")
                listed.append(parts[1])
            elif int(parts[1]) != FORMAT_VERSION:
                raise UnsupportedVersionError(
                    f"dataset format version {parts[1]} unsupported (expected {FORMAT_VERSION})")
        except ValueError as e:   # UnicodeDecodeError included
            raise ParseError(manifest, line_off, str(e)) from None
    if ids is not None:
        unknown = sorted(set(ids).difference(listed))
        if unknown:
            raise InventoryError(f"{dir_path}: scene ids not in the dataset: {', '.join(unknown)}")
        listed = [sid for sid in listed if sid in ids]
    return [_load_scene(dir_path, sid) for sid in listed]


def _split_path(dir_path, name):
    return os.path.join(dir_path, f"split_{name}.txt")


def write_split(dir_path, name, scene_ids):
    with open(_split_path(dir_path, name), "w") as f:
        f.writelines(sid + "\n" for sid in scene_ids)


def has_split(dir_path, name) -> bool:
    return os.path.isfile(_split_path(dir_path, name))


def read_split(dir_path, name) -> list[str]:
    """The scene ids, one a line, of the split ``name`` that ``write_split`` wrote."""
    path = _split_path(dir_path, name)
    try:
        text = _read(path).decode()
    except UnicodeDecodeError as e:
        raise ParseError(path, e.start, f"invalid UTF-8 byte 0x{e.object[e.start]:02x}") from None
    return [line.strip() for line in text.split("\n") if line.strip()]


def _load_scene(dir_path, scene_id) -> Scene:
    sdir = os.path.join(dir_path, scene_id)
    ann = os.path.join(sdir, "annotations.txt")
    meta, cams_raw, egos, segs = _parse_annotations(ann)
    kind, seed, n_frames = meta
    # image size from the first camera file
    first = _read_pgm(os.path.join(sdir, "frame_0_cam_0.pgm"))
    h, w = first.shape
    cameras = []
    for k in sorted(cams_raw):
        fx, fy, cx, cy, *rest = cams_raw[k]
        cameras.append(Camera(CAMERA_ORDER[k], fx, fy, cx, cy,
                              np.array(rest[:9]).reshape(3, 3), np.array(rest[9:]), w, h))
    frames = []
    gt = []
    for t in range(n_frames):
        images = np.empty((len(cameras), 1, h, w))
        for k in range(len(cameras)):
            path = os.path.join(sdir, f"frame_{t}_cam_{k}.pgm")
            img = first if t == k == 0 else _read_pgm(path)
            if img.shape != (h, w):
                raise ParseError(path, 0, f"image is {img.shape[1]}x{img.shape[0]}, "
                                          f"frame_0_cam_0.pgm is {w}x{h}")
            images[k, 0] = img
        if t not in egos:
            raise ParseError(ann, 0, f"missing EGO record for frame {t}")
        frames.append(MultiViewFrame(images, cameras, egos[t], t))
        gt.append(segs.get(t, []))
    return Scene(scene_id, frames, gt, kind, seed)

"""Training loop: Adam with decoupled weight decay, global grad-norm
clipping, seeded shuffling, CSV loss logging, and bit-exact checkpoints.

Parameters and both Adam moments are each one buffer of the parameters'
dtype, with the named arrays as views into it in sorted name order, so
clipping and Adam are a few whole-buffer numpy operations in that dtype.  A
fresh run packs float32 parameters; a resumed one keeps its checkpoint's.

A checkpoint captures everything the numerical trajectory depends on
(parameters, Adam moments, RNG state, config hash), so an interrupted run
resumed from disk is bit-identical to an uninterrupted one.  Diagnostic
resume modes deliberately drop parts of that state to study the resulting
loss jump.
"""

from __future__ import annotations

import itertools
import math
import os
import struct
import time
import zlib
from dataclasses import dataclass, field, replace

import numpy as np

from .config import EXPERIMENT_PRESETS, ConfigFileError
from .evaluation import evaluate
from .model import groundtruth_by_frame, init_model_params, predict_scene, scene_loss
from .tensor import Tape

CHECKPOINT_MAGIC = b"LBCK"
CHECKPOINT_VERSION = 3
RNG_STATE_BYTES = 60   # PCG64 tag, state, increment, has_uint32, uinteger


class NonFiniteGradientError(FloatingPointError):
    pass


class TrainingDivergedError(FloatingPointError):
    pass


class CheckpointError(ValueError):
    pass


class ConfigHashMismatchError(CheckpointError):
    pass


# ---------------------------------------------------------------------------
# optimizer


def _views(flat, like):
    """Views of ``flat`` shaped like ``like`` (name -> array or shape), laid
    end to end in sorted name order."""
    views, end = {}, 0
    for name in sorted(like):
        shape = getattr(like[name], "shape", like[name])
        size = math.prod(shape)
        views[name] = flat[end:end + size].reshape(shape)
        end += size
    return views


def _pack(arrays, dtype=None):
    """Copy ``arrays`` into one new buffer of ``dtype`` (by default the
    arrays' own, promoted); returns its views by name."""
    return _views(np.concatenate([np.ravel(arrays[k]) for k in sorted(arrays)] or [[]],
                                 dtype=dtype), arrays)


def _flat(section):
    """The one buffer the arrays of ``section`` view in sorted name order.  A
    dict of separate arrays is packed in place first."""
    arrays = list(section.values())
    flat = arrays[0].base if arrays else np.empty(0)
    packed = (isinstance(flat, np.ndarray) and flat.ndim == 1
              and flat.size == sum(a.size for a in arrays) and all(a.base is flat for a in arrays))
    if not packed:
        section.update(_pack(section))
        flat = next(iter(section.values())).base
    return flat


def init_adam_state(params) -> dict:
    """Zero moments in one buffer each, of the parameters' dtype."""
    zeros = np.zeros(sum(np.size(a) for a in params.values()), np.result_type(*params.values()))
    return {"step": 0, "m": _views(zeros, params), "v": _views(zeros.copy(), params)}


def _live_runs(params, live):
    """(parameter slice, gradient slice) per maximal run of consecutive names,
    in sorted order, that have a gradient: one run when all of them do."""
    runs, at, lived = [], 0, 0
    for is_live, names in itertools.groupby(sorted(params), live.__contains__):
        size = sum(params[k].size for k in names)
        if is_live:
            runs.append((slice(at, at + size), slice(lived, lived + size)))
            lived += size
        at += size
    return runs


def adam_step(params, grads, state, lr, betas=(0.9, 0.999), eps=1e-8,
              weight_decay=0.0):
    """One in-place Adam update with bias correction and decoupled weight
    decay, over the flat buffers of params, m and v.  Parameters without a
    gradient this step are left untouched (their moments do not advance
    either).  The gradients serve as scratch space and are overwritten."""
    b1, b2 = betas
    live = {k: grads[k] for k in sorted(params) if grads.get(k) is not None}
    g = _flat(live)
    if not np.isfinite(g).all():   # a bad gradient leaves no partial update
        bad = next(k for k, a in live.items() if not np.isfinite(a).all())
        raise NonFiniteGradientError(f"non-finite gradient for {bad}")
    p, m, v = _flat(params), _flat(state["m"]), _flat(state["v"])
    state["step"] += 1
    t = state["step"]
    tmp = np.empty_like(g)
    for ps, gs in _live_runs(params, live):
        pr, mr, vr, gr, tr = p[ps], m[ps], v[ps], g[gs], tmp[gs]
        np.multiply(gr, 1 - b1, out=tr)           # m = b1 * m + (1 - b1) * g
        mr *= b1
        mr += tr
        np.multiply(gr, 1 - b2, out=tr)           # v = b2 * v + (1 - b2) * g * g
        tr *= gr
        vr *= b2
        vr += tr
        np.divide(mr, 1 - b1 ** t, out=tr)        # m_hat / (sqrt(v_hat) + eps)
        np.divide(vr, 1 - b2 ** t, out=gr)
        np.sqrt(gr, out=gr)
        gr += eps
        tr /= gr
        np.multiply(pr, weight_decay, out=gr)     # p -= lr * (... + weight_decay * p)
        tr += gr
        tr *= lr
        pr -= tr


def clip_global_norm(grads, max_norm):
    """Scale all gradients so the global L2 norm is at most max_norm.

    The gradients are packed in place into one buffer.  Each name's squares
    are summed on their own and the sums added in sorted name order, so the
    result does not depend on dict insertion order (fresh init vs checkpoint
    load).  The squares are float64, exact for float32 gradients; the scale
    is a Python float, so the buffer is scaled in its own dtype."""
    g = _flat(grads)
    squares = np.multiply(g, g, dtype=np.float64)
    total = np.sqrt(sum(float(sq.sum()) for sq in _views(squares, grads).values()))
    if total > max_norm:
        g *= float(max_norm / (total + 1e-12))
    return total


# ---------------------------------------------------------------------------
# logging


@dataclass
class TrainLog:
    """Append-only per-step records plus per-epoch wall-time summaries."""

    steps: list = field(default_factory=list)       # dict per step
    epoch_seconds: list = field(default_factory=list)
    path: str | None = None

    CSV_HEADER = ("step,epoch,loss_total,loss_cls,loss_pts,loss_bnd,wall_ms,grad_norm,lr,clipped,"
                  "fwd_ms,bwd_ms,opt_ms")

    def record(self, step, epoch, parts, wall_ms, grad_norm, lr, clipped, fwd_ms, bwd_ms, opt_ms):
        """Append one step: its loss parts and the stats ``_train_step`` returns."""
        if self.steps and step <= self.steps[-1]["step"]:
            raise ValueError("steps must be strictly increasing")
        row = {"step": step, "epoch": epoch, "wall_ms": wall_ms, **parts,
               "grad_norm": grad_norm, "lr": lr, "clipped": clipped,
               "fwd_ms": fwd_ms, "bwd_ms": bwd_ms, "opt_ms": opt_ms}
        self.steps.append(row)
        if self.path:
            losses = ",".join(f"{parts['loss_' + k]:.9g}" for k in ("total", "cls", "pts", "bnd"))
            stages = ",".join(f"{v:.3f}" for v in (fwd_ms, bwd_ms, opt_ms))
            with open(self.path, "a") as f:
                if f.tell() == 0:
                    f.write(self.CSV_HEADER + "\n")
                f.write(f"{step},{epoch},{losses},{wall_ms:.3f},{float(grad_norm)!r},{float(lr)!r},"
                        f"{int(clipped)},{stages}\n")

    def keep_file_rows(self, step):
        """Cut the log file to its header and its rows up to ``step``.  A row
        that does not start with a step raises ``ValueError`` and cuts nothing."""
        if self.path and os.path.exists(self.path):
            with open(self.path, "r+b") as f:
                header, *rows = f.read().splitlines(keepends=True) or [b""]
                for line, row in enumerate(rows, start=2):
                    if not row.split(b",")[0].isdigit():
                        raise ValueError(f"{self.path}: line {line} has no step: {row!r}")
                kept = itertools.takewhile(lambda row: int(row.split(b",")[0]) <= step, rows)
                f.truncate(len(header) + sum(map(len, kept)))

    def losses(self):
        return [r["loss_total"] for r in self.steps]


# ---------------------------------------------------------------------------
# checkpoint format: versioned little-endian; one name-and-shape table, one
# flat payload per section (params, Adam m, Adam v) and a CRC-32 trailer


def _prefixed(b):
    return struct.pack("<Q", len(b)) + b


class _Reader:
    """Bounds-checked reads from the front of a checkpoint's bytes."""

    def __init__(self, data):
        self.data, self.at = data, 0

    def take(self, n):
        if n > len(self.data) - self.at:
            raise CheckpointError("truncated checkpoint")
        self.at += n
        return self.data[self.at - n:self.at]

    def unpack(self, fmt):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def prefixed(self):
        """A length-prefixed byte string."""
        (n,) = self.unpack("<Q")
        if n > len(self.data) - self.at:
            raise CheckpointError(f"truncated checkpoint: length prefix {n} > "
                                  f"{len(self.data) - self.at} bytes left")
        return self.take(n)

    def text(self, what):
        try:
            return str(self.prefixed(), "utf-8")
        except UnicodeDecodeError:
            raise CheckpointError(f"{what} is not UTF-8") from None


def _rng_state_bytes(rng) -> bytes:
    st = rng.bit_generator.state
    if st["bit_generator"] != "PCG64":
        raise CheckpointError(f"unsupported RNG {st['bit_generator']}")
    inner = st["state"]
    return struct.pack("<16s", b"PCG64") + \
        inner["state"].to_bytes(16, "little") + inner["inc"].to_bytes(16, "little") + \
        struct.pack("<IQ", st["has_uint32"], st["uinteger"])


def _rng_from_bytes(b) -> np.random.Generator:
    if len(b) != RNG_STATE_BYTES:
        raise CheckpointError(f"RNG state is {len(b)} bytes, expected {RNG_STATE_BYTES}")
    kind = struct.unpack_from("<16s", b)[0].rstrip(b"\0")
    if kind != b"PCG64":
        raise CheckpointError(f"unsupported RNG {kind!r}")
    state = int.from_bytes(b[16:32], "little")
    inc = int.from_bytes(b[32:48], "little")
    has_uint32, uinteger = struct.unpack_from("<IQ", b, 48)
    if has_uint32 > 1 or uinteger >= 1 << 32:   # PCG64 keeps a flag and a uint32
        raise CheckpointError(f"corrupt RNG state: has_uint32 {has_uint32}, uinteger {uinteger}")
    rng = np.random.default_rng(0)
    rng.bit_generator.state = {"bit_generator": "PCG64",
                               "state": {"state": state, "inc": inc},
                               "has_uint32": has_uint32, "uinteger": uinteger}
    return rng


def save_checkpoint(path, cfg, params, adam, rng, epoch, step, wall_seconds):
    """Atomic (temp file + rename).  Every check runs before the temp file is
    opened; each section's buffer is then written as it is."""
    rng_state, sections = _rng_state_bytes(rng), (params, adam["m"], adam["v"])
    for label, moments in zip("mv", sections[1:]):
        bad = sorted(moments.keys() ^ params.keys()) or [
            k for k in sorted(params) if moments[k].shape != params[k].shape]
        if bad:
            raise CheckpointError(f"Adam {label} disagrees with the parameters at {bad[0]!r}")
    dtypes = {a.dtype.str for s in sections for a in s.values()} or {"<f8"}
    if dtypes not in ({"<f4"}, {"<f8"}):
        raise CheckpointError(f"params and moments need one dtype, <f4 or <f8: {sorted(dtypes)}")
    head = [CHECKPOINT_MAGIC, struct.pack("<I", CHECKPOINT_VERSION),
            _prefixed(cfg.config_hash().encode()), struct.pack("<QQd", epoch, step, wall_seconds),
            _prefixed(rng_state), struct.pack("<Q", len(params))]
    for name in sorted(params):
        shape = params[name].shape
        head += [_prefixed(name.encode()), struct.pack(f"<I{len(shape)}Q", len(shape), *shape)]
    flats = [_flat(s) for s in sections]
    head.append(struct.pack("<IQ", flats[0].itemsize, adam["step"]))
    chunks = [b"".join(head)]
    for flat in flats:
        chunks += [struct.pack("<Q", flat.nbytes), flat]
    crc = 0
    with open(path + ".tmp", "wb") as f:
        for chunk in chunks:
            f.write(chunk)
            crc = zlib.crc32(chunk, crc)
        f.write(struct.pack("<I", crc))
    os.replace(path + ".tmp", path)


def load_checkpoint(path):
    """Parse the structure, check the CRC, then copy each section's payload
    into one fresh buffer and check its values."""
    with open(path, "rb") as f:
        r = _Reader(memoryview(f.read()))
    try:
        if r.take(4) != CHECKPOINT_MAGIC:
            raise CheckpointError("not a checkpoint file")
        (version,) = r.unpack("<I")
        if version != CHECKPOINT_VERSION:
            raise CheckpointError(f"unsupported checkpoint version {version}")
        cfg_hash = r.text("config hash")
        epoch, step, wall = r.unpack("<QQd")
        rng = _rng_from_bytes(r.prefixed())
        shapes = {}   # names strictly increasing, the order the payloads are laid out in
        for _ in range(r.unpack("<Q")[0]):
            name, last = r.text("corrupt array record: a name"), next(reversed(shapes), None)
            if last is not None and name <= last:
                raise CheckpointError(f"corrupt array record: {name!r} after {last!r}")
            (ndim,) = r.unpack("<I")
            shapes[name] = r.unpack(f"<{ndim}Q")
        width, adam_t = r.unpack("<IQ")
        count = sum(map(math.prod, shapes.values()))
        payloads = [r.prefixed() for _ in range(3)]
        if width not in (4, 8) or {len(p) for p in payloads} != {count * width}:
            raise CheckpointError(f"corrupt array record: payloads of {[len(p) for p in payloads]} "
                                  f"bytes for {count} elements of width {width}")
        (crc,) = r.unpack("<I")
        if r.at != len(r.data):
            raise CheckpointError("trailing bytes after the checkpoint")
        if zlib.crc32(r.data[:-4]) != crc:
            raise CheckpointError("CRC-32 mismatch")
        sections = [_views(np.frombuffer(p, f"<f{width}").astype(f"f{width}"), shapes)
                    for p in payloads]
        # a non-finite value or a negative second moment poisons the next step
        for label, section in zip(("parameter", "Adam m", "Adam v"), sections):
            def bad(a):
                return not np.isfinite(a).all() or label == "Adam v" and (a < 0).any()
            if bad(_flat(section)):
                k = next(k for k, a in section.items() if bad(a))
                raise CheckpointError(f"{label} {k!r} is non-finite or negative")
    except CheckpointError as e:   # every message names the file, once
        raise CheckpointError(f"{path}: {e}") from None
    adam = {"step": adam_t, "m": sections[1], "v": sections[2]}
    return {"config_hash": cfg_hash, "epoch": epoch, "step": step,
            "wall_seconds": wall, "rng": rng, "params": sections[0], "adam": adam}


def restore_checkpoint(path, cfg):
    """load_checkpoint, refusing a checkpoint saved under another config."""
    ck = load_checkpoint(path)
    if ck["config_hash"] != cfg.config_hash():
        raise ConfigHashMismatchError(
            f"{path}: checkpoint hash {ck['config_hash']} != config hash {cfg.config_hash()}")
    return ck


# ---------------------------------------------------------------------------
# training


def _lr_at(cfg, step):
    if cfg.warmup_steps > 0 and step <= cfg.warmup_steps:
        return cfg.learning_rate * step / cfg.warmup_steps
    return cfg.learning_rate


def _train_step(scene, params, adam, cfg):
    """One optimizer step; returns the loss parts and the step's stats (pre-clip
    gradient norm, learning rate, whether clipping fired, stage wall ms)."""
    t0 = time.perf_counter()
    tape = Tape()
    leaves = {k: tape.leaf(v) for k, v in params.items()}
    loss, parts = scene_loss(scene, leaves, cfg)
    if not np.isfinite(loss.data):
        raise TrainingDivergedError(f"non-finite loss {float(loss.data)}")
    t1 = time.perf_counter()
    tape.backward(loss)
    t2 = time.perf_counter()
    grads = {k: t.grad for k, t in leaves.items() if t.grad is not None}
    del leaves   # the leaves' gradients are freed once clipping packs them
    norm = clip_global_norm(grads, cfg.grad_clip)
    lr = _lr_at(cfg, adam["step"] + 1)
    adam_step(params, grads, adam, lr, (cfg.beta1, cfg.beta2), cfg.adam_eps, cfg.weight_decay)
    stages = dict(zip(("fwd_ms", "bwd_ms", "opt_ms"), np.diff([t0, t1, t2, time.perf_counter()]) * 1e3))
    return parts, {"grad_norm": norm, "lr": lr, "clipped": bool(norm > cfg.grad_clip), **stages}


def train(cfg, scenes, checkpoint_dir=None, log_path=None, resume_from=None,
          drop_optimizer_state=False, drop_rng_state=False):
    """Train over scenes for cfg.epochs; returns (TrainLog, params, adam).

    resume_from continues a saved checkpoint; the config hash must match.
    The CSV log at log_path keeps only its rows before the first new step.
    The diagnostic flags discard the named part of the restored state so
    the post-resume loss jump can be studied.  Groundtruth polylines must
    have cfg.n_points points, and no frame more segments than cfg.n_queries,
    checked before the first step.
    """
    if not scenes:
        raise ValueError("dataset is empty")
    counts = {len(line) for s in scenes for gts in s.groundtruth for gt in gts
              for line in (gt.centerline, gt.left_boundary, gt.right_boundary)}
    if counts - {cfg.n_points}:
        raise ConfigFileError(f"groundtruth polylines have {sorted(counts)} points, "
                              f"but n_points = {cfg.n_points}")
    most = max((len(gts) for s in scenes for gts in s.groundtruth), default=0)
    if most > cfg.n_queries:
        raise ConfigFileError(f"a frame has {most} groundtruth segments, "
                              f"but n_queries = {cfg.n_queries}")
    scenes = sorted(scenes, key=lambda s: s.scene_id)
    if resume_from is not None:
        ck = restore_checkpoint(resume_from, cfg)
        params = ck["params"]
        adam = init_adam_state(params) if drop_optimizer_state else ck["adam"]
        rng = np.random.default_rng(cfg.seed) if drop_rng_state else ck["rng"]
        epoch_start, step, wall = ck["epoch"], ck["step"], ck["wall_seconds"]
    else:
        rng = np.random.default_rng(cfg.seed)
        params = _pack(init_model_params(cfg, rng), np.float32)
        adam = init_adam_state(params)
        epoch_start, step, wall = 0, 0, 0.0

    log = TrainLog(path=log_path)
    log.keep_file_rows(step)
    if checkpoint_dir:
        os.makedirs(checkpoint_dir, exist_ok=True)

    def save(epoch):
        if checkpoint_dir:
            save_checkpoint(os.path.join(checkpoint_dir, f"ckpt_epoch_{epoch}.bin"),
                            cfg, params, adam, rng, epoch, step, wall)

    if cfg.epochs <= epoch_start:
        save(epoch_start)
        return log, params, adam

    for epoch in range(epoch_start, cfg.epochs):
        t_epoch = time.perf_counter()
        order = rng.permutation(len(scenes))
        for idx in order:
            t_step = time.perf_counter()
            parts, stats = _train_step(scenes[idx], params, adam, cfg)
            step += 1
            log.record(step, epoch, parts, (time.perf_counter() - t_step) * 1e3, **stats)
        seconds = time.perf_counter() - t_epoch
        wall += seconds
        log.epoch_seconds.append(seconds)
        done = epoch + 1
        if done % cfg.checkpoint_every == 0 or done == cfg.epochs:
            save(done)
    return log, params, adam


# ---------------------------------------------------------------------------
# experiment suite


# per-step wall time and its forward / backward / optimizer split, in ms
STEP_MS = ("wall_ms", "fwd_ms", "bwd_ms", "opt_ms")


def run_experiment_suite(train_scenes, eval_scenes, cfg):
    """Train every preset of ``EXPERIMENT_PRESETS``, in order, and compare
    sec/epoch, mAP and matched Chamfer. A preset sets only its backbone and
    encoder/decoder depths on ``cfg``. Returns a list of row dicts (preset,
    epochs, sec_per_epoch, map, the median per-step wall_ms, fwd_ms, bwd_ms
    and opt_ms, and chamfer: ``EvalReport.matched_chamfer_mean``)."""
    if cfg.epochs < 1:   # an untrained preset has no epoch or step times to report
        raise ConfigFileError(f"the suite trains every preset, but epochs = {cfg.epochs}")
    gts = groundtruth_by_frame(eval_scenes)
    rows = []
    for name, preset in EXPERIMENT_PRESETS.items():
        run_cfg = replace(cfg, **preset)
        log, params, _ = train(run_cfg, train_scenes)
        preds = {k: v for sc in eval_scenes for k, v in predict_scene(sc, params, run_cfg).items()}
        report = evaluate(preds, gts)
        rows.append({"preset": name, "epochs": run_cfg.epochs,
                     "sec_per_epoch": float(np.mean(log.epoch_seconds)),
                     "map": report.map_value,
                     **{k: float(np.median([r[k] for r in log.steps])) for k in STEP_MS},
                     "chamfer": report.matched_chamfer_mean})
    return rows


def format_suite_table(rows) -> str:
    lines = [f"{'preset':<18} {'epochs':>6} {'sec/epoch':>10} {'mAP':>8}"
             + "".join(f" {k:>8}" for k in STEP_MS) + f" {'chamfer':>8}"]
    for r in rows:
        lines.append(f"{r['preset']:<18} {r['epochs']:>6d} "
                     f"{r['sec_per_epoch']:>10.2f} {r['map']:>8.4f}"
                     + "".join(f" {r[k]:>8.1f}" for k in STEP_MS) + f" {r['chamfer']:>8.3f}")
    return "\n".join(lines)

"""The benchmark's workloads, their output checks and their metrics.

All three are closed loops with one client: the next step or scene starts
only when the previous one has finished.  Inputs come from ``--seed``: each
set holds three scenes with consecutive seeds, so ``scenario_for_seed``
cycles through straight, curve and intersection scenes.

- ``train``: ``trainer.train`` on preset baseline-3:6 over 2-frame scenes,
  one epoch per call, each resumed from the previous epoch's checkpoint as
  ``lanebev resume`` does, until ``--seconds`` have passed.  Spatial
  cross-attention (SCA) dominates.
- ``train-coarse``: the same loop on a 13x7 grid with one pillar height and
  100 queries.  SCA is a small share; backbone, decoder and matching grow.
  Runnable by name, but not in BENCHMARK.json: a third workload leaves too
  short a window per run within the set's time budget to be steady.
- ``infer``: params from ``trainer.load_checkpoint``, ``model.predict_scene``
  over 4-frame scenes and one ``evaluation.evaluate`` per pass over them.
  Tape-free, so backward and optimizer changes must not show here.

Set-up generates and saves the scene set in a child process (generate.py),
loads it, writes an untrained epoch-0 checkpoint and warms up.  It runs
SETUP_REPEATS times and ``setup_s`` is the median.

The reference kernel of calibrate.py runs between units of work, and every
end-to-end time is reported calibrated against it as well as raw: the host's
speed drifts too much between runs for raw wall times to be steady.

Every lanebev function is called through its module attribute so that the
traced run's wrappers (tracer.py) see the call.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import struct
import subprocess
import sys
import time
import traceback

import numpy as np
import scipy

from lanebev import config, dataset, evaluation, model, trainer

import calibrate
from generate import scene_digest
from tracer import Tracer, exact_counts

SCENES_PER_SET = 3
SETUP_REPEATS = 3
# Early train steps page-fault heavily until glibc's mmap threshold has grown
# past the tape's arrays (about 8 steps at baseline-3:6); each set-up warms up
# with two steps so that the timed window starts near the steady state.
WARMUP_STEPS = 2
HELD_OUT_OFFSET = 1000   # infer scenes are not the same seed's train scenes


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    frames: int
    training: bool
    overrides: dict

    def config(self, seed):
        return config.preset_config("baseline-3:6", seed=seed, epochs=1,
                                    checkpoint_every=1, **self.overrides)

    def scene_seeds(self, seed):
        base = seed * SCENES_PER_SET + (0 if self.training else HELD_OUT_OFFSET)
        return [base + i for i in range(SCENES_PER_SET)]


WORKLOADS = {w.name: w for w in (
    Workload("train", 2, True, {}),
    Workload("train-coarse", 2, True,
             {"bev_h": 13, "bev_w": 7, "n_pillar_heights": 1, "n_queries": 100}),
    Workload("infer", 4, False, {}),
)}


class Window:
    """A timed window: units of work done in intervals (one inference scene
    or one training epoch), with the reference kernel timed before the first
    interval, after each one and, in training, after every step.

    Each interval is calibrated by the mean of the reference times from the
    one before it to the one after it; a training step by the two around it.
    """

    def __init__(self):
        self.refs = [calibrate.reference_ms()]
        self.intervals = []     # (wall seconds, units, latencies in ms, first ref, last ref)
        self.passes = 0
        self._first = 0         # the reference run before the current interval
        self._inside_s = 0.0    # reference time spent inside the current interval
        self.t0 = time.perf_counter()

    def elapsed(self):
        return time.perf_counter() - self.t0

    def step_reference(self):
        """Run the reference kernel inside the current interval."""
        t0 = time.perf_counter()
        self.refs.append(calibrate.reference_ms())
        self._inside_s += time.perf_counter() - t0

    def child_references(self, times_ms):
        """Count the reference runs a child process made inside the current
        interval."""
        self.refs += times_ms
        self._inside_s += sum(times_ms) / 1e3

    def add(self, wall, units, latencies):
        """Close an interval of ``wall`` seconds that did ``units`` units of
        work; the reference runs inside it are taken out of its time."""
        self.refs.append(calibrate.reference_ms())
        self.intervals.append((wall - self._inside_s, units, latencies,
                               self._first, len(self.refs) - 1))
        self._first = len(self.refs) - 1
        self._inside_s = 0.0

    @property
    def units(self):
        return sum(iv[1] for iv in self.intervals)

    @property
    def latencies(self):
        return [x for iv in self.intervals for x in iv[2]]

    def _scales(self):
        """(scale, per-latency scales) of each interval."""
        for _, _, lat, first, last in self.intervals:
            refs = self.refs[first:last + 1]
            k = calibrate.NOMINAL_MS / statistics.mean(refs)
            each = calibrate.scales(refs[:-1]) if len(refs) == len(lat) + 2 else [k] * len(lat)
            yield k, each

    def cal_latencies(self):
        return [x * k for iv, (_, ks) in zip(self.intervals, self._scales())
                for x, k in zip(iv[2], ks)]

    def busy(self):
        """Raw and calibrated seconds spent in the intervals, which leave out
        the reference kernel's own runs."""
        return (sum(iv[0] for iv in self.intervals),
                sum(iv[0] * k for iv, (k, _) in zip(self.intervals, self._scales())))

    def throughput(self):
        """Units per second of raw and of calibrated busy time."""
        busy, cal = self.busy()
        return self.units / busy, self.units / cal


@contextlib.contextmanager
def reference_after_each_step(win):
    """Time the reference kernel after every training step, outside the
    step's own timer: ``trainer.train`` looks up ``TrainLog`` in its module
    and records each step once its timer has stopped."""
    base = trainer.TrainLog

    class Log(base):
        def record(self, *args, **kwargs):
            super().record(*args, **kwargs)
            win.step_reference()

    trainer.TrainLog = Log
    try:
        yield
    finally:
        trainer.TrainLog = base


class Run:
    """State of one benchmark run: inputs, checks, failures and timings."""

    def __init__(self, workload, seed, work_dir):
        self.w = workload
        self.seed = seed
        self.work = work_dir
        self.cfg = workload.config(seed)
        self.checks = {}
        self.errors = []
        self.attempted = 0
        self.failed = 0
        self.final = None

    def check(self, name, ok, detail=None):
        self.checks[name] = bool(ok) and self.checks.get(name, True)
        error = f"{name}: {detail}" if detail else name
        if not ok and error not in self.errors:
            self.errors.append(error)

    def subdir(self, name):
        path = os.path.join(self.work, name)
        shutil.rmtree(path, ignore_errors=True)
        os.makedirs(path)
        return path

    # -- set-up: dataset generate, save and load, model init or checkpoint
    # load, warm-up -------------------------------------------------------

    def setup(self):
        """Set up; returns the raw and the calibrated seconds it took.  The
        set-up is one interval of a Window, with the reference kernel run
        between scenes in the generating process, after it and after each
        warm-up step, as the set-up spends most of its time there."""
        win = Window()
        ts = time.perf_counter()
        data_dir = self.subdir("data")
        made = _generate(data_dir, self.w.frames, self.w.scene_seeds(self.seed))
        win.child_references(made["reference_ms"])
        win.step_reference()
        loaded = dataset.load_dataset(data_dir)
        # model init: an untrained epoch-0 checkpoint, as `lanebev train` with 0 epochs writes
        init_dir = self.subdir("init")
        trainer.train(dataclasses.replace(self.cfg, epochs=0), loaded, checkpoint_dir=init_dir)
        self.init_ckpt = os.path.join(init_dir, "ckpt_epoch_0.bin")
        if self.w.training:
            with reference_after_each_step(win):
                trainer.train(dataclasses.replace(self.cfg, epochs=WARMUP_STEPS), loaded[:1],
                              checkpoint_dir=self.subdir("warmup"))
        else:
            self.ckpt = trainer.load_checkpoint(self.init_ckpt)
            if self.ckpt["config_hash"] != self.cfg.config_hash():
                raise RuntimeError("checkpoint config hash differs from the workload config")
            self.params = self.ckpt["params"]
            model.predict_scene(loaded[0], self.params, self.cfg)    # warm-up
        win.add(time.perf_counter() - ts, 0, [])
        self.check("dataset_round_trip", scene_digest(loaded) == made["digest"],
                   "loaded scenes differ from generated")
        self.scenes = loaded
        self.generated = made
        return win.busy()

    # -- timed windows ----------------------------------------------------

    def window(self, seconds, min_passes):
        """Run the closed loop for about ``seconds``; returns the Window."""
        gc.collect()
        run = self._train_window if self.w.training else self._infer_window
        win = run(seconds, min_passes)
        win.wall = win.elapsed()
        return win

    def _train_window(self, seconds, min_passes):
        """Epoch by epoch, each one a ``trainer.train`` resumed from the last
        epoch's checkpoint (bit-identical to one uninterrupted run), until the
        window has lasted ``seconds``."""
        ckpt_dir = self.subdir("train")
        log_path = os.path.join(ckpt_dir, "train_log.csv")
        steps, epoch, resume = [], 0, self.init_ckpt
        win = Window()
        try:
            while epoch < min_passes or win.elapsed() < seconds:
                epoch += 1
                cfg = dataclasses.replace(self.cfg, epochs=epoch)
                ts = time.perf_counter()
                with reference_after_each_step(win):
                    log, params, adam = trainer.train(cfg, self.scenes, checkpoint_dir=ckpt_dir,
                                                      log_path=log_path, resume_from=resume)
                win.add(time.perf_counter() - ts, len(log.steps),
                        [r["wall_ms"] for r in log.steps])
                win.passes = epoch
                steps += log.steps
                resume = os.path.join(ckpt_dir, f"ckpt_epoch_{epoch}.bin")
        except Exception:      # a failed step ends the loop; count it and report
            done = 0
            if os.path.exists(log_path):
                with open(log_path) as f:
                    done = max(sum(1 for _ in f) - 1, 0)     # minus the header
            self.attempted += done + 1
            self.failed += 1
            self.check("train_completed", False, traceback.format_exc(limit=3))
            return win
        wall = win.elapsed()
        losses = [r["loss_total"] for r in steps]
        bad = sum(1 for x in losses if not np.isfinite(x))
        self.attempted += len(losses)
        self.failed += bad
        self.check("losses_finite", bad == 0, f"{bad} non-finite losses")
        self.final = (cfg, params, adam, len(losses), wall)
        self.ckpt_dir = ckpt_dir
        self.losses = losses
        return win

    def _infer_window(self, seconds, min_passes):
        gts = model.groundtruth_by_frame(self.scenes)
        digests = []
        win = Window()
        while win.passes < min_passes or win.elapsed() < seconds:
            preds = {}
            for scene in self.scenes:
                n = len(scene.frames)
                self.attempted += n
                ts = time.perf_counter()
                try:
                    out = model.predict_scene(scene, self.params, self.cfg)
                except Exception:   # count the scene's frames as failed and go on
                    self.failed += n
                    self.check("predict_completed", False, traceback.format_exc(limit=3))
                    continue
                wall = time.perf_counter() - ts
                win.add(wall, n, [wall * 1e3 / n])
                bad = sum(1 for segs in out.values() if not _finite(segs))
                self.failed += bad
                self.check("predictions_finite", bad == 0, f"{bad} frames with non-finite output")
                preds.update(out)
            if len(preds) == len(gts):
                evaluation.evaluate(preds, gts)
            digests.append(pred_digest(preds))
            win.passes += 1
        self.check("predictions_repeat", len(set(digests)) == 1,
                   "predictions differ between passes over the same scenes")
        self.pred_digest = digests[0]
        return win

    # -- output checks after the window -----------------------------------

    def after_window_checks(self):
        gts = model.groundtruth_by_frame(self.scenes)
        oracle = {k: [dataclasses.replace(g, score=1.0) for g in v] for k, v in gts.items()}
        self.check("oracle_map_is_1", evaluation.evaluate(oracle, gts).map_value == 1.0)

        path = os.path.join(self.subdir("roundtrip"), "after_window.bin")
        self.checkpoint_bytes = None
        if self.w.training and self.final is None:
            return                   # the window failed; already reported
        if self.w.training:
            cfg, params, adam, steps, wall = self.final
            rng = np.random.default_rng(self.seed)
            trainer.save_checkpoint(path, cfg, params, adam, rng, cfg.epochs, steps, wall)
            expect = {"params": params, "adam": adam, "rng": rng, "step": steps}
            # predictions after the first epoch are independent of the window length
            first = trainer.load_checkpoint(os.path.join(self.ckpt_dir, "ckpt_epoch_1.bin"))
            preds = {}
            for scene in self.scenes:
                preds.update(model.predict_scene(scene, first["params"], self.cfg))
            self.check("predictions_finite", all(_finite(s) for s in preds.values()))
            self.pred_digest = pred_digest(preds)
        else:
            ck = self.ckpt
            trainer.save_checkpoint(path, self.cfg, ck["params"], ck["adam"], ck["rng"],
                                    ck["epoch"], ck["step"], ck["wall_seconds"])
            expect = ck
        back = trainer.load_checkpoint(path)
        self.check("checkpoint_round_trip", _same_checkpoint(back, expect),
                   "checkpoint saved after the window did not load back bit-identical")
        self.checkpoint_bytes = os.path.getsize(path)

    def loss_record(self):
        if not self.w.training:
            return {"loss_digest": None, "loss_trace": None}
        first = self.losses[:SCENES_PER_SET]
        return {"loss_digest": hashlib.sha256(
                    " ".join(float(x).hex() for x in first).encode()).hexdigest(),
                "loss_trace": first}


def _generate(out_dir, frames, seeds):
    """Generate and save a scene set in a child process (generate.py)."""
    here = os.path.dirname(os.path.abspath(__file__))
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(dataset.__file__)))
    proc = subprocess.run([sys.executable, os.path.join(here, "generate.py"), out_dir,
                           str(frames), *map(str, seeds)],
                          env=env, capture_output=True, text=True, timeout=120)
    if proc.returncode:
        raise RuntimeError(f"scene generation failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _finite(segs):
    return all(np.isfinite(s.centerline).all() and np.isfinite(s.left_boundary).all()
               and np.isfinite(s.right_boundary).all() and np.isfinite(s.score)
               for s in segs)


def pred_digest(preds):
    h = hashlib.sha256()
    for key in sorted(preds):
        h.update(key.encode())
        for s in preds[key]:
            for arr in (s.centerline, s.left_boundary, s.right_boundary):
                h.update(np.ascontiguousarray(arr, dtype="<f8").tobytes())
            h.update(struct.pack("<qd", s.class_id, s.score))
    return h.hexdigest()


def _same_checkpoint(back, expect):
    def same(a, b):
        return a.keys() == b.keys() and all(
            a[k].dtype == b[k].dtype and np.array_equal(a[k], b[k]) for k in a)
    return (same(back["params"], expect["params"])
            and same(back["adam"]["m"], expect["adam"]["m"])
            and same(back["adam"]["v"], expect["adam"]["v"])
            and back["adam"]["step"] == expect["adam"]["step"]
            and back["step"] == expect["step"]
            and back["rng"].bit_generator.state == expect["rng"].bit_generator.state)


def tail(latencies):
    """Highest nearest-rank percentile with at least ten samples beyond it."""
    n = len(latencies)
    if n < 11:
        return {"value": None, "percentile": None, "samples": n}
    rank = n - 10
    return {"value": sorted(latencies)[rank - 1], "percentile": 100.0 * rank / n, "samples": n}


# ---------------------------------------------------------------------------
# the two kinds of run


def _set_up(w, seed, work):
    """Set up SETUP_REPEATS times; the last set-up's state is the one used.
    Returns the run and the raw and calibrated set-up times."""
    setups = []
    for _ in range(SETUP_REPEATS):
        r = Run(w, seed, work)
        setups.append(r.setup())
    raw, cal = zip(*setups)
    return r, list(raw), list(cal)


def run_untraced(w, seed, seconds, work):
    r, setups, cal_setups = _set_up(w, seed, work)
    win = r.window(seconds, 1)
    if not win.units:
        raise RuntimeError("the timed window completed no work: " + "; ".join(r.errors))
    r.after_window_checks()
    latencies, cal_latencies = win.latencies, win.cal_latencies()
    throughput, cal_throughput = win.throughput()
    metrics = {
        "cal_throughput_per_s": cal_throughput,
        "cal_latency_ms_p50": statistics.median(cal_latencies),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": statistics.median(cal_setups),
    }
    detail = {
        "unit_of_work": "train step" if w.training else "inference frame",
        "units": win.units, "window_s": win.wall, "passes": win.passes,
        "raw": {"throughput_per_s": throughput,
                "latency_ms_p50": statistics.median(latencies),
                "latency_ms_tail": tail(latencies),
                "setup_s": statistics.median(setups)},
        "cal_latency_ms_tail": tail(cal_latencies),
        "latency_ms_samples": latencies,
        "reference_ms_samples": win.refs,
        "failed_ratio": r.failed / max(r.attempted, 1),
        "setup_s_samples": setups,
        "cal_setup_s_samples": cal_setups,
        "pred_digest": r.pred_digest, **r.loss_record(),
    }
    return r, metrics, detail


def run_traced(w, seed, seconds, work, root):
    tracer = Tracer()
    tracer.install()
    try:
        tracer.active = True
        r, _, _ = _set_up(w, seed, work)
        tracer.active = False

        faults0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        win_u = r.window(seconds / 2, 1)
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults0
        untraced_digest = r.loss_record()["loss_digest"] if w.training else r.pred_digest

        tracer.active = tracer.window = True
        win_t = r.window(seconds / 2, 2)
        tracer.window = False
        tracer.item = None
        r.after_window_checks()
        tracer.active = False
    finally:
        tracer.uninstall()

    traced_digest = r.loss_record()["loss_digest"] if w.training else r.pred_digest
    r.check("tracing_keeps_outputs", traced_digest == untraced_digest,
            "traced and untraced windows gave different outputs")

    units_u, units_t, passes = win_u.units, win_t.units, win_t.passes
    # a pass is one epoch (one item) in training and one scene set in inference
    per_pass = tracer.n_items // passes
    units_pass = len(r.scenes) if w.training else sum(len(s.frames) for s in r.scenes)
    pass_counts = [tracer.item_totals(range(p * per_pass, (p + 1) * per_pass))
                   for p in range(passes)]
    exact = [exact_counts(c) for c, _ in pass_counts]
    r.check("exact_counts_repeat", all(e == exact[0] for e in exact),
            "exact counts differ between passes over the same inputs")
    _check_expected_calls(r, exact[0])
    _check_counts_across_runs(r, exact[0], root)

    window_self = tracer.self_seconds(window_only=True)
    all_self = tracer.self_seconds(window_only=False)
    per_unit_ms = {name: s * 1e3 / units_t for name, (s, _) in window_self.items()}
    _, backward_s = tracer.item_totals(range(tracer.n_items))
    c0 = exact[0]

    def per_call_ms(name):
        s, n = all_self.get(name, (0.0, 0))
        return s * 1e3 / n if n else None

    sca_hit = c0.get("bev_encoder.sca.queries_hit", 0)
    sca_att = c0.get("bev_encoder.sca.queries_attended", 0)
    made = r.generated
    layers = {
        "backbone.ms": per_unit_ms.get("backbone"),
        "bev_encoder.ms": per_unit_ms.get("bev_encoder"),
        "bev_encoder.tsa.ms": per_unit_ms.get("bev_encoder.tsa"),
        "bev_encoder.tsa.calls": c0.get("bev_encoder.tsa.calls", 0) / units_pass,
        "bev_encoder.sca.ms": per_unit_ms.get("bev_encoder.sca"),
        "bev_encoder.sca.calls": c0.get("bev_encoder.sca.calls", 0) / units_pass,
        "bev_encoder.sca.queries_attended": sca_att / units_pass,
        "bev_encoder.sca.queries_hit": sca_hit / units_pass,
        "bev_encoder.sca.useful_ratio": sca_hit / sca_att if sca_att else None,
        "deform.calls": c0.get("deform.calls", 0) / units_pass,
        "deform.bilinear_calls": c0.get("deform.bilinear_calls", 0) / units_pass,
        "deform.samples": c0.get("deform.samples", 0) / units_pass,
        "lane_decoder.ms": per_unit_ms.get("lane_decoder"),
        "heads.ms": sum(v for k, v in per_unit_ms.items() if k.startswith("heads.")) or None,
        "model.self_ms": per_unit_ms.get("model"),
        "tensor.tape_ops": c0.get("tensor.tape_ops", 0) / units_pass,
        "trainer.checkpoint_save.ms": per_call_ms("trainer.checkpoint_save"),
        "trainer.checkpoint_load.ms": per_call_ms("trainer.checkpoint_load"),
        "trainer.checkpoint_bytes": r.checkpoint_bytes,
        "dataset.generate.ms_per_frame": made["generate_s"] * 1e3 / made["frames"],
        "dataset.load.ms": per_call_ms("dataset.load"),
        "evaluation.ms": per_call_ms("evaluation"),
        "process.minor_faults_per_step": faults / units_u,
        "trace.overhead_ratio": win_t.throughput()[1] / win_u.throughput()[1],
    }
    # layers a workload does not reach (backward, optimizer and loss on
    # infer) are left out and their wrap points listed as missing, never 0
    train_only = {
        "tensor.backward.ms": per_unit_ms.get("tensor.backward"),
        "trainer.optimizer.ms": per_unit_ms.get("trainer.optimizer"),
        "heads.loss.ms": per_unit_ms.get("heads.loss"),
        "heads.matching.ms": per_unit_ms.get("heads.matching"),
        **{f"{k}.ms": v * 1e3 / units_t for k, v in sorted(backward_s.items())},
        **{k: v / units_pass for k, v in c0.items() if k.startswith("tensor.tape_ops.")},
    }
    if not w.training:
        r.check("infer_tape_free", c0.get("tensor.tape_ops", 0) == 0,
                "inference recorded tape ops")
    unmeasured = sorted(k for k, v in layers.items() if v is None)
    r.check("every_layer_measured", not unmeasured, f"no measurement for {unmeasured}")
    metrics = {k: v for k, v in layers.items() if v is not None}
    detail = {
        "unit_of_work": "train step" if w.training else "inference frame",
        "traced_units": units_t, "traced_window_s": win_t.wall, "passes": passes,
        "untraced_units": units_u, "untraced_window_s": win_u.wall,
        "per_layer_train_only": {k: v for k, v in train_only.items() if v is not None},
        "missing": tracer.missing(),
        "exact_counts_per_pass": exact[0],
        "self_ms_per_unit": per_unit_ms,
        "failed_ratio": r.failed / max(r.attempted, 1),
        "pred_digest": r.pred_digest, **r.loss_record(),
    }
    return r, metrics, detail, tracer


def _check_expected_calls(r, counts):
    """Call counts a pass must show, as implied by the config."""
    cfg, n = r.cfg, len(r.scenes)
    frames = sum(len(s.frames) for s in r.scenes)
    expect = {
        "backbone.calls": frames,
        "bev_encoder.calls": frames,
        "bev_encoder.tsa.calls": cfg.n_encoder_layers * frames,
        "bev_encoder.sca.calls": cfg.n_encoder_layers * frames,
        "lane_decoder.calls": frames,
    }
    if r.w.training:
        expect.update({
            "trainer.calls": 1,                      # one resumed train() per epoch
            "heads.loss.calls": frames,
            "tensor.backward.calls": n,
            "trainer.optimizer.calls": 2 * n,        # clip + adam per step
            "trainer.checkpoint_save.calls": 1,      # one per epoch
            "trainer.checkpoint_load.calls": 1,      # resumed every epoch
        })
    else:
        expect.update({"heads.predict.calls": frames, "evaluation.calls": 1})
    wrong = {k: (counts.get(k, 0), v) for k, v in expect.items() if counts.get(k, 0) != v}
    r.check("expected_call_counts", not wrong, f"(seen, expected): {wrong}")


def _check_counts_across_runs(r, counts, root):
    """Exact counts must repeat across runs of the same program, benchmark
    and seed."""
    digest = source_digest(root, "src/lanebev", "perfbench")[:16]
    path = os.path.join(root, ".perfbench", "counts", f"{digest}-{r.w.name}-{r.seed}.json")
    if os.path.exists(path):
        with open(path) as f:
            previous = json.load(f)
        r.check("exact_counts_repeat_across_runs", previous == counts,
                f"counts differ from the earlier run recorded in {path}")
    else:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as f:
            json.dump(counts, f, sort_keys=True)


# ---------------------------------------------------------------------------
# provenance


def source_digest(root, *dirs):
    """sha256 over the .py files of the given directories under root."""
    h = hashlib.sha256()
    for d in dirs:
        for name in sorted(os.listdir(os.path.join(root, d))):
            if name.endswith(".py"):
                h.update(f"{d}/{name}".encode())
                with open(os.path.join(root, d, name), "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def _git_rev(root):
    if not os.path.isdir(os.path.join(root, ".git")):
        return None
    try:
        out = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def provenance(w, seed, seconds, trace, root, cfg):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": w.name, "seed": seed, "seconds": seconds, "trace": trace,
        "git_rev": _git_rev(root), "src_sha256": source_digest(root, "src/lanebev"),
        "bench_sha256": source_digest(root, "perfbench"),
        "scene_seeds": w.scene_seeds(seed), "frames_per_scene": w.frames,
        "config": dataclasses.asdict(cfg),
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }

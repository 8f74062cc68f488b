"""Generate and save one scene set in a process of its own, as
``lanebev gen-data`` does, so that generation's memory stays out of the
benchmark process's peak RSS.

    python3 perfbench/generate.py OUT_DIR FRAMES SEED [SEED ...]

Prints one JSON line: seconds spent generating and saving, frames made, the
digest of the generated scenes and the times of the reference kernel
(calibrate.py), which runs before the first scene and after each one so that
the benchmark can calibrate this process's time as well.
"""

import hashlib
import json
import sys
import time

import numpy as np

from lanebev import dataset

import calibrate


def scene_digest(scenes):
    """sha256 over every value a scene carries: images, cameras, poses and
    groundtruth."""
    h = hashlib.sha256()

    def arr(a):
        h.update(np.ascontiguousarray(a, dtype="<f8").tobytes())

    for sc in scenes:
        h.update(f"{sc.scene_id} {sc.scenario_kind} {sc.seed}".encode())
        for frame in sc.frames:
            arr(frame.images)
            arr(frame.ego_pose)
            for cam in frame.cameras:
                arr([cam.fx, cam.fy, cam.cx, cam.cy, cam.width, cam.height])
                arr(cam.r)
                arr(cam.t)
        for segs in sc.groundtruth:
            for s in segs:
                h.update(str(s.class_id).encode())
                arr(s.centerline)
                arr(s.left_boundary)
                arr(s.right_boundary)
    return h.hexdigest()


def main(out_dir, frames, seeds):
    gen = dataset.GenParams(frames=frames)
    scenes, generate_s, refs = [], 0.0, [calibrate.reference_ms()]
    for s in seeds:
        t0 = time.perf_counter()
        scenes.append(dataset.generate_scene(s, dataset.scenario_for_seed(s), gen))
        generate_s += time.perf_counter() - t0
        refs.append(calibrate.reference_ms())
    t0 = time.perf_counter()
    dataset.save_dataset(scenes, out_dir)
    save_s = time.perf_counter() - t0
    print(json.dumps({"generate_s": generate_s, "save_s": save_s,
                      "frames": frames * len(seeds), "digest": scene_digest(scenes),
                      "reference_ms": refs}))


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]), [int(s) for s in sys.argv[3:]])

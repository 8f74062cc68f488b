"""Command-line entry point.

Subcommands: gen-data, train, resume, eval, flops, suite, viz.
Exit codes: 0 success, 1 runtime error, 2 usage error.
"""

from __future__ import annotations

import argparse
import os
import sys

from .backbone import BACKBONE_PRESETS, count_flops, count_macs, flops_table
from .config import ConfigFileError, load_config
from .dataset import (generate_scene, has_split, load_dataset, read_split, save_dataset,
                      scenario_for_seed, write_split)
from .evaluation import evaluate
from .model import groundtruth_by_frame, predict_scene
from .trainer import format_suite_table, restore_checkpoint, run_experiment_suite, train


class UsageError(ValueError):
    pass


def _print_config(cfg):
    print("# resolved config")
    print(cfg.resolved_text())


def _load_cfg(args):
    cfg = load_config(args.config, args.set or [])
    _print_config(cfg)
    return cfg


def cmd_gen_data(args):
    if args.scenes <= 0:
        raise UsageError("--scenes must be positive")
    if os.path.exists(args.out) and (not os.path.isdir(args.out) or os.listdir(args.out)):
        raise UsageError(f"--out {args.out} must be a new or empty directory")
    if args.split:
        try:
            n_train, n_test = (int(x) for x in args.split.split(":"))
        except ValueError:
            raise UsageError(f"--split must be A:B, got {args.split!r}") from None
        if n_train + n_test != args.scenes or n_train <= 0 or n_test <= 0:
            raise UsageError(f"split {args.split} does not partition {args.scenes} scenes")
    print(f"# gen-data seed={args.seed} scenes={args.scenes} "
          f"split={args.split or '-'} out={args.out}")
    scenes = [generate_scene(args.seed + i, scenario_for_seed(args.seed + i))
              for i in range(args.scenes)]
    save_dataset(scenes, args.out)
    if args.split:
        for name, chunk in (("train", scenes[:n_train]), ("test", scenes[n_train:])):
            write_split(args.out, name, [sc.scene_id for sc in chunk])
    print(f"wrote {len(scenes)} scenes to {args.out}")


def _load_split(data_dir, split):
    """The dataset's scenes, or only those of the named split."""
    return load_dataset(data_dir, read_split(data_dir, split) if split else None)


def cmd_train(args):
    """train, and resume (whose parser adds --checkpoint and the drop flags)."""
    cfg = _load_cfg(args)
    scenes = _load_split(args.data, args.split)
    log, params, adam = train(cfg, scenes, checkpoint_dir=args.out,
                              log_path=os.path.join(args.out, "train_log.csv"),
                              resume_from=args.checkpoint,
                              drop_optimizer_state=args.drop_optimizer_state,
                              drop_rng_state=args.drop_rng_state)
    if args.checkpoint:
        print(f"resumed to epoch {cfg.epochs}, {len(log.steps)} new steps")
    elif log.steps:
        print(f"trained {cfg.epochs} epochs, {len(log.steps)} steps, "
              f"final loss {log.losses()[-1]:.4f}")
    else:
        print("trained 0 epochs (untrained checkpoint written)")


def cmd_eval(args):
    if not (args.oracle or args.checkpoint):
        raise UsageError("eval needs --checkpoint (or --oracle)")
    cfg = _load_cfg(args)
    scenes = _load_split(args.data, args.split)
    gts = groundtruth_by_frame(scenes)
    if args.oracle:
        preds = gts   # loaded segments carry score 1.0
    else:
        params = restore_checkpoint(args.checkpoint, cfg)["params"]
        preds = {k: v for sc in scenes for k, v in predict_scene(sc, params, cfg).items()}
    text = evaluate(preds, gts).to_text()
    print(text, end="")
    if args.out:
        with open(args.out, "w") as f:
            f.write(text)
        print(f"report written to {args.out}")


def cmd_flops(args):
    if args.preset not in BACKBONE_PRESETS:
        raise UsageError(f"unknown preset {args.preset!r}; "
                         f"valid: {', '.join(sorted(BACKBONE_PRESETS))}")
    print(f"# flops preset={args.preset}")
    cfg = BACKBONE_PRESETS[args.preset]
    for name, flops in flops_table(cfg):
        print(f"{name:<28} {flops:>14,}")
    macs = count_macs(cfg)
    print(f"{'total MACs':<28} {macs:>14,}")
    print(f"{'total FLOPs (2 per MAC)':<28} {count_flops(cfg):>14,}")
    r50 = count_macs(BACKBONE_PRESETS["resnet50-shape"])
    r18 = count_macs(BACKBONE_PRESETS["resnet18-shape"])
    print(f"depth-50 / depth-18 MAC ratio: {r50 / r18:.3f}")


def cmd_suite(args):
    cfg = _load_cfg(args)
    split = args.split or ("train" if has_split(args.data, "train") else None)
    train_scenes = _load_split(args.data, split)
    eval_dir = args.eval_data or args.data
    eval_scenes = _load_split(eval_dir, "test" if has_split(eval_dir, "test") else None)
    rows = run_experiment_suite(train_scenes, eval_scenes, cfg)
    table = format_suite_table(rows)
    print(table)
    if args.out:
        with open(args.out, "w") as f:
            f.write(table + "\n")


def cmd_viz(args):
    cfg = _load_cfg(args)
    scene, = load_dataset(args.data, [args.scene])
    preds_by_frame = {}
    if args.checkpoint:
        params = restore_checkpoint(args.checkpoint, cfg)["params"]
        preds_by_frame = predict_scene(scene, params, cfg)
    from .viz import render_frame_svg, validate_svg
    extent = (cfg.bev_x_min, cfg.bev_x_max, cfg.bev_y_min, cfg.bev_y_max)
    os.makedirs(args.out, exist_ok=True)
    for t in range(len(scene.frames)):
        preds = preds_by_frame.get(f"{scene.scene_id}/frame_{t}")
        svg = render_frame_svg(scene.groundtruth[t], preds, extent)
        validate_svg(svg)
        path = os.path.join(args.out, f"{scene.scene_id}_frame_{t}.svg")
        with open(path, "w") as f:
            f.write(svg)
        print(f"wrote {path}")


def build_parser():
    p = argparse.ArgumentParser(prog="lanebev",
                                description="lane-topology BEV pipeline tools")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, split=True):
        sp.add_argument("--data", required=True, help="dataset directory")
        if split:
            sp.add_argument("--split", help="dataset split name (train/test)")
        sp.add_argument("--config", help="key = value config file")
        sp.add_argument("--set", action="append", metavar="KEY=VALUE",
                        help="config override, repeatable")

    g = sub.add_parser("gen-data", help="generate a synthetic dataset")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--scenes", type=int, required=True)
    g.add_argument("--split", help="train:test scene counts, e.g. 12:4")
    g.add_argument("--out", required=True)
    g.set_defaults(fn=cmd_gen_data)

    t = sub.add_parser("train", help="train a model")
    common(t)
    t.add_argument("--out", required=True, help="checkpoint directory")
    t.set_defaults(fn=cmd_train, checkpoint=None, drop_optimizer_state=False,
                   drop_rng_state=False)

    r = sub.add_parser("resume", help="resume training from a checkpoint")
    common(r)
    r.add_argument("--checkpoint", required=True)
    r.add_argument("--out", required=True)
    r.add_argument("--drop-optimizer-state", action="store_true",
                   help="diagnostic: reset Adam moments at resume")
    r.add_argument("--drop-rng-state", action="store_true",
                   help="diagnostic: reseed the RNG at resume")
    r.set_defaults(fn=cmd_train)

    e = sub.add_parser("eval", help="evaluate predictions (Chamfer mAP)")
    common(e)
    e.add_argument("--checkpoint")
    e.add_argument("--oracle", action="store_true",
                   help="evaluate groundtruth against itself (sanity check)")
    e.add_argument("--out", help="report file")
    e.set_defaults(fn=cmd_eval)

    f = sub.add_parser("flops", help="backbone FLOPs report")
    f.add_argument("--preset", required=True)
    f.set_defaults(fn=cmd_flops)

    s = sub.add_parser("suite", help="run the 4-preset comparison on the resolved config")
    common(s)
    s.add_argument("--eval-data")
    s.add_argument("--out")
    s.set_defaults(fn=cmd_suite)

    v = sub.add_parser("viz", help="render groundtruth vs prediction SVGs")
    common(v, split=False)
    v.add_argument("--scene", required=True)
    v.add_argument("--checkpoint")
    v.add_argument("--out", required=True)
    v.set_defaults(fn=cmd_viz)
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        args.fn(args)
    except (UsageError, ConfigFileError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failure: report, don't traceback
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

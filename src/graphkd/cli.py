"""Command-line interface for training, distillation, sweeps, and analysis."""

from __future__ import annotations

import argparse
import sys

from .config import ConfigError, load_config
from .harness import (
    SWEEPABLE_PARAMS,
    run_analyze,
    run_distill,
    run_dump_graph,
    run_spectral,
    run_sweep,
    run_train_teacher,
)


def _int_list(raw: str) -> list[int]:
    return [int(part) for part in raw.split(",") if part != ""]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graphkd",
        description="Knowledge distillation through latent-space similarity graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="path to a JSON experiment config")
        p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("train-teacher", help="train the teacher architecture on the task loss")
    common(p)
    p.add_argument("--seed", type=int, default=None, help="defaults to the first config seed")

    p = sub.add_parser("distill", help="train one student per seed under the configured loss")
    common(p)
    p.add_argument("--teacher", default=None, help="teacher checkpoint (KD losses)")
    p.add_argument("--seeds", type=_int_list, default=None, help="comma-separated override")

    p = sub.add_parser("sweep", help="rerun distillation across one parameter's values")
    common(p)
    p.add_argument("--teacher", default=None)
    p.add_argument("--param", required=True, choices=SWEEPABLE_PARAMS)
    p.add_argument("--values", required=True, help="comma-separated parameter values")

    p = sub.add_parser("analyze", help="loss concentration and probe consistency")
    common(p)
    p.add_argument("--teacher", required=True)
    p.add_argument("--student", required=True)
    p.add_argument("--batches", type=int, default=20)
    p.add_argument("--batch-size", type=int, default=256)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("spectral", help="graph smoothness of labels and teacher Fiedler vectors")
    common(p)
    p.add_argument("--teacher", required=True)
    p.add_argument(
        "--student",
        action="append",
        required=True,
        metavar="NAME=PATH",
        help="repeatable; e.g. --student gkd=runs/gkd/seed1/student.ckpt",
    )
    p.add_argument("--sample", type=int, default=1000)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("dump-graph", help="write one tap's similarity graph as a CSV edge list")
    common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--block", default="block1", help="tap name, e.g. block2 or output")
    p.add_argument("--sample", type=int, default=128)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--p", type=int, default=None)
    p.add_argument("--mask", default=None, choices=[None, "all", "inter_class", "intra_class"])
    p.add_argument("--seed", type=int, default=0)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = load_config(args.config)
        if args.command == "train-teacher":
            ckpt = run_train_teacher(config, args.out, seed=args.seed)
            print(f"teacher checkpoint written to {ckpt}")
        elif args.command == "distill":
            result = run_distill(config, args.out, teacher_path=args.teacher, seeds=args.seeds)
            print(
                f"distilled {len(result.seeds)} seed(s); "
                f"median test error {result.median['test_error']:.4f}"
            )
        elif args.command == "sweep":
            values = [v for v in args.values.split(",") if v != ""]
            path = run_sweep(config, args.out, args.param, values, teacher_path=args.teacher)
            print(f"sweep table written to {path}")
        elif args.command == "analyze":
            out = run_analyze(
                config,
                args.out,
                args.teacher,
                args.student,
                n_batches=args.batches,
                batch_size=args.batch_size,
                seed=args.seed,
            )
            print(f"analysis written to {out}")
        elif args.command == "spectral":
            students = {}
            for item in args.student:
                name, sep, path = item.partition("=")
                if not sep or not name or not path:
                    raise ConfigError(f"--student expects NAME=PATH, got {item!r}")
                students[name] = path
            out = run_spectral(
                config,
                args.out,
                args.teacher,
                students,
                sample_size=args.sample,
                k=args.k,
                seed=args.seed,
            )
            print(f"spectral report written to {out}")
        else:  # dump-graph
            out = run_dump_graph(
                config,
                args.out,
                args.checkpoint,
                block=args.block,
                sample_size=args.sample,
                k=args.k,
                p=args.p,
                mask_mode=args.mask,
                seed=args.seed,
            )
            print(f"graph dump written to {out}")
    except (ValueError, OSError, RuntimeError) as err:  # ConfigError is a ValueError
        print(f"error: {err}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

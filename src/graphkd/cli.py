"""Command-line interface for training, distillation, sweeps, and analysis.

``build_parser`` is the one table from subcommand to ``harness`` runner and
stdout formatter.  Each option's ``dest`` is a keyword of its runner, and no
option states a default, so the runner's own default holds for an option
left out.  ``main`` parses, runs and prints; every user-facing error is one
``error: ...`` line on stderr and exit status 2, and a warning that is shown
is one ``warning: ...`` line on stderr.
"""

from __future__ import annotations

import argparse
import sys
import warnings

from .config import MASK_MODES, ConfigError, load_config
from .harness import (SWEEPABLE_PARAMS, run_analyze, run_distill, run_dump_graph,
                      run_spectral, run_sweep, run_train_teacher)


def _str_list(raw: str) -> list[str]:
    return [part for part in raw.split(",") if part != ""]


def _int_list(raw: str) -> list[int]:
    try:
        return [int(part) for part in _str_list(raw)]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {raw!r}"
        ) from None


def _name_path(raw: str) -> tuple[str, str]:
    name, sep, path = raw.partition("=")
    if not sep or not name or not path:
        raise argparse.ArgumentTypeError(f"expected NAME=PATH, got {raw!r}")
    return name, path


def _distilled(result) -> str:
    return (f"distilled {len(result.seeds)} seed(s); "
            f"median test error {result.median['test_error']:.4f}")


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors reach ``main`` as one-line messages,
    instead of a usage block and an exit; its subparsers are of this class too."""

    def error(self, message):
        raise ConfigError(message)


class _Help(argparse.HelpFormatter):
    """Help that names an option's value after the option, not its runner keyword."""

    def _get_default_metavar_for_optional(self, action):
        return action.option_strings[-1].lstrip("-").upper().replace("-", "_")


def build_parser() -> argparse.ArgumentParser:
    """The command table; runners are read from this module's globals per call."""
    parser = _Parser(
        prog="graphkd",
        description="Knowledge distillation through latent-space similarity graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, help, run, report):
        p = sub.add_parser(name, help=help, argument_default=argparse.SUPPRESS,
                           formatter_class=_Help)
        p.set_defaults(run=run, report=report)
        p.add_argument("--config", required=True, help="path to a JSON experiment config")
        p.add_argument("--out", dest="out_dir", required=True, help="output directory")
        return p

    p = command("train-teacher", "train the teacher architecture on the task loss",
                run_train_teacher, "teacher checkpoint written to {}".format)
    p.add_argument("--seed", type=int, help="defaults to the first config seed")

    p = command("distill", "train one student per seed under the configured loss",
                run_distill, _distilled)
    p.add_argument("--teacher", dest="teacher_path", help="teacher checkpoint (KD losses)")
    p.add_argument("--seeds", type=_int_list, help="comma-separated override")

    p = command("sweep", "rerun distillation across one parameter's values",
                run_sweep, "sweep table written to {}".format)
    p.add_argument("--teacher", dest="teacher_path")
    p.add_argument("--param", required=True, choices=SWEEPABLE_PARAMS)
    p.add_argument("--values", type=_str_list, required=True,
                   help="comma-separated parameter values")

    p = command("analyze", "loss concentration and probe consistency",
                run_analyze, "analysis written to {}".format)
    p.add_argument("--teacher", dest="teacher_path", required=True)
    p.add_argument("--student", dest="student_path", required=True)
    p.add_argument("--batches", dest="n_batches", type=int)
    p.add_argument("--batch-size", type=int)
    p.add_argument("--seed", type=int)

    p = command("spectral", "graph smoothness of labels and teacher Fiedler vectors",
                run_spectral, "spectral report written to {}".format)
    p.add_argument("--teacher", dest="teacher_path", required=True)
    p.add_argument("--student", dest="student_paths", type=_name_path, action="append",
                   required=True, metavar="NAME=PATH",
                   help="repeatable; e.g. --student gkd=runs/gkd/seed1/student.ckpt")
    p.add_argument("--sample", dest="sample_size", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--seed", type=int)

    p = command("dump-graph", "write one tap's similarity graph as a CSV edge list",
                run_dump_graph, "graph dump written to {}".format)
    p.add_argument("--checkpoint", dest="checkpoint_path", required=True)
    p.add_argument("--block", help="tap name, e.g. block2 or output")
    p.add_argument("--sample", dest="sample_size", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--p", type=int)
    p.add_argument("--mask", dest="mask_mode", choices=MASK_MODES)
    p.add_argument("--seed", type=int)
    return parser


def main(argv=None) -> int:
    # a warning that is shown is one line, without its source location; the
    # filters, and whatever records warnings instead, are left as they are
    format_warning = warnings.formatwarning
    warnings.formatwarning = lambda message, *_: f"warning: {message}\n"
    try:
        args = vars(build_parser().parse_args(argv))
        del args["command"]
        run, report, config = args.pop("run"), args.pop("report"), args.pop("config")
        print(report(run(load_config(config), **args)))
    except (ValueError, OSError, RuntimeError) as err:  # ConfigError is a ValueError
        print(f"error: {err}", file=sys.stderr)
        return 2
    finally:
        warnings.formatwarning = format_warning
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

"""One set-up of a benchmark run, in a fresh interpreter.

run.py times this whole process, so setup_s counts interpreter start and the
graphkd import as well as writing the configs and running the set-up ops.

    python3 perfbench/prepare.py --workload analysis --seed 0 --dir <work dir>
"""

from __future__ import annotations

import argparse
import contextlib
import io
import sys
from pathlib import Path

from workloads import WORKLOADS, check_op, write_configs

SRC = Path(__file__).resolve().parent.parent / "src"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", type=Path, required=True)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    from graphkd import cli

    workload = WORKLOADS[args.workload]
    write_configs(workload, args.seed, args.dir)
    outputs = args.dir / "setup"
    for op in workload.setup_ops(args.seed):
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(op.resolve(args.dir, outputs))
        if rc != 0:
            print(f"set-up op {op.label} exited {rc}", file=sys.stderr)
            return 1
        result = check_op(op, op.outdir(outputs))
        if not result.ok:
            print(f"set-up op {op.label}: {'; '.join(result.problems)}", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

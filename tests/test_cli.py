"""The command table: each subcommand maps onto its runner, and each default
is the runner's own."""

import argparse
import ast
import inspect
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from graphkd import cli
from graphkd.cli import build_parser, main
from graphkd.config import load_config
from graphkd.harness import run_analyze, run_dump_graph, run_spectral
from graphkd.models import build_blocknet, save_checkpoint

from conftest import write_config, write_net


def subcommands() -> dict[str, argparse.ArgumentParser]:
    [action] = [a for a in build_parser()._actions
                if isinstance(a, argparse._SubParsersAction)]
    return dict(action.choices)


COMMANDS = list(subcommands())


def test_table_covers_every_command():
    assert COMMANDS == ["train-teacher", "distill", "sweep", "analyze", "spectral", "dump-graph"]


@pytest.mark.parametrize("command", COMMANDS)
def test_every_option_is_a_runner_keyword_without_a_default(command):
    parser = subcommands()[command]
    params = inspect.signature(parser.get_default("run")).parameters
    assert callable(parser.get_default("report"))
    for action in parser._actions:
        if isinstance(action, argparse._HelpAction):
            continue
        assert action.dest in params, f"{action.option_strings} -> {action.dest!r}"
        assert action.default is argparse.SUPPRESS, f"{action.option_strings} states a default"


def test_main_has_no_per_command_branch():
    tree = ast.parse(Path(cli.__file__).read_text())
    [main_def] = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "main"]
    nodes = list(ast.walk(main_def))
    assert not [n for n in nodes if isinstance(n, (ast.If, ast.IfExp, ast.Match))]
    assert not [n for n in nodes if isinstance(n, ast.Constant) and n.value in COMMANDS]


def _files(root: Path) -> dict[str, bytes]:
    return {str(f.relative_to(root)): f.read_bytes() for f in sorted(root.rglob("*"))
            if f.is_file()}


# shallow taps on an untrained or 2-epoch net can leave isolated nodes; the
# degenerate-Fiedler warning is expected behavior, not a failure
@pytest.mark.filterwarnings("ignore:teacher graph.*disconnected:RuntimeWarning")
def test_stdout_line_of_each_command(tmp_path, capsys):
    config = str(write_config(tmp_path, loss="gkd", lambda_kd=1.0, graph={"k": 10}, seeds=[1]))
    runs = {name: tmp_path / name for name in COMMANDS}
    teacher = runs["train-teacher"] / "teacher.ckpt"
    student = runs["distill"] / "seed1" / "student.ckpt"
    lines = {}
    for command, extra in [
        ("train-teacher", []),
        ("distill", ["--teacher", str(teacher)]),
        ("sweep", ["--teacher", str(teacher), "--param", "lambda_kd", "--values", "0.5"]),
        ("analyze", ["--teacher", str(teacher), "--student", str(student),
                     "--batches", "2", "--batch-size", "16"]),
        ("spectral", ["--teacher", str(teacher), "--student", f"gkd={student}",
                      "--sample", "40", "--k", "8"]),
        ("dump-graph", ["--checkpoint", str(teacher), "--sample", "24", "--k", "4"]),
    ]:
        argv = [command, "--config", config, "--out", str(runs[command]), *extra]
        assert main(argv) == 0
        lines[command] = capsys.readouterr().out
    median = json.loads((runs["distill"] / "summary.json").read_text())["median"]["test_error"]
    assert lines == {
        "train-teacher": f"teacher checkpoint written to {teacher}\n",
        "distill": f"distilled 1 seed(s); median test error {median:.4f}\n",
        "sweep": f"sweep table written to {runs['sweep'] / 'sweep.csv'}\n",
        "analyze": f"analysis written to {runs['analyze']}\n",
        "spectral": f"spectral report written to {runs['spectral']}\n",
        "dump-graph": f"graph dump written to {runs['dump-graph']}\n",
    }


# the post-hoc commands with only their required options, and the same run
# through the runner with its own defaults; the dataset's 270 training rows
# hold analyze's default 256-row batch
POST_HOC = {
    "analyze": (["--teacher", "{teacher}", "--student", "{student}"],
                lambda config, out, t, s: run_analyze(config, out, t, s)),
    "spectral": (["--teacher", "{teacher}", "--student", "gkd={student}"],
                 lambda config, out, t, s: run_spectral(config, out, t, [("gkd", s)])),
    "dump-graph": (["--checkpoint", "{teacher}"],
                   lambda config, out, t, s: run_dump_graph(config, out, t)),
}


@pytest.mark.filterwarnings("ignore:teacher graph.*disconnected:RuntimeWarning")
@pytest.mark.parametrize("command", list(POST_HOC))
def test_post_hoc_defaults_are_the_runners(tmp_path, command):
    dataset = {"name": "gaussian_mixture", "n": 360, "classes": 2, "dim": 3,
               "separation": 8.0, "seed": 0, "test_fraction": 0.25}
    config_path = write_config(tmp_path, dataset=dataset)
    paths = {"teacher": write_net(tmp_path, "teacher.ckpt", (12, 12), seed=1),
             "student": write_net(tmp_path, "student.ckpt", (4, 4), seed=2)}
    argv, run = POST_HOC[command]
    assert main([command, "--config", str(config_path), "--out", str(tmp_path / "cli"),
                 *(arg.format(**paths) for arg in argv)]) == 0
    run(load_config(config_path), tmp_path / "runner", paths["teacher"], paths["student"])
    written = _files(tmp_path / "cli")
    assert written and written == _files(tmp_path / "runner")


def test_student_without_a_name_is_a_parse_error(tmp_path, capsys):
    out = tmp_path / "out"
    argv = ["spectral", "--config", str(write_config(tmp_path)), "--out", str(out),
            "--teacher", "t.ckpt", "--student", "x"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: argument --student: expected NAME=PATH, got 'x'\n"
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("command", COMMANDS)
def test_help_names_values_after_their_options(command):
    text = subcommands()[command].format_help()
    assert "--out OUT " in text and "--config CONFIG " in text
    for keyword in ("OUT_DIR", "TEACHER_PATH", "STUDENT_PATH", "N_BATCHES", "SAMPLE_SIZE",
                    "CHECKPOINT_PATH"):
        assert keyword not in text


def _disconnected_teacher_run(tmp_path):
    """A spectral command line whose teacher has all-zero weights: every tap is
    zero, so every teacher graph has no edge and warns that it is disconnected."""
    teacher = build_blocknet((1, 1), (4, 4), input_dim=3, classes=2, seed=1)
    for p in teacher.parameters():
        p.data[:] = 0.0
    save_checkpoint(teacher, tmp_path / "teacher.ckpt")
    student = write_net(tmp_path, "student.ckpt", (4, 4), seed=2)
    return ["spectral", "--config", str(write_config(tmp_path)), "--out", str(tmp_path / "out"),
            "--teacher", str(tmp_path / "teacher.ckpt"), "--student", f"s={student}",
            "--sample", "8"]


DISCONNECTED = [f"teacher graph at {tap} is disconnected; Fiedler vector is degenerate"
                for tap in ("block1", "block2", "output")]


@pytest.mark.parametrize("flag, code, last_line", [
    ("default", 0, "spectral report written to"),
    ("error", 1, f"RuntimeWarning: {DISCONNECTED[0]}"),
], ids=["default", "error"])
def test_a_shown_warning_is_one_line(tmp_path, flag, code, last_line):
    # in a process of its own, where nothing records warnings and they are shown
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-W", flag, "-m", "graphkd.cli",
                           *_disconnected_teacher_run(tmp_path)],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == code
    if flag == "default":
        assert proc.stderr.splitlines() == [f"warning: {text}" for text in DISCONNECTED]
        assert proc.stdout.startswith(last_line)
    else:  # the filters are the interpreter's own: -W error still raises
        assert proc.stderr.splitlines()[-1] == last_line


@pytest.mark.filterwarnings("default")
def test_a_recorder_still_sees_each_warning(tmp_path, recwarn):
    format_warning = warnings.formatwarning
    assert main(_disconnected_teacher_run(tmp_path)) == 0
    assert [str(w.message) for w in recwarn] == DISCONNECTED
    assert warnings.formatwarning is format_warning  # main puts the format back


def test_an_error_filter_still_raises_the_warning(tmp_path):
    # the suite's own filter turns a RuntimeWarning into an error
    with pytest.raises(RuntimeWarning, match="teacher graph at block1 is disconnected"):
        main(_disconnected_teacher_run(tmp_path))

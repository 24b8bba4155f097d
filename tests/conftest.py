import sys
from pathlib import Path

# make the shared oracle helpers importable from every test module
sys.path.insert(0, str(Path(__file__).parent))

from graphkd.config import parse_config


def make_config(**overrides):
    """A desk-sized config dict run through the real parser.

    Defaults train in a couple of seconds; tests override individual keys.
    Nested overrides replace the whole section.
    """
    base = {
        "version": 1,
        "dataset": {
            "name": "gaussian_mixture",
            "n": 160,
            "classes": 2,
            "dim": 3,
            "separation": 6.0,
            "seed": 0,
            "test_fraction": 0.25,
        },
        "teacher": {"depths": [1, 1], "widths": [16, 16]},
        "student": {"depths": [1, 1], "widths": [4, 4]},
        "loss": "vanilla",
        "schedule": {
            "base_lr": 0.1,
            "decay_factor": 0.2,
            "milestones": [2],
            "total_epochs": 3,
        },
        "batch_size": 24,
        "seeds": [1],
    }
    base.update(overrides)
    return parse_config(base)


def tape(loss):
    """Every tensor reachable from ``loss`` through the tape's parent links."""
    seen, stack = {id(loss): loss}, [loss]
    while stack:
        for parent in stack.pop()._parents:
            if id(parent) not in seen:
                seen[id(parent)] = parent
                stack.append(parent)
    return list(seen.values())

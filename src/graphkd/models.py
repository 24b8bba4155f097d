"""Block MLPs with tapped intermediate representations.

A BlockNet is a stack of blocks, each a sequence of affine+ReLU layers of a
fixed per-block width, followed by an affine head producing logits.  The
taps are every block output plus the logits, so distillation losses see one
matrix per tap.  Each layer (affine+ReLU, or the affine head) is one
tape node with a closed-form backward.
"""

from __future__ import annotations

import hashlib
import json
import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .autodiff import Tensor, record
from .config import _INT, _INTS, _REQUIRED, ArchSpec, _is, _section

__all__ = [
    "BlockNet",
    "TapOutput",
    "build_blocknet",
    "forward_with_taps",
    "frozen_forward",
    "save_checkpoint",
    "load_checkpoint",
    "checkpoint_digest",
    "atomic_open",
]

CHECKPOINT_FORMAT_VERSION = 1
OUTPUT_TAP = "output"
# the checkpoint header's schema table: the keys save_checkpoint writes
_HEADER = {"format_version": (_INT, _REQUIRED), "depths": (_INTS, _REQUIRED),
           "widths": (_INTS, _REQUIRED), "input_dim": (_INT, _REQUIRED),
           "classes": (_INT, _REQUIRED)}


@dataclass
class TapOutput:
    """Forward results: one matrix per block plus the logits."""

    taps: list[Tensor]
    logits: Tensor


@dataclass
class BlockNet:
    input_dim: int
    classes: int
    depths: tuple[int, ...]
    widths: tuple[int, ...]
    blocks: list[list[tuple[Tensor, Tensor]]] = field(repr=False)
    head: tuple[Tensor, Tensor] = field(repr=False)

    def parameters(self) -> list[Tensor]:
        params = []
        for block in self.blocks:
            for w, b in block:
                params.extend((w, b))
        params.extend(self.head)
        return params

    def set_requires_grad(self, flag: bool) -> None:
        for p in self.parameters():
            p.requires_grad = bool(flag)
            if flag and p.grad is None:
                p.grad = np.zeros_like(p.data)

    def num_parameters(self) -> int:
        return sum(p.data.size for p in self.parameters())

    @property
    def num_blocks(self) -> int:
        return len(self.blocks)

    def tap_names(self) -> list[str]:
        return [f"block{i}" for i in range(1, self.num_blocks + 1)] + [OUTPUT_TAP]


def build_blocknet(depths, widths, input_dim: int, classes: int, seed: int) -> BlockNet:
    """Construct a BlockNet with scaled-uniform fan-in initialization.

    Every weight and bias is drawn from U(-1/sqrt(fan_in), 1/sqrt(fan_in))
    using a generator seeded with ``seed``, so identical arguments rebuild
    identical parameters.
    """
    arch = ArchSpec(tuple(int(d) for d in depths), tuple(int(w) for w in widths))
    if input_dim < 1 or classes < 2:
        raise ValueError(
            f"need input_dim >= 1 and classes >= 2, got {input_dim} and {classes}"
        )
    input_dim, classes = int(input_dim), int(classes)
    rng = np.random.default_rng(seed)

    def layer(fan_in: int, fan_out: int) -> tuple[Tensor, Tensor]:
        bound = 1.0 / np.sqrt(fan_in)
        w = Tensor(rng.uniform(-bound, bound, size=(fan_in, fan_out)))
        b = Tensor(rng.uniform(-bound, bound, size=(1, fan_out)))
        return w, b

    blocks = []
    prev = input_dim
    for depth, width in zip(arch.depths, arch.widths):
        block = []
        for _ in range(depth):
            block.append(layer(prev, width))
            prev = width
        blocks.append(block)
    head = layer(prev, classes)
    return BlockNet(
        input_dim=input_dim,
        classes=classes,
        depths=arch.depths,
        widths=arch.widths,
        blocks=blocks,
        head=head,
    )


def forward_with_taps(net: BlockNet, batch) -> TapOutput:
    """Forward pass recording each block's output and the logits.

    With trainable parameters the tapped matrices stay on the gradient tape.
    """
    x = batch if isinstance(batch, Tensor) else Tensor(np.asarray(batch, dtype=np.float64))
    if x.data.ndim != 2 or x.data.shape[1] != net.input_dim:
        raise ValueError(
            f"forward_with_taps: batch shape {x.data.shape} does not match "
            f"input_dim {net.input_dim}"
        )
    h = x
    taps = []
    for block in net.blocks:
        for w, b in block:
            h = _layer(h, w, b, relu=True)
        taps.append(h)
    logits = _layer(h, *net.head, relu=False)
    return TapOutput(taps=taps, logits=logits)


def _layer(h: Tensor, w: Tensor, b: Tensor, relu: bool) -> Tensor:
    """``relu((h @ w) + b)``, or ``(h @ w) + b`` for the head, as one tape node.

    The forward and backward run the numpy ops of the generic
    ``relu(add(matmul(h, w), b))`` chain in its order, so values and
    gradients are bitwise equal to it; each operand's gradient is computed
    only if it requires one.
    """
    z = h.data @ w.data
    z += b.data
    if relu:
        np.maximum(z, 0.0, out=z)

    def backward(g: np.ndarray):
        if relu:
            # z is the ReLU output: positive exactly where its input was
            g = g * (z > 0)  # the subgradient at 0 is 0
        return (
            g @ w.data.T if h.requires_grad else None,
            h.data.T @ g if w.requires_grad else None,
            np.sum(g, axis=(0,)).reshape(b.data.shape) if b.requires_grad else None,
        )

    return record(z, (h, w, b), backward)


def frozen_forward(net: BlockNet, batch) -> TapOutput:
    """Forward pass that keeps the parameters off the tape; their flags are restored."""
    flags = [p.requires_grad for p in net.parameters()]
    net.set_requires_grad(False)
    try:
        return forward_with_taps(net, batch)
    finally:
        for p, f in zip(net.parameters(), flags):
            p.requires_grad = f


@contextmanager
def atomic_open(path):
    """Open ``path`` for binary writing so that it appears only once complete.

    Writes go to a temp file in the same directory, which ``os.replace``
    moves over ``path`` when the block exits cleanly.  If the block raises,
    the temp file is removed and any earlier file at ``path`` is untouched.
    The directory is made if missing, so a run directory appears with its
    first artefact, never empty.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        with tmp.open("wb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


# ---------------------------------------------------------------------------
# checkpoints: one JSON header line, then raw little-endian float64 weights
# in block order (each layer W then b, finally the head)


def save_checkpoint(net: BlockNet, path) -> None:
    path = Path(path)
    header = json.dumps(
        {
            "format_version": CHECKPOINT_FORMAT_VERSION,
            "depths": list(net.depths),
            "widths": list(net.widths),
            "input_dim": net.input_dim,
            "classes": net.classes,
        },
        sort_keys=True,
    )
    with atomic_open(path) as fh:
        fh.write(header.encode("utf-8") + b"\n")
        for p in net.parameters():
            fh.write(np.ascontiguousarray(p.data, dtype="<f8").tobytes())


def load_checkpoint(path) -> BlockNet:
    path = Path(path)
    raw = path.read_bytes()
    newline = raw.find(b"\n")
    if newline < 0:
        raise ValueError(f"checkpoint {path}: missing header line")
    try:
        header = json.loads(raw[:newline].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as err:
        raise ValueError(f"checkpoint {path}: malformed header ({err})") from err
    if not isinstance(header, dict):
        raise ValueError(f"checkpoint {path}: header is not a JSON object")
    version = header.get("format_version")
    # JSON true and 1.0 compare equal to 1, so check the type too
    if not _is(version, int) or version != CHECKPOINT_FORMAT_VERSION:
        raise ValueError(
            f"checkpoint {path}: format version {version!r} is not supported "
            f"(expected {CHECKPOINT_FORMAT_VERSION})"
        )
    header = _section(header, _HEADER, f"checkpoint {path}", label="header field {!r}")
    try:
        net = build_blocknet(
            header["depths"], header["widths"], header["input_dim"], header["classes"], seed=0
        )
    except ValueError as err:  # a well-typed header that describes no net
        raise ValueError(f"checkpoint {path}: header: {err}") from None
    payload = raw[newline + 1 :]
    expected = 8 * net.num_parameters()
    if len(payload) != expected:
        raise ValueError(
            f"checkpoint {path}: expected {expected} payload bytes, got {len(payload)}"
        )
    flat = np.frombuffer(payload, dtype="<f8")
    offset = 0
    for p in net.parameters():
        count = p.data.size
        p.data = flat[offset : offset + count].astype(np.float64).reshape(p.data.shape)
        offset += count
    return net


def checkpoint_digest(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()

"""Knowledge distillation through latent-space similarity graphs.

The package couples a small float64 autodiff engine with block-MLP models,
graph construction over batch representations, distillation losses
(IKD / RKD-D / GKD), an SGD training loop, post-hoc analyses, and an
experiment CLI.
"""

import numpy

from .autodiff import Tensor, backward
from .config import ConfigError, DistillConfig, Schedule, load_config, parse_config
from .datasets import (
    DataSplit,
    Dataset,
    gen_gaussian_mixture,
    gen_two_arcs,
    load_idx,
    split_dataset,
)
from .graphs import (
    GraphParams,
    GraphSignal,
    SimilarityGraph,
    build_similarity_graph,
    class_mask,
    fiedler_vector,
    laplacian,
    smoothness,
    symmetric_eig,
)
from .losses import (
    gkd_loss,
    gkd_tap_loss,
    ikd_loss,
    per_example_gkd,
    rkdd_loss,
    task_loss,
)
from .models import (
    BlockNet,
    build_blocknet,
    forward_with_taps,
    load_checkpoint,
    save_checkpoint,
)
from .training import lr_at, sgd_momentum_step, train
from .analysis import (
    LogisticProbe,
    consistency_curve,
    consistency_probe,
    concentration_report,
    loss_concentration,
    spectral_report,
)

# One heap policy for every caller: the CLI, library calls and the tests.  When
# glibc frees an mmapped block of at most 32 MiB, it raises its mmap threshold
# to that block's size and its trim threshold to twice that (mallopt(3)), here
# 24 and 48 MiB.  A training step's batch x batch temporaries then stay on the
# heap, and its freed heap is kept for the next step rather than trimmed and
# faulted back in.  np.empty touches no page of the block, other allocators
# ignore it, and thresholds fixed by MALLOC_* variables or mallopt still hold.
numpy.empty(24 << 20, dtype=numpy.uint8)

__version__ = "0.1.0"

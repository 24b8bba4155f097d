"""Knowledge distillation through latent-space similarity graphs.

The package couples a small float64 autodiff engine with block-MLP models,
graph construction over batch representations, distillation losses
(IKD / RKD-D / GKD), an SGD training loop, post-hoc analyses, and an
experiment CLI.  Import each public name from its module; importing the
package itself only sets the heap policy below.
"""

import numpy

# One heap policy for every caller: the CLI, library calls and the tests.  When
# glibc frees an mmapped block of at most 32 MiB, it raises its mmap threshold
# to that block's size and its trim threshold to twice that (mallopt(3)), here
# 24 and 48 MiB.  A training step's batch x batch temporaries then stay on the
# heap, and its freed heap is kept for the next step rather than trimmed and
# faulted back in.  np.empty touches no page of the block, other allocators
# ignore it, and thresholds fixed by MALLOC_* variables or mallopt still hold.
numpy.empty(24 << 20, dtype=numpy.uint8)

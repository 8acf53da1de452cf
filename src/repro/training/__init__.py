"""Fine-tuning machinery: the cross-boundary penalty and boundary-aware fine-tuning.

The paper fine-tunes every trained scene twice before deployment:

* 3 000 iterations of **boundary-aware fine-tuning** (Sec. III-B) that
  penalises Gaussians spanning voxel boundaries so voxel-by-voxel rendering
  preserves depth order (Fig. 6/7);
* 5 000 iterations of **quantization-aware fine-tuning** (Sec. III-C,
  implemented in :mod:`repro.compression.quantization_aware`).

PyTorch autograd is unavailable in this environment, so the boundary-aware
stage is realised with analytic steps on the cross-boundary penalty and a
parameter-space trust region standing in for the photometric loss; no
optimizer or photometric loss is needed.
"""

from repro.training.losses import cross_boundary_penalty
from repro.training.boundary_finetune import (
    BoundaryFinetuneResult,
    boundary_aware_finetune,
)

__all__ = [
    "cross_boundary_penalty",
    "BoundaryFinetuneResult",
    "boundary_aware_finetune",
]

"""Robust composed-retrieval learning under noisy triplet correspondence.

Subpackages:
  features   token-matrix primitives (row normalization)
  mke        mutual-knowledge cleanliness estimation
  dpl        noise masking, the masked training losses and their gradients
  synth      synthetic noisy-triplet benchmark generator
  train      the batched toy encoder, its backward pass, AdamW loop, checkpoints
  evaluation retrieval recall and noise-detection metrics
  cli        command-line entry points (gen/train/detect/eval/sweep)
"""

from . import dpl, evaluation, features, mke, synth, train  # noqa: F401

__all__ = ["dpl", "evaluation", "features", "mke", "synth", "train"]
__version__ = "0.1.0"

"""cluekit: counterfactual latent uncertainty explanations at desk scale.

Subpackages:
  diffcore  - minimal reverse-mode autodiff engine
  store     - the on-disk format: atomic writes, strict JSON, CSV, stores
  models    - VAE + deep-ensemble bundle, training, its codec
  clue      - constrained latent-space counterfactual search
  diversity - six diversity metrics over counterfactual sets
  divclue   - diversity-regularized generation (simultaneous/sequential/penalty)
  glam      - amortized latent translation mappers and baselines
  data      - synthetic dataset generators and certainty partitioning
  cli       - command-line orchestration
"""

from . import diffcore, store, models, clue, diversity, divclue, glam, data  # noqa: F401

__version__ = "0.1.0"

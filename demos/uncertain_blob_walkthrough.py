"""Walk one uncertain point through the constrained counterfactual search.

Trains a small bundle on Gaussian blobs, finds the most ambiguous test
point, and descends k latent candidates inside a delta-ball around it.
Prints the candidate table and the class weighting of the explanations.
"""

import numpy as np

from cluekit import clue, data, models

ds = data.gen_blobs(c=4, d=16, n=800, spread=0.18, seed=7)
vae_hp = models.VaeHyperparams(hidden=48, latent=4, epochs=150, kl_weight=0.01)
ens_hp = models.EnsembleHyperparams(hidden=32, epochs=150)
bundle = models.train_bundle(ds, vae_hp, ens_hp, n_members=5, seed=7)
print(f"held-out accuracy: {bundle.ensemble_report.heldout_accuracy:.3f}")

entropies = models.predict_entropy(bundle, ds.test_inputs())  # one call for the set
idx = int(np.argmax(entropies))
x0 = ds.test_inputs()[idx]
print(f"most uncertain test point: #{idx}, H = {entropies[idx]:.3f} nats")

config = clue.ExperimentConfig(delta=1.5, k=6, r=1.5, scheme="s1",
                               lambda_x=0.03, lr=0.3, iters=50, seed=5)
ceset = clue.delta_clue(x0, bundle, config)

print("\n cand    H      d_x    rho   label")
for i, c in enumerate(ceset.candidates):
    print(f"   {i}   {c.entropy:5.3f}  {c.d_x:5.2f}  {c.rho:4.2f}    {c.label}")

weights = clue.label_distribution(ceset)
print("\nclass weighting of the explanation set:")
for cls, w in enumerate(weights):
    bar = "#" * int(round(40 * w))
    print(f"  class {cls}: {w:5.2f} {bar}")

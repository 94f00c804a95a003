"""Sweep the diversity weight and watch the explanation set spread out.

Runs the simultaneous diversity-regularized search on a seven-segment
digit bundle for several values of lambda_D, reporting the optimized DPP
score together with the other diversity metrics at each setting.
"""

import numpy as np

from cluekit import clue, data, divclue, diversity, models

ds = data.gen_minidigits(n=2000, seed=11)
vae_hp = models.VaeHyperparams(hidden=64, latent=8, epochs=120)
ens_hp = models.EnsembleHyperparams(hidden=32, epochs=80)
bundle = models.train_bundle(ds, vae_hp, ens_hp, n_members=5, seed=11)
print(f"held-out accuracy: {bundle.ensemble_report.heldout_accuracy:.3f}")

entropies = models.predict_entropy(bundle, ds.test_inputs()[:60])
x0 = ds.test_inputs()[int(np.argmax(entropies))]

spec = diversity.DiversitySpec(metric="dpp", space="latent")
print("\nlambda_D    dpp     apd   coverage  mean_H")
for lam in [0.0, 0.1, 0.3, 1.0, 3.0]:
    config = clue.ExperimentConfig(delta=3.0, k=4, r=3.0, scheme="s1",
                                   lambda_x=0.05, lambda_d=lam,
                                   lr=0.3, iters=50, seed=5)
    record = divclue.nabla_clue_simultaneous(x0, bundle, config, spec)
    rows = {(m, s): v for m, s, _k, v in diversity.metric_report_rows(record.ceset)}
    mean_h = np.mean([c.entropy for c in record.ceset.candidates])
    print(f"  {lam:4.1f}    {rows[('dpp', 'latent')]:.3f}  "
          f"{rows[('apd', 'latent')]:6.3f}   {rows[('coverage', 'latent')]:.3f}  "
          f"{mean_h:6.3f}")

print("\nHigher lambda_D buys a more spread-out set while the average "
      "uncertainty of the candidates barely moves.")

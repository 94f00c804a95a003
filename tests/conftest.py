"""Shared fixtures. Training is the expensive part of the suite, so
both bundles are built once per session and treated as read-only."""

import tracemalloc

import numpy as np
import pytest

from cluekit import data, models


@pytest.fixture(scope="session")
def blobs():
    return data.gen_blobs(c=4, d=16, n=800, spread=0.18, seed=7)


@pytest.fixture(scope="session")
def blobs_bundle(blobs):
    vae_hp = models.VaeHyperparams(hidden=48, latent=4, lr=0.05, epochs=150,
                                   batch=128, kl_weight=0.01)
    ens_hp = models.EnsembleHyperparams(hidden=32, lr=0.1, epochs=150)
    return models.train_bundle(blobs, vae_hp, ens_hp, n_members=5, seed=7)


@pytest.fixture(scope="session")
def digits():
    return data.gen_minidigits(n=2000, seed=11)


@pytest.fixture(scope="session")
def digits_bundle(digits):
    vae_hp = models.VaeHyperparams(hidden=64, latent=8, lr=0.05, epochs=120,
                                   batch=128)
    ens_hp = models.EnsembleHyperparams(hidden=32, lr=0.1, epochs=80)
    return models.train_bundle(digits, vae_hp, ens_hp, n_members=5, seed=11)


@pytest.fixture(scope="session")
def most_uncertain_digit(digits, digits_bundle):
    ents = [models.entropy(models.predict(digits_bundle, x))
            for x in digits.test_inputs()[:60]]
    return digits.test_inputs()[int(np.argmax(ents))]


@pytest.fixture(scope="session")
def tiny_bundle():
    """A very small bundle for shape and plumbing tests."""
    ds = data.gen_blobs(c=3, d=8, n=120, spread=0.2, seed=3)
    vae_hp = models.VaeHyperparams(hidden=12, latent=3, epochs=10)
    ens_hp = models.EnsembleHyperparams(hidden=8, epochs=10)
    return ds, models.train_bundle(ds, vae_hp, ens_hp, n_members=3, seed=3)


@pytest.fixture
def traced_peak():
    """``traced_peak(fn)``: ``fn()`` and the most memory it held at once beyond
    what was held before, as tracemalloc counts it (numpy reports every array to it)."""
    def peak(fn):
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            result = fn()
            return result, tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
    return peak

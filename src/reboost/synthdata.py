"""Synthetic data generators: the two toy regression targets, the annulus
("orange") classification data, and the orthonormal sparse-dictionary
instance used to measure the numerical convergence rate empirically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from reboost.core import Dataset, InvalidInputError, InvalidSpecError, Task
from reboost.learners import IntervalAtom

ROLES = ("train", "validation", "test_noiseless")


@dataclass(frozen=True)
class M1Spec:
    """Univariate piecewise target on [-2, 2]."""

    n: int
    sigma: float
    d: ClassVar[int] = 1  # m1 reads column 0 only


@dataclass(frozen=True)
class M2Spec:
    """Ten-dimensional smooth sine target on [-2, 2]^10."""

    n: int
    sigma: float
    d: ClassVar[int] = 10  # m2 takes exactly 10 coordinates


@dataclass(frozen=True)
class SparseDictionarySpec:
    n_samples: int = 256
    n_atoms: int = 64
    sparsity: int = 4
    coef_norm: float = 4.0


def m1(x):
    """10 * sqrt(-x) * sin(8 pi x) on the negative half, 0 elsewhere."""
    arr = np.atleast_1d(np.asarray(x, dtype=float))
    neg = arr < 0.0
    safe = np.where(neg, -arr, 0.0)
    out = np.where(neg, 10.0 * np.sqrt(safe) * np.sin(8.0 * np.pi * arr), 0.0)
    return float(out[0]) if np.ndim(x) == 0 else out


def m2(x):
    """Alternating-sign sum of x_j * sin(x_j^2) over 10 coordinates.

    Accepts a single length-10 vector or an (n, 10) matrix of rows.
    """
    X = np.atleast_2d(np.asarray(x, dtype=float))
    if X.shape[1] != 10:
        raise InvalidInputError(f"expected 10 coordinates, got {X.shape[1]}")
    signs = (-1.0) ** np.arange(10)
    vals = (signs * X * np.sin(X * X)).sum(axis=1)
    return vals if np.ndim(x) > 1 else float(vals[0])


def gen_regression(spec: M1Spec | M2Spec, role: str, seed: int) -> Dataset:
    """Draw X ~ Uniform[-2, 2]^d and y = m(X) + sigma * noise.

    ``role`` 'test_noiseless' forces sigma = 0; 'train' and 'validation'
    use the spec's sigma. The draw order (X first, then noise) makes the
    sigma = 0 sets coincide with the noiseless ones at equal seeds.
    """
    if role not in ROLES:
        raise InvalidInputError(f"role must be one of {ROLES}")
    if spec.n < 1:
        raise InvalidInputError("need n >= 1")
    if not 0.0 <= spec.sigma < np.inf:  # NaN fails too
        raise InvalidInputError(f"sigma must be finite and >= 0, got {spec.sigma}")
    rng = np.random.default_rng(seed)
    X = rng.uniform(-2.0, 2.0, size=(spec.n, spec.d))
    y = m1(X[:, 0]) if isinstance(spec, M1Spec) else m2(X)
    sigma = 0.0 if role == "test_noiseless" else spec.sigma
    if sigma > 0.0:
        y = y + sigma * rng.standard_normal(spec.n)
    return Dataset(X, y, Task.REGRESSION)


def gen_orange(n_per_class: int, q: int, seed: int) -> Dataset:
    """Two-class annulus data: class +1 is standard normal in the plane,
    class -1 is standard normal conditioned on 4.5 <= x1^2 + x2^2 <= 8.
    ``q`` independent standard-normal noise features are appended.
    """
    if n_per_class < 1 or q < 0:
        raise InvalidInputError("need n_per_class >= 1 and q >= 0")
    rng = np.random.default_rng(seed)
    inner = rng.standard_normal((n_per_class, 2))

    ring_rows = []
    need = n_per_class
    while need > 0:
        # acceptance probability is about 8.7%, so oversample aggressively
        cand = rng.standard_normal((max(64, int(need / 0.05)), 2))
        r2 = (cand * cand).sum(axis=1)
        ok = cand[(r2 >= 4.5) & (r2 <= 8.0)]
        ring_rows.append(ok[:need])
        need -= len(ok[:need])
    ring = np.vstack(ring_rows)

    X = np.vstack([inner, ring])
    if q > 0:
        X = np.hstack([X, rng.standard_normal((2 * n_per_class, q))])
    labels = np.concatenate([np.ones(n_per_class), -np.ones(n_per_class)])
    return Dataset(X, labels, Task.CLASSIFICATION)


def gen_sparse_dictionary_instance(spec: SparseDictionarySpec, seed: int):
    """Realizable sparse target over an orthonormal interval-atom dictionary.

    Sample points are the regular grid (s + 0.5)/m on [0, 1]; atom i is the
    indicator of a block of consecutive points scaled to unit norm over the
    sample, so the atoms' Gram matrix is exactly the identity. The target
    combines ``sparsity`` random atoms with random-signed coefficients whose
    absolute values sum to ``coef_norm``; targets carry no noise, so the
    best achievable squared-loss risk is 0.

    Returns (dataset, atoms, best_risk, coefficient_l1_norm).
    """
    m, n = spec.n_samples, spec.n_atoms
    if n > m:
        raise InvalidSpecError(f"need n_atoms <= n_samples, got {n} > {m}")
    if not (1 <= spec.sparsity <= n):
        raise InvalidSpecError("sparsity must be in [1, n_atoms]")
    if not 0 < spec.coef_norm < np.inf:
        raise InvalidSpecError(f"coef_norm must be positive and finite, got {spec.coef_norm}")

    x = (np.arange(m) + 0.5) / m
    # Python ints and floats: the same values as numpy scalar arithmetic, bit
    # for bit, without its per-operation cost
    edges = np.round(np.linspace(0, m, n + 1)).astype(int).tolist()
    atoms = []
    for lo_idx, hi_idx in zip(edges, edges[1:]):
        size = hi_idx - lo_idx
        if size < 1:
            raise InvalidSpecError("an atom block would be empty")
        atoms.append(IntervalAtom(low=lo_idx / m, high=hi_idx / m,
                                  value=1.0 / math.sqrt(size)))
    atoms = tuple(atoms)

    rng = np.random.default_rng(seed)
    support = rng.choice(n, size=spec.sparsity, replace=False)
    magnitudes = rng.uniform(0.5, 1.5, size=spec.sparsity)
    magnitudes *= spec.coef_norm / magnitudes.sum()
    signs = rng.choice((-1.0, 1.0), size=spec.sparsity)
    coefs = signs * magnitudes

    X = x[:, None]
    y = np.zeros(m)
    for c, idx in zip(coefs, support):
        y += c * atoms[idx].evaluate(X)

    data = Dataset(X, y, Task.REGRESSION)
    return data, atoms, 0.0, float(spec.coef_norm)

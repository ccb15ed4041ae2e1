"""k-fold cross-validation over candidate ratio models.

For each candidate and each fold, the parameter is fitted on the
retained observations and the dual criterion is re-evaluated on the
held-out fold (both the single and the double sum running over held-out
indices only).  The candidate maximizing the fold-averaged criterion is
selected; exact ties go to the candidate with fewer parameters.  A
candidate with a fold that fails to converge or to evaluate is
disqualified; if every candidate is, :func:`cross_validate` raises
:class:`OptimFailureError`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .divergence import DivergenceSpec
from .errors import ConjugateDomainError, LengthMismatchError, OptimFailureError
from .estimator import DualEstimate, ObjectiveContext, PairedSample, estimate, objective
from .models import RatioModel

__all__ = ["CvConfig", "CvReport", "cross_validate"]


@dataclass(frozen=True)
class CvConfig:
    candidates: Sequence[RatioModel]
    divergence: DivergenceSpec
    k: int = 5
    seed: int = 0

    def __post_init__(self):
        if self.k < 2:
            raise ValueError("need at least two folds")
        if not self.candidates:
            raise ValueError("need at least one candidate model")


@dataclass(frozen=True)
class CvReport:
    scores: np.ndarray                    # cross-validated criterion per candidate
    selected: int                         # argmax index (ties -> fewest parameters)
    fold_scores: np.ndarray               # (L, k) held-out criterion values
    fold_estimates: list = field(repr=False)  # (L, k) DualEstimate diagnostics
    disqualified: tuple[int, ...] = ()    # candidates with a failed fold


def fold_indices(n: int, k: int, seed) -> list[np.ndarray]:
    """Seeded shuffle split: disjoint folds covering all indices, sizes
    floor(n/k) or ceil(n/k)."""
    perm = np.random.default_rng(seed).permutation(n)
    return np.array_split(perm, k)


def cross_validate(sample: PairedSample, cfg: CvConfig) -> CvReport:
    """Run the k-fold selection procedure; deterministic given cfg.seed.

    Fold assignment is a seeded uniform shuffle (not contiguous blocks),
    with fold sizes floor(n/k) or ceil(n/k) when k does not divide n.
    """
    n = sample.n
    if n < 2 * cfg.k and cfg.k != n:
        raise ValueError(f"need n >= 2k (n={n}, k={cfg.k})")
    folds = fold_indices(n, cfg.k, cfg.seed)
    perm = np.concatenate(folds)
    fit_seeds = np.random.default_rng([cfg.seed, 1]).integers(
        0, 2**31, size=(len(cfg.candidates), cfg.k))

    n_cand = len(cfg.candidates)
    fold_scores = np.full((n_cand, cfg.k), np.nan)
    fold_estimates: list[list[DualEstimate | None]] = [[None] * cfg.k for _ in range(n_cand)]
    disqualified = []

    for ell, model in enumerate(cfg.candidates):
        ok = True
        for i, fold in enumerate(folds):
            keep = np.setdiff1d(perm, fold, assume_unique=True)
            train = sample.subset(keep)
            est = estimate(ObjectiveContext(cfg.divergence, model, train),
                           seed=int(fit_seeds[ell, i]))
            fold_estimates[ell][i] = est
            if not est.converged:
                ok = False
                break
            theta = est.theta_hat.to_array()
            try:
                held = ObjectiveContext(cfg.divergence, model, sample, rows=fold)
                fold_scores[ell, i] = objective(held, theta)
            except (ConjugateDomainError, LengthMismatchError):
                ok = False
                break
        if not ok:
            disqualified.append(ell)
    if len(disqualified) == n_cand:
        raise OptimFailureError(f"every candidate was disqualified: {disqualified}")

    scores = np.where(np.isin(np.arange(n_cand), disqualified), -np.inf,
                      fold_scores.mean(axis=1))
    best = np.max(scores)
    tied = [i for i in range(n_cand) if scores[i] == best]
    selected = min(tied, key=lambda i: cfg.candidates[i].dim)
    return CvReport(scores, selected, fold_scores, fold_estimates,
                    tuple(disqualified))

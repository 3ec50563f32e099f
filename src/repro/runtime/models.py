"""Kernel duration performance models (§4.2).

The paper builds, per kernel, a lightweight linear-regression model with
an L2-norm penalty (ridge regression) over four features — grid size,
CTA size, input size, shared-memory usage — trained on 100 randomly
generated inputs. We implement ridge regression from scratch on numpy
(closed form), with feature standardisation so the penalty is
scale-free, and keep the model interface pluggable as the paper
advertises ("FLEP ... can easily integrate other performance models").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..errors import ModelError
from ..gpu.device import GPUDeviceSpec
from ..workloads.inputs import TrainingSample, training_set, true_duration_us
from ..workloads.specs import InputSpec, KernelSpec


@dataclass
class RidgeModel:
    """Closed-form ridge regression with standardized features."""

    weights: np.ndarray          # (d,)
    intercept: float
    feature_mean: np.ndarray     # (d,)
    feature_std: np.ndarray      # (d,)
    alpha: float

    @staticmethod
    def fit(
        X: np.ndarray, y: np.ndarray, alpha: float = 1.0
    ) -> "RidgeModel":
        if X.ndim != 2 or y.ndim != 1 or X.shape[0] != y.shape[0]:
            raise ModelError(
                f"bad training shapes X={X.shape}, y={y.shape}"
            )
        if X.shape[0] < 2:
            raise ModelError("need at least two training samples")
        if alpha < 0:
            raise ModelError("L2 penalty must be non-negative")
        mean = X.mean(axis=0)
        std = X.std(axis=0)
        std = np.where(std < 1e-12, 1.0, std)  # constant features
        Xs = (X - mean) / std
        y_mean = float(y.mean())
        d = Xs.shape[1]
        A = Xs.T @ Xs + alpha * np.eye(d)
        b = Xs.T @ (y - y_mean)
        w = np.linalg.solve(A, b)
        return RidgeModel(
            weights=w,
            intercept=y_mean,
            feature_mean=mean,
            feature_std=std,
            alpha=alpha,
        )

    def predict(self, features: Sequence[float]) -> float:
        x = (np.asarray(features, dtype=float) - self.feature_mean) / self.feature_std
        value = float(x @ self.weights + self.intercept)
        return max(value, 1.0)  # durations are positive (>= 1 us)


@dataclass
class KernelPerformanceModel:
    """Per-kernel duration predictor, trained per §4.2."""

    kernel_name: str
    model: RidgeModel

    def predict_input(self, kspec: KernelSpec, inp: InputSpec) -> float:
        return self.model.predict(
            [
                float(inp.tasks),
                float(kspec.resources.threads_per_cta),
                float(inp.size),
                float(kspec.resources.shared_mem_per_cta),
            ]
        )


def train_kernel_model(
    kspec: KernelSpec,
    n_samples: int = 100,
    alpha: float = 1.0,
    seed: int = 0,
    device: Optional[GPUDeviceSpec] = None,
) -> KernelPerformanceModel:
    """Train one kernel's ridge model on random inputs."""
    samples = training_set(kspec, n=n_samples, seed=seed, spec=device)
    X = np.array([s.features for s in samples])
    y = np.array([s.duration_us for s in samples])
    return KernelPerformanceModel(kspec.name, RidgeModel.fit(X, y, alpha))


def evaluate_model(
    kpm: KernelPerformanceModel,
    kspec: KernelSpec,
    n_samples: int = 100,
    seed: int = 1,
    device: Optional[GPUDeviceSpec] = None,
) -> Dict[str, float]:
    """Mean/max absolute relative error on held-out random inputs —
    this is what Figure 7 reports per benchmark."""
    if seed == 0:
        raise ModelError("evaluation seed must differ from training seed 0")
    samples: List[TrainingSample] = training_set(
        kspec, n=n_samples, seed=seed, spec=device
    )
    errors = []
    for s in samples:
        pred = kpm.model.predict(s.features)
        errors.append(abs(pred - s.duration_us) / s.duration_us)
    return {
        "mean_error": float(np.mean(errors)),
        "max_error": float(np.max(errors)),
        "p90_error": float(np.percentile(errors, 90)),
    }


class ModelBank:
    """All per-kernel models used by the online runtime."""

    def __init__(
        self,
        suite,
        alpha: float = 1.0,
        seed: int = 0,
        device: Optional[GPUDeviceSpec] = None,
    ):
        self._models: Dict[str, KernelPerformanceModel] = {}
        self._suite = suite
        # (kernel, input) -> duration; the ridge evaluation is a numpy
        # round-trip, and the serving/fleet estimate paths re-ask for the
        # same handful of named inputs per request
        self._cache: Dict[tuple, float] = {}
        for kspec in suite:
            self._models[kspec.name] = train_kernel_model(
                kspec, alpha=alpha, seed=seed, device=device
            )

    def predict(self, kernel_name: str, inp: InputSpec) -> float:
        key = (kernel_name, inp)
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        if kernel_name not in self._models:
            raise ModelError(f"no model for kernel {kernel_name!r}")
        kspec = self._suite[kernel_name]
        value = self._models[kernel_name].predict_input(kspec, inp)
        self._cache[key] = value
        return value

    def model(self, kernel_name: str) -> KernelPerformanceModel:
        return self._models[kernel_name]


class OracleModelBank:
    """A perfect predictor (uses the ground-truth forward model).

    Used by ablations to separate scheduling quality from prediction
    quality."""

    def __init__(self, suite, device: Optional[GPUDeviceSpec] = None):
        self._suite = suite
        self._device = device
        self._cache: Dict[tuple, float] = {}

    def predict(self, kernel_name: str, inp: InputSpec) -> float:
        key = (kernel_name, inp)
        cached = self._cache.get(key)
        if cached is None:
            cached = self._cache[key] = true_duration_us(
                self._suite[kernel_name], inp, self._device
            )
        return cached


def model_bank(
    suite, device: Optional[GPUDeviceSpec], oracle: bool, seed: int = 0
):
    """The duration predictor over ``suite``: the oracle, else ridge
    models trained with ``seed``. A bank depends on nothing else, so it
    is built once per key and memoised on the suite: every runtime (and
    every fleet node) over one suite shares it."""
    key = (device, oracle, seed)
    bank = suite.model_banks.get(key)
    if bank is None:
        bank = suite.model_banks[key] = (
            OracleModelBank(suite, device) if oracle
            else ModelBank(suite, seed=seed, device=device)
        )
    return bank

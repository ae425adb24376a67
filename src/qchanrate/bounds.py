"""Achievable-rate lower bounds from mismatched decoding metrics.

A decoder that runs an auxiliary (approximate) channel model instead of
the true one still achieves the rate obtained by evaluating the
auxiliary likelihoods on data sampled from the *true* channel:

    ir_lower = hx + aux_hy - aux_hxy

where hx is the true input entropy rate (the input law is shared) and
aux_hy / aux_hxy come from the forward recursions run on the auxiliary
model with the true-channel trajectory.  When the auxiliary equals the
true model this reproduces the plain information-rate estimate exactly,
per sequence, which pins the combination formula.

Classical auxiliary kernels are floored at a tiny value and renormalized
on load (flagged on the model): a mismatched metric must never assign
probability zero to observable data.  Quantum auxiliaries reuse the
doubled-state recursion unchanged; only the model object differs.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from .channels import ClassicalFsmc, InputLaw, TransferOperatorSet, as_recursion_model
from .errors import AuxiliaryLikelihoodError, ImpossibleObservationError, QchanrateError
from .rates import RateRow, estimate_rows, input_log_loss
from .sampling import Trajectory

KERNEL_FLOOR = 1e-12


def smooth_classical_fsmc(f: ClassicalFsmc) -> ClassicalFsmc:
    """Floor every kernel entry at ``KERNEL_FLOOR`` and renormalize rows
    (and the initial pmf)."""
    kernel = np.maximum(f.kernel, KERNEL_FLOOR)
    kernel = kernel / kernel.sum(axis=(2, 3), keepdims=True)
    initial = np.maximum(f.initial, KERNEL_FLOOR)
    return ClassicalFsmc(kernel, initial / initial.sum())


@dataclass(frozen=True)
class AuxiliaryModel:
    """A decoding model plus its shared input law context.

    ``smoothed`` records whether the kernel was floored on load.
    """

    model: ClassicalFsmc | TransferOperatorSet
    label: str
    smoothed: bool = False


def make_auxiliary(model, label: str) -> AuxiliaryModel:
    """Wrap a model for use as a decoding metric.

    Classical kernels are floored and renormalized (flagged); quantum
    models are compiled if necessary and used as-is.
    """
    model = as_recursion_model(model)
    if isinstance(model, ClassicalFsmc):
        return AuxiliaryModel(smooth_classical_fsmc(model), label, smoothed=True)
    return AuxiliaryModel(model, label, smoothed=False)


@dataclass(frozen=True)
class LowerBoundEstimate:
    """Mismatched-decoding achievable-rate estimate (bits per use)."""

    n: int
    seed: int
    hx: float
    aux_hy: float
    aux_hxy: float
    ir_lower: float


def auxiliary_error(label: str, exc: QchanrateError) -> QchanrateError:
    """The error a failed recursion of auxiliary ``label`` reports: a
    zero-likelihood observation names the auxiliary and the remedy."""
    if not isinstance(exc, ImpossibleObservationError):
        return exc
    return AuxiliaryLikelihoodError(
        f"auxiliary model {label!r} assigned zero likelihood to the "
        f"observed data ({exc}); smooth it first, e.g. via make_auxiliary, "
        f"which floors classical kernels at {KERNEL_FLOOR:g}"
    )


def lower_bound(traj: Trajectory, aux: AuxiliaryModel, q: InputLaw) -> LowerBoundEstimate:
    """Evaluate an auxiliary decoding metric on a true-channel trajectory."""
    (r,) = estimate_rows([RateRow(aux.model, q, traj, float(input_log_loss(q, traj.x).sum()))])
    if isinstance(r, QchanrateError):
        raise auxiliary_error(aux.label, r)
    return LowerBoundEstimate(
        n=traj.n, seed=traj.seed, hx=r.hx, aux_hy=r.hy, aux_hxy=r.hxy, ir_lower=r.ir
    )

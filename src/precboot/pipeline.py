"""Convenience wrapper running centering, node-wise fits and the corrected
estimators in one step; shared by inference, the simulation harness and the
CLI."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Dataset, IndexSet, SymMatrix, center
from .errors import InvalidDimension
from .nodewise import LassoConfig, NodewiseFit, fit_all
from .precision import estimate_omega, estimate_v, h_diag_from_v, scores_for


@dataclass
class PipelineFit:
    data: Dataset
    fit: NodewiseFit
    v_hat: SymMatrix
    omega_hat: SymMatrix

    def omega_on(self, S: IndexSet) -> np.ndarray:
        """omega_hat restricted to S, in chi order."""
        _check_within(S, self.data.p)
        return self.omega_hat.values[S.rows(), S.cols()]

    def scores(self, S: IndexSet):
        """(eta, h_diag) for the index set S; eta forms its columns when
        they are read."""
        _check_within(S, self.data.p)
        eta = scores_for(self.fit, self.v_hat, S)
        return eta, h_diag_from_v(self.v_hat, S)


def _check_within(S: IndexSet, p: int):
    """InvalidDimension naming the first pair of S with an index above p."""
    above = S.pairs.max(axis=1) > p
    if np.any(above):
        j1, j2 = S.pairs[np.argmax(above)]
        raise InvalidDimension(f"pair ({j1}, {j2}) is outside 1..{p}")


def fit_pipeline(data: Dataset, cfg: LassoConfig = None) -> PipelineFit:
    cfg = cfg or LassoConfig()
    data = center(data)
    return assemble(data, fit_all(data, cfg))


def assemble(data: Dataset, fit: NodewiseFit) -> PipelineFit:
    """The bias-corrected v_hat and omega_hat of a node-wise fit of the
    centred ``data``."""
    v = estimate_v(fit)
    return PipelineFit(data=data, fit=fit, v_hat=v, omega_hat=estimate_omega(v))

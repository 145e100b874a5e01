"""Estimator consistency on every parameter: the NEES test.

The normalized estimation error squared of a trial is NEES = e^T F e, where
e stacks every agent's position error and its rotation error log(R^T R_hat)
(the local rotation of LsProblem.retract and of the information matrix) and
F is the Fisher information of the whole deployment at the truth
(crlb.fim_stack).  For an efficient estimator NEES follows chi-squared with
6M degrees of freedom, so the mean over n trials has mean 6M and standard
error sqrt(2 * 6M / n).  Criterion 04 checks agent 0's position only; this
test checks all 6M parameters, positions and orientations.
"""

import numpy as np
import pytest
from scipy.spatial.transform import Rotation

from miloc.channel import coupling_coefficient
from miloc.config import ExperimentConfig
from miloc.crlb import fim_stack
from miloc.geometry import split_poses
from miloc.harness import run_experiment
from miloc.scenario import network_problem

# The coil resistance the benchmark and tools/compare_outputs.py run at:
# criterion 01's calibration (seed 20240101, 6,000 topologies), to rounding.
RESISTANCE_OHM = 0.055148806366607225
# Half-width of the band on the mean NEES, in standard errors of the mean
# of n chi-squared draws.  A consistent estimator leaves a 4-SE band with
# probability below 1e-4 (normal approximation); the band is set by this
# rule, not from the observed means.  Coop M=10 sits about 1.8 SE high, and
# its NEES has a heavier tail than chi-squared (a few trials above the
# 99.9% quantile), plausibly the model's nonlinearity at low link SNR.
BAND_STANDARD_ERRORS = 4.0
# A sigma wrong by this factor scales F by 1 / k^2 and the NEES by the
# same: the test must see it.
WRONG_SIGMA_FACTOR = 1.1


def _trial_errors(cfg: ExperimentConfig):
    """The network problem of cfg's one agent count, its trials' true pose rows and errors.

    A trial's error stacks each agent's position error and its rotation
    error, (6M,), in the order of the information matrix's parameters.
    """
    [m] = cfg.agent_counts()
    [block] = run_experiment(cfg).trials
    coupling = coupling_coefficient(cfg.coil(), cfg.coil(), cfg.global_params())
    problem = network_problem(m, cfg.anchors(), coupling, cfg.scheme_enum())
    truths, estimates = (poses.reshape(len(poses), -1) for poses in (block.true_pose, block.est_pose))
    true_p, true_r = split_poses(truths)
    est_p, est_r = split_poses(estimates)
    turn = np.swapaxes(true_r, -1, -2) @ est_r
    phi = Rotation.from_matrix(turn.reshape(-1, 3, 3)).as_rotvec().reshape(est_p.shape)
    return problem, truths, np.concatenate([est_p - true_p, phi], axis=-1).reshape(len(truths), -1)


def _nees(problem, truths, errors, sigma: float) -> np.ndarray:
    """e^T F e of every trial, F the information at the truth for noise level sigma."""
    return np.einsum("ti,tij,tj->t", errors, fim_stack(problem, truths, sigma), errors)


def _within_band(nees: np.ndarray, dof: int) -> bool:
    """True when the mean NEES lies within BAND_STANDARD_ERRORS of dof."""
    standard_error = np.sqrt(2.0 * dof / len(nees))
    return abs(float(np.mean(nees)) - dof) <= BAND_STANDARD_ERRORS * standard_error


@pytest.mark.parametrize(
    "scheme, m, estimator",
    [("coop", 10, "numls"), ("coop", 10, "turbols"), ("noncoop", 10, "numls"), ("coop", 3, "numls")],
)
def test_mean_nees_is_chi_squared_on_all_parameters(scheme, m, estimator):
    # 30 topologies x 10 noise draws; numls starts at the truth, turboLS at pair-ML
    cfg = ExperimentConfig(
        seed=11, agents=str(m), topologies=30, noise=10, scheme=scheme, estimator=estimator,
        resistance_ohm=RESISTANCE_OHM,
    )
    dof, sigma = 6 * m, cfg.global_params().noise_sigma
    problem, truths, errors = _trial_errors(cfg)
    nees = _nees(problem, truths, errors, sigma)
    assert nees.shape == (300,)
    assert _within_band(nees, dof), (float(np.mean(nees)), dof)
    # the same trials judged with a wrong sigma, either way, leave the band
    for factor in (WRONG_SIGMA_FACTOR, 1.0 / WRONG_SIGMA_FACTOR):
        wrong = _nees(problem, truths, errors, factor * sigma)
        assert np.allclose(wrong, nees / factor**2, rtol=1e-9, atol=0.0)
        assert not _within_band(wrong, dof), (factor, float(np.mean(wrong)))

"""mimocap: capacities and optimal transmit covariances for ergodic MIMO channels.

The library covers two transmitter-knowledge regimes:

* perfect side information: water-filling jointly over space and time with a
  single water level enforcing the long-term average power constraint
  (:mod:`mimocap.waterfill`, :mod:`mimocap.channels`);
* statistical side information: fixed-point optimization of the transmit
  covariance for arbitrary channel laws, via a known diagonalizing basis or
  Newton steps on the covariance itself (:mod:`mimocap.covopt`), with beamforming tests
  and SNR asymptotics in :mod:`mimocap.analysis`.

All rates are natural-log (nats per complex symbol) unless converted at the
CLI boundary.
"""

from .channels import (
    ChannelLaw,
    EmpiricalDensity,
    FiniteMixture,
    Interpolated,
    KroneckerGaussian,
    MatrixGaussian,
    PointMass,
    PointMassDensity,
    WishartDensity,
    empirical_density,
    expected_gram,
    law_from_json,
    law_to_json,
    onoff_density,
    sample,
    sample_batch,
    wishart_density,
)
from .covopt import (
    CovOptResult,
    OptimizerOptions,
    fixed_point_diag,
    iterate_general,
    kkt_residual_diag,
    kkt_residual_general,
)
from .analysis import (
    BeamformVerdict,
    beamform_boundary,
    beamform_opt_closed,
    beamform_opt_mc,
    high_snr_capacity,
    interp_study,
    low_snr_cov,
    wishart_approx,
    wishart_approx_covariance,
)
from .linalg import (
    chol_upper,
    herm_eig,
    svd,
    ut_gram,
)
from .montecarlo import McEstimate, SeededStream, ergodic_mi
from .waterfill import (
    InfeasibleError,
    WaterfillSolution,
    instantaneous_covariance,
    naive_avg_rate,
    papr,
    papr_bound,
    peak_limited_rate,
    power_density,
    st_capacity,
    st_water_level,
    waterfill_det,
)

__version__ = "0.1.0"

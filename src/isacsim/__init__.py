"""Simulation and closed-form evaluation of joint sensing/communication links.

Downlink and uplink communication rate, outage probability, sensing rate,
high-SNR asymptotes, and communication-sensing rate regions, with
bandwidth-split baselines for comparison.
"""

from .analysis import SlopeFit, fit_diversity, fit_highsnr_slope
from .channel import CorrelationMatrix, SimConfig, exp_correlation
from .downlink import (
    MeanInputCovariance,
    PowerAllocation,
    dl_ecr,
    dl_ecr_asymptote,
    dl_ecr_fdsac,
    dl_outage_prob,
    dl_sum_rate,
    dual_mac_power_alloc,
    ed_closed_form_iid,
    estimate_mean_covariance,
    mac_to_bc_covariance,
)
from .mc import MonteCarloEstimate
from .numerics import (
    EigenSystem,
    ModelError,
    WaterfillSolution,
    hermitian_eig,
    matrix_sqrt_psd,
    waterfill,
)
from .region import (
    RatePoint,
    RateRegion,
    dl_fdsac_region,
    dl_isac_region,
    region_contains,
    ul_fdsac_region,
    ul_isac_region,
)
from .sensing import (
    SensingScenario,
    Waveform,
    build_waveform,
    dl_sr,
    fdsac_sr,
    sensing_mi,
    sigma2_effective,
    sr_highsnr,
    ul_sr,
)
from .uplink import (
    SlotNoiseProfile,
    sensing_profile,
    slot_noise_powers,
    ul_avg_rate,
    ul_ecr,
    ul_ecr_asymptote,
    ul_ecr_fdsac,
    ul_outage_prob,
    ul_slot_rate,
)

__version__ = "0.1.0"

"""Soft-output Gram-domain block coordinate descent (GBCD) massive-MIMO
detection library: constellations, channels, detectors, denoisers, a coded
Monte-Carlo harness, a deep-unfolding trainer, and hardware cost models.
Symbols have unit average energy throughout the package."""

from .baselines import lmmse_detect, ocd_detect
from .channel import TransmissionBatch, gen_channel, transmit
from .config import Scenario
from .constellation import Constellation, make_constellation
from .denoise import (PlmTable, SoftOutput, box_denoise, build_plm_table,
                      compute_llrs, llr_to_prob, pme_exact, pme_piecewise)
from .detector import (EqualizerState, PreprocOutput, gbcd_detect,
                       gbcd_equalize, gram, matched_filter, preprocess)
from .fec import CodeConfig, deinterleave_llrs, encode, interleave
from .harness import ExperimentConfig, run_ablation, run_sweep
from .hwmodel import (ComplexityReport, FxpFormat, complexity_gbcd,
                      complexity_lmmse, complexity_ocd, detect_fixed_point,
                      fit_power, quantize, throughput, utilization)
from .unfolding import ParamStore, TrainConfig, TrainedParams, train

__version__ = "0.1.0"

"""Simulation and verification toolkit for one-way protocols under uncertainty."""

from .core import (BitString, BoolFunction, OneWayProtocol, ProtocolFunction, TableFunction,
                   distance, protocol_error)
from .distributions import (Distribution, JointDistribution, NoisyHypercube,
                            ProductJoint, TableJoint, binary_entropy, derive_rng,
                            kl_divergence, sample_noisy_copy)
from .sampling import (SharedRandomness, TranscriptStats, correlated_sample,
                       one_way_correlated_sample, truncation_limit)
from .uncertain import (ErrorEstimate, RunResult, UncertainInstance, choose_sample_count,
                        estimate_uncertain_error, generate_instance, run_trials,
                        run_uncertain_protocol)

__version__ = "0.1.0"

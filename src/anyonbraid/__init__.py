"""Measurement-only braiding of non-Abelian anyons.

The package simulates registers of stationary anyons over fusion-tree
bases, performs projective collective-charge measurements on pairs, and
synthesizes braiding gates from adaptive forced-measurement teleportation,
verifying them against directly applied R-matrix oracles.
"""

from .compiler import (ArrayLayout, BraidWord, Schedule, ScheduleStep,
                       build_array, check_resources, compile_word,
                       direct_braid_reference, execute, random_encoded_state,
                       schedule_from_dict)
from .errors import (AnyonError, BasisMismatch, InvalidPosition,
                     MaxAttemptsExceeded, ModelError, ModelFileError,
                     NotPhaseEquivalent, ProtocolError, RegisterTooLarge,
                     ScheduleError, UnknownChargeError, UnsupportedCharge,
                     ZeroProbabilityOutcome)
from .fusion_space import (StateVector, attach_pair, empty_state,
                           entangled_pair_state, fidelity, inner, random_state)
from .measurement import pair_charge_distribution, project_pair
from .model import (AnyonModel, Charge, ConsistencyReport, fibonacci_model,
                    ising_model, load_builtin, su2k_model)
from .model_io import load_model_file, parse_model_text
from .teleport import (BraidRecord, ForcedBlock, MeasurementRecord,
                       braid_oracle_state, expected_attempt_bound,
                       expected_mean_attempts, failure_tail_probability,
                       forced_measurement, forced_measurements,
                       measurement_braid, relative_phase)

__version__ = "0.1.0"

"""The public API of ``anyonbraid``, pinned name by name.

A name added to or dropped from the package's exports shows up here as a
one-line change, so a test-only helper cannot enter the API unnoticed.
"""

import types

import anyonbraid

PUBLIC_API = {
    # errors
    "AnyonError", "BasisMismatch", "InvalidPosition",
    "MaxAttemptsExceeded", "ModelError", "ModelFileError", "NotPhaseEquivalent",
    "ProtocolError", "RegisterTooLarge", "ScheduleError", "UnknownChargeError",
    "UnsupportedCharge", "ZeroProbabilityOutcome",
    # models
    "AnyonModel", "Charge", "ConsistencyReport", "fibonacci_model", "ising_model",
    "load_builtin", "load_model_file", "parse_model_text", "su2k_model",
    # states
    "StateVector", "attach_pair", "empty_state", "entangled_pair_state", "fidelity",
    "inner", "random_state",
    # measurement
    "pair_charge_distribution", "project_pair",
    # forced measurements and braids
    "BraidRecord", "ForcedBlock", "MeasurementRecord", "braid_oracle_state",
    "expected_attempt_bound", "expected_mean_attempts", "failure_tail_probability",
    "forced_measurement", "forced_measurements", "measurement_braid", "relative_phase",
    # arrays, schedules and execution
    "ArrayLayout", "BraidWord", "Schedule", "ScheduleStep", "build_array",
    "check_resources", "compile_word", "direct_braid_reference", "execute",
    "random_encoded_state", "schedule_from_dict",
}


def test_public_names_are_exactly_the_pinned_set():
    exported = {name for name, value in vars(anyonbraid).items()
                if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert exported == PUBLIC_API

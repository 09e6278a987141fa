"""The analytic teleported state, a test oracle for forced measurements."""

from anyonbraid import StateVector, project_pair


def teleport_reference(state: StateVector, target_pair: tuple[int, int],
                       routing: str = "over") -> StateVector:
    """Analytic single-shot teleported state: project the target pair onto
    vacuum and renormalize.

    Every forced-measurement trajectory ends in this state up to a global
    phase, regardless of how many attempts it took.
    :func:`anyonbraid.measurement_braid` takes the same state from the first
    attempt of each forced measurement (``ForcedBlock.reference``) instead
    of applying the measurement operator again.
    """
    post, _ = project_pair(state, target_pair[0], target_pair[1], 0, routing)
    return post

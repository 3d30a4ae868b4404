"""Exception types shared across the simulator."""


class SdedgeError(Exception):
    """Base class for all simulator errors."""


# --- overlay ring ---

class RingError(SdedgeError):
    pass


class RoutingFailure(RingError):
    """No live route to the key's owner."""


class MembershipConflict(RingError):
    """A node with this ring id already exists."""


class NotAMember(RingError):
    """The id does not belong to a live node."""


# --- mobility ---

class MobilityError(SdedgeError):
    pass


class AlreadyRegistered(MobilityError):
    pass


class UnknownMobile(MobilityError):
    pass


class NotAssociated(MobilityError):
    pass


class HandoverFailure(MobilityError):
    """A handover cannot complete: its target controller is dead, the
    supervisor cannot be reached, or the supervisory record or session is
    lost beyond the replication factor."""


# --- scheduler ---

class SchedulerError(SdedgeError):
    pass


class UnmatchedRelease(SchedulerError):
    """flow-end without a matching flow-start."""


class OracleTooLarge(SchedulerError):
    """Instance exceeds the exhaustive-enumeration guard."""


class NoApAvailable(SchedulerError):
    pass


# --- event engine ---

class CausalityViolation(SdedgeError):
    """Attempt to schedule an event in the simulated past."""


class SimulationHalted(SdedgeError):
    """A handler raised; carries the offending event context."""

    def __init__(self, message: str, *, time: float, kind: str, note: str = ""):
        super().__init__(message)
        self.time = time
        self.kind = kind
        self.note = note


# --- scenario / cli ---

class ScenarioError(SdedgeError):
    """Parse or validation failure; collects every error, not just the first."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("; ".join(f"line {ln}, col {col}: {msg}" for ln, col, msg in self.errors))


class UsageError(SdedgeError):
    """Bad CLI invocation (unknown override key, bad value, ...)."""


class EmitError(SdedgeError):
    """Report serialization failed."""

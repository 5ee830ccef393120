"""Exception hierarchy for the simulation kernel."""


class SimulationError(Exception):
    """Base class for all simulation kernel errors."""


class SchedulingError(SimulationError, ValueError):
    """Raised when an event is scheduled at an invalid time.

    The kernel refuses to schedule events in the past: doing so would
    silently violate causality and make results depend on handler order.
    It refuses NaN and +inf too, which would carry the clock with them.
    An invalid time is an invalid argument, so this is a ``ValueError``.
    """

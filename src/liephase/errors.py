"""Exception types shared across the package."""


class ScalingRequiredError(RuntimeError):
    """Center-of-mass brackets of this system do not close into a
    single-particle algebra: the deformation parameters are not inversely
    proportional to the particle masses."""


class PotentialSingularityError(RuntimeError):
    """A potential was evaluated inside its guarded singular region.

    ``index`` is the offending point's index in a batch of points (the
    particle, for an integration), or None for a single point.
    """

    def __init__(self, message: str, index: int | tuple | None = None):
        super().__init__(message)
        self.index = index


class NonFiniteStateError(RuntimeError):
    """Integration produced a non-finite phase-space state."""

    def __init__(
        self,
        message: str,
        step: int | None = None,
        time: float | None = None,
        particle: int | None = None,
    ):
        super().__init__(message)
        self.step = step
        self.time = time
        self.particle = particle


class GridError(ValueError):
    """A time grid that is not finite, not increasing, that dt does not
    divide, or whose trajectory cannot be allocated; ``field`` names the
    offending value ("t0", "t_end" or "dt")."""

    def __init__(self, field: str, message: str):
        super().__init__(message)
        self.field = field

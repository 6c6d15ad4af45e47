"""Exception types shared across the package.

Physics failures (total reflection, missed intersections) are separated from
solver failures (non-convergence, missing bracket) so that callers and the
CLI can map them to distinct exit codes.
"""


class GoatFocusError(Exception):
    """Base class for all package errors."""


class DomainError(GoatFocusError):
    """A lateral coordinate lies outside a boundary curve's domain."""


class SingularSlopeError(GoatFocusError):
    """Boundary slope is unbounded at the requested point (ellipse edge)."""


class DegenerateSegmentError(GoatFocusError):
    """Two consecutive path points coincide (segment shorter than 1e-12 m)."""


class TotalReflectionError(GoatFocusError):
    """Snell's law admits no transmitted ray at an interface."""

    def __init__(self, message, ratio=None, boundary_index=None):
        super().__init__(message)
        self.ratio = ratio
        self.boundary_index = boundary_index


class NoIntersectionError(GoatFocusError):
    """A ray (or the straight chord) exits the lateral domain before
    crossing the requested boundary."""

    def __init__(self, message, boundary_index=None):
        super().__init__(message)
        self.boundary_index = boundary_index


class NonConvergenceError(GoatFocusError):
    """Iterative solver failed to reach the residual tolerance."""

    def __init__(self, message, best_xs=None, best_residual=None, iterations=None):
        super().__init__(message)
        self.best_xs = best_xs
        self.best_residual = best_residual
        self.iterations = iterations


class NoBracketError(GoatFocusError):
    """The shooting scan found no sign change of the miss function."""

    def __init__(self, message, causes=None):
        super().__init__(message)
        # Per-candidate failure causes collected during the scan, e.g.
        # {"total_reflection": 64} -- lets callers tell "all rays totally
        # reflected" apart from "rays never straddle the focus".
        self.causes = dict(causes or {})


class NoTransmittedPathError(GoatFocusError):
    """Every (element, focus) or (element, scatterer) solve failed."""


class DegenerateDenominatorError(GoatFocusError):
    """The slope-condition denominator vanished (the equivalence theorem's
    proviso); the expression is not evaluable at this configuration."""


class RoiError(GoatFocusError):
    """A beam-profile region of interest contains no usable peak."""


class ScenarioError(GoatFocusError):
    """A scenario document failed schema validation."""


class ChannelFileError(GoatFocusError):
    """A channel data file is unreadable or does not match its scenario."""

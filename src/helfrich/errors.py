"""Exception types raised by the helfrich package."""


class HelfrichError(Exception):
    """Base class for all package errors."""


class MeshError(HelfrichError):
    """Base class for mesh construction and validation failures."""


class NonManifold(MeshError):
    """An edge has != 2 incident faces, a duplicated face, or a pinched vertex."""


class InconsistentOrientation(MeshError):
    """Two faces traverse a shared edge in the same direction."""


class DegenerateFace(MeshError):
    """A face has (numerically) zero area."""


class IndexOutOfRange(MeshError):
    """A face references a nonexistent vertex, or a vertex is unreferenced."""


class DegenerateOneRing(HelfrichError):
    """A vertex one-ring is too degenerate for the curvature fit."""

    def __init__(self, vertex, message=None):
        self.vertex = int(vertex)
        super().__init__(message or f"degenerate one-ring at vertex {self.vertex}")


class NonUnitNormal(HelfrichError):
    """A direction passed as a unit normal is not unit length."""


class NotConvex(HelfrichError):
    """Material parameters lie outside the strict convexity window."""


class PhaseCountMismatch(HelfrichError):
    """Number of material parameter sets does not match the number of phases."""


class UnknownPhase(HelfrichError):
    """A phase id does not occur in the phase field."""


class NonPositiveTarget(HelfrichError):
    """A target area or volume is not strictly positive and finite."""


class InsufficientSamples(HelfrichError):
    """Too few radii requested for a scaling-law fit."""


class Infeasible(HelfrichError):
    """Constraint targets violate the isoperimetric inequality."""


class QualityCollapse(HelfrichError):
    """Mesh quality guard tripped during optimization."""


class Diverged(HelfrichError):
    """Energy became non-finite during optimization."""


class DegenerateConfiguration(HelfrichError):
    """Gradient evaluation hit a degenerate mesh configuration."""

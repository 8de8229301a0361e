"""Exception types shared across the package."""


class GeometryError(Exception):
    """Base class for all polygon-geometry errors.

    ``segment`` is the polygon the error is about, within a stack of
    polygons evaluated in one pass (see ``cyclic.Segments``); it is 0 for a
    polygon on its own.
    """

    segment = 0

    def at(self, segment: int) -> "GeometryError":
        """This error, marked as being about stacked polygon ``segment``."""
        self.segment = segment
        return self


class DegenerateSign(GeometryError):
    """A sign predicate landed inside the tolerance dead-band."""


class NotGeneric(GeometryError):
    """Four consecutive nodes are coplanar (a torsion volume has no strict sign)."""


class NotParallel(GeometryError):
    """The transversal field's increments are not tangential."""


class NotExact(GeometryError):
    """A planar field is not exact with respect to its polygon."""


class NonTransversal(GeometryError):
    """A field fails the positive-volume transversality requirement."""


class NotLocallyConvex(GeometryError):
    """A polygon fails the positive-volume local convexity requirement."""


class DualityResidual(GeometryError):
    """A defining incidence relation of the dual pair failed numerically."""


class IdentityCheckFailed(GeometryError):
    """An internal cross-check identity exceeded its residual tolerance."""


class NotPlanarDual(GeometryError):
    """The dual polygon is not planar, so no inverse pedal exists."""


class GenerationFailed(GeometryError):
    """Random instance construction exhausted its retry budget."""


class ValidationError(GeometryError):
    """An input document violates its schema or an invariant."""

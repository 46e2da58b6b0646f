"""Exception hierarchy shared by the library and the CLI.

Exit-code mapping (see cli.main): InputError -> 1, ResourceError and
DegenerateGeometryError -> 2, InternalError -> 3.
"""


class PrivhistError(Exception):
    """Base class for all package errors."""


class InputError(PrivhistError):
    """Caller passed invalid data or parameters."""


class ConfigurationError(InputError):
    """A configuration is self-consistent but unusable (e.g. rejection starvation
    caused by a too-small truncation radius)."""


class ResourceError(PrivhistError):
    """A requested computation exceeds a configured budget."""


class DegenerateGeometryError(PrivhistError):
    """Sampling or estimation could not proceed on this geometry
    (zero denominator hits, rejection starvation)."""


class InternalError(PrivhistError):
    """Invariant violation inside the library; output must not be emitted."""


class CollisionError(InternalError):
    """A dataset row equals a published vector drawn at random (a Voronoi
    center or a shifted-grid mesh corner); a fresh draw can avoid it."""

"""Content-addressed compilation artifacts and their on-disk cache.

:mod:`repro.artifacts.report`
    :class:`CompilationReport` — the plain-data projection of an
    ``ImplementationResult`` that travels over HTTP and into the
    cache, with a :meth:`~CompilationReport.canonical` form for
    bit-identity comparisons.

:mod:`repro.artifacts.cache`
    :class:`ArtifactCache` — a content-addressed on-disk store of
    compilation reports (keyed by :func:`cache_key`) and of the
    :mod:`repro.native` kernel binaries.

This package is a leaf: it imports nothing from the scheduler, the
native kernels or the compile service, so :mod:`repro.native` and
:mod:`repro.serve` both import it at module level without loading
each other.
"""

from .._lazy import attach

__getattr__, __dir__, __all__ = attach(__name__, globals(), {
    "ArtifactCache": ".cache",
    "CompilationReport": ".report",
    "cache_key": ".cache",
    "default_cache_dir": ".cache",
})

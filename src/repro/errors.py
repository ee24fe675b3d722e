"""Exception hierarchy for the repro library.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch one base type at the API boundary.

The hierarchy additionally splits along the *retryability* axis that the
:mod:`repro.reliability` primitives key off:

* :class:`TransientError` — the operation may succeed if repeated
  (network blips, mirror outages, slow fetches). ``retry_call`` retries
  these with backoff.
* :class:`PermanentError` — repeating the call cannot change the outcome
  (the package does not exist, the configuration is invalid). The
  resilience primitives re-raise these immediately, so retrying a
  permanent failure is a no-op by construction.

Errors that are neither are *programming* errors and propagate untouched.
"""

from __future__ import annotations

from typing import List, Optional


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class TransientError(ReproError):
    """A failure that may resolve on retry (outage, timeout, truncation).

    ``kind`` tags the failure for the degradation report's per-kind
    accounting; fault-injection wrappers raise subclasses whose ``kind``
    matches the injected fault, so every injected fault is observable as
    exactly one transient error of that kind.
    """

    kind: str = "transient"


class PermanentError(ReproError):
    """A failure no amount of retrying can fix.

    :func:`repro.reliability.retry_call` re-raises these before its first
    backoff, which is what makes retrying a permanent error a no-op.
    """

    kind: str = "permanent"


class ConfigError(PermanentError):
    """An invalid configuration value was supplied."""


class RegistryError(ReproError):
    """Base class for registry errors."""


class DuplicatePackageError(RegistryError, PermanentError):
    """A (name, version) pair was published twice in the same registry."""


class PackageNotFoundError(RegistryError, PermanentError):
    """The requested (name, version) pair does not exist."""


class PackageRemovedError(RegistryError):
    """The requested package existed but has been removed by the registry."""


class ClockError(ReproError):
    """The simulation clock was used inconsistently (e.g. moved backwards)."""


class GraphError(ReproError):
    """Base class for property-graph errors."""


class NodeNotFoundError(GraphError):
    """A graph operation referenced a node id that does not exist."""


class EmbeddingError(ReproError):
    """Source code could not be embedded (unparseable and no fallback)."""


class CrawlError(TransientError):
    """The spider failed to fetch or parse a simulated web page.

    Transient: the paper's substrate is 68 crawled websites that go dark
    and come back; a failed crawl is worth retrying.
    """

    kind = "crawl"


class FetchUnreachableError(CrawlError):
    """A page fetch failed outright (connection refused / 5xx)."""

    kind = "fetch_unreachable"


class FetchTimeoutError(CrawlError):
    """A page fetch was so slow it timed out, consuming deadline budget."""

    kind = "fetch_timeout"


class TruncatedPageError(CrawlError):
    """A fetched page arrived truncated or corrupt (incomplete HTML)."""

    kind = "fetch_truncated"


class SiteOutageError(CrawlError):
    """A website's index page was unreachable (whole-site outage)."""

    kind = "site_outage"


class MirrorDownError(TransientError):
    """A mirror registry did not answer a lookup (down for a sync window).

    Raised mid-scan, so the sequential mirror search is inconclusive and
    must be retried as a whole to preserve the fault-free lookup order.
    """

    kind = "mirror_down"


class SourceOutageError(TransientError):
    """An open-dataset source feed did not answer at all."""

    kind = "feed_outage"


class FeedTruncatedError(TransientError):
    """An open-dataset feed emitted only a prefix of its records.

    Carries the partial emission so graceful degradation can fall back
    to the best partial feed seen when retries are exhausted.
    """

    kind = "feed_truncated"

    def __init__(self, message: str, partial: Optional[List] = None):
        super().__init__(message)
        self.partial: List = list(partial or [])


class DatasetError(ReproError):
    """The collected dataset is inconsistent or malformed."""


class ValidationError(ReproError):
    """A request payload failed type or shape validation."""

"""Exception hierarchy shared by every subsystem in the reproduction.

Each substrate raises the most specific subclass it can so that tests and
callers can distinguish, e.g., an out-of-bounds I/O from a zone state
violation without string matching.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by this library."""


class ConfigError(ReproError, ValueError):
    """Invalid configuration of any subsystem.

    Subclasses :class:`ValueError` so long-standing callers (and tests)
    that guard configuration mistakes with ``except ValueError`` keep
    working while new code can catch the typed error precisely.
    """


class RetryableError(ReproError):
    """Mixin marking transient failures.

    A handler that sees a ``RetryableError`` may retry the operation
    after a backoff; the underlying resource is expected to heal.  The
    class carries no state of its own — concrete errors subclass both
    this and their layer's base so ``except RetryableError`` composes
    with the existing hierarchy.
    """


# --- device layer -----------------------------------------------------------


class DeviceError(ReproError):
    """Base class for storage-device errors.  ``landed`` counts the
    extents of a batched write that reached the media (and were charged)
    before the one that raised; later extents are untouched."""

    landed = 0


class FatalDeviceError(DeviceError):
    """Permanent device failure: the media under the I/O is gone.

    Retrying cannot succeed; callers must degrade gracefully instead
    (quarantine the region, re-route the flush, count a miss).
    """


class OutOfRangeError(DeviceError):
    """An I/O touched an LBA or offset outside the device capacity."""


class AlignmentError(DeviceError):
    """An I/O offset or length violated the device's alignment rules."""


class ZoneStateError(DeviceError):
    """A zone operation is invalid for the zone's current state."""


class WritePointerError(ZoneStateError):
    """A zone write did not land exactly on the zone's write pointer."""


class ZoneDeadError(ZoneStateError, FatalDeviceError):
    """The zone transitioned to READ-ONLY or OFFLINE and cannot serve
    the request.  Subclasses :class:`ZoneStateError` so existing state
    checks keep working, and :class:`FatalDeviceError` because a dead
    zone never comes back."""

    def __init__(self, message: str, zone_index: "int | None" = None) -> None:
        super().__init__(message)
        self.zone_index = zone_index


class ZoneResourceError(DeviceError, RetryableError):
    """Opening a zone would exceed max-open or max-active zone limits.

    Retryable: closing or finishing another zone frees the budget."""


class TransientMediaError(DeviceError, RetryableError):
    """A command failed on the media but the location is still good
    (ECC hiccup, temporary die busy) — retry after a backoff."""


class AppendFailedError(DeviceError, RetryableError):
    """A zone-append command failed before assigning an offset; the
    zone's write pointer is unchanged, so the append can be reissued."""


class PowerCutError(DeviceError):
    """Simulated power loss: every I/O fails until power is restored.

    Deliberately neither retryable nor a :class:`FatalDeviceError` —
    no recovery action applies mid-cut; the error must propagate to
    the harness, which restores power and runs crash recovery."""


class DeviceFullError(DeviceError):
    """The device (or FTL free-space pool) has no room for the write."""


# --- filesystem layer --------------------------------------------------------


class FilesystemError(ReproError):
    """Base class for F2FS-like filesystem errors."""


class NoSpaceError(FilesystemError):
    """The filesystem ran out of free segments (ENOSPC)."""


class FileNotFoundInFsError(FilesystemError):
    """Named file does not exist in the filesystem."""


class FileExistsInFsError(FilesystemError):
    """Attempt to create a file whose name is already taken."""


class SectionInUseError(FilesystemError):
    """A section released by the cleaner still owns a valid block."""


# --- zone translation layer ---------------------------------------------------


class TranslationError(ReproError):
    """Base class for the region↔zone middle layer errors."""


class RegionNotMappedError(TranslationError):
    """Read of a region id that has no current mapping."""


class TranslationFullError(TranslationError):
    """No free or GC-reclaimable zone space for a new region."""


# --- cache layer --------------------------------------------------------------


class CacheError(ReproError):
    """Base class for cache-engine errors."""


class RegionSizeError(CacheError, ValueError):
    """A region write's payload is not exactly one region long.

    Raised by every scheme backend and by the translation layer under
    Region-Cache.  Subclasses :class:`ValueError` for the same reason
    :class:`ConfigError` does."""


class CacheConfigError(CacheError, ConfigError):
    """Invalid cache configuration (sizes, ratios, backend mismatch)."""


class ObjectTooLargeError(CacheError):
    """A value cannot fit in a single region/zone and was rejected."""


class InvalidTtlError(CacheError, ValueError):
    """A ``set`` carried a TTL that is not a positive, finite number of
    seconds, or one whose expiry does not fit the entry header."""


class InvalidKeyError(CacheError, ValueError):
    """A ``set`` carried an empty key (it would encode as the padding
    sentinel that ends a region's entries)."""


class CacheTypeError(CacheError, TypeError):
    """A ``set`` carried a key or value that is not ``bytes``.
    Subclasses :class:`TypeError`, what such a call raised before it was
    checked."""


class EntryCorruptError(CacheError):
    """An on-flash entry failed its checksum (torn or stale bytes)."""


# --- LSM layer ---------------------------------------------------------------


class LsmError(ReproError):
    """Base class for LSM key-value store errors."""


class DbClosedError(LsmError):
    """Operation on a closed database."""


class LsmTypeError(LsmError, TypeError):
    """A ``get``, ``put`` or ``delete`` carried a key or value that is
    not ``bytes``.  Subclasses :class:`TypeError` for the same reason
    :class:`CacheTypeError` does."""


# --- serving layer -----------------------------------------------------------


class ServerAlreadyRanError(ReproError):
    """``Server.run()`` was called a second time on the same server.

    A run consumes the tenants' streams and accumulates their SLO
    trackers; a second pass would report rows mixing both runs."""

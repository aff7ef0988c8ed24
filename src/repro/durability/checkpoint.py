"""Checkpoints and the manifest: bounding recovery to a log tail.

A checkpoint is a complete snapshot of the durable cube's state: every
layer of the declared stack (:func:`repro.core.front.layers`)
contributes its own arrays through one method, ``state_arrays()``,
bottom-up (:func:`snapshot_arrays`) -- kernel state through the
:class:`~repro.ecube.stores.DenseStore` snapshot machinery
(:func:`repro.storage.serialize.kernel_state_arrays`), then the ``G_d``
buffer's, then the retention tiers' --
written as one ``.npz`` archive and *published* by atomically renaming
the manifest over the old one; recovery hands the archive back to each
layer's ``restore_state()`` in the same order.  The manifest names:

* the checkpoint id and archive file,
* the covered LSN (every log record with LSN <= covered is reflected in
  the archive; recovery replays strictly after it),
* the live WAL segments at publication time,
* the front-end configuration (buffering, tiers, fsync policy; the
  ``backend`` / ``page_size`` / ``cell_size`` keys are the constants
  ``"dense"`` / ``null`` / ``null``) so recovery can rebuild the exact
  cube without out-of-band knowledge.

Publication order makes crashes harmless at every point: the archive is
written and renamed into place first, the manifest second (``os.replace``
is atomic on POSIX), and only then are fully covered log segments and
superseded checkpoint archives deleted.  A crash before the manifest
rename leaves the old manifest + an uncompacted log, which recovers to
the same state through a longer replay.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from repro.core.errors import RecoveryError
from repro.core.front import layers
from repro.storage.serialize import FORMAT_VERSION, kernel_state_arrays

MANIFEST_NAME = "MANIFEST.json"
MANIFEST_VERSION = 1


@dataclass
class CheckpointManifest:
    """The published durable-cube metadata (see module docstring)."""

    checkpoint_id: int
    covered_lsn: int
    checkpoint_file: str | None
    live_segments: list[str] = field(default_factory=list)
    config: dict = field(default_factory=dict)
    manifest_version: int = MANIFEST_VERSION
    archive_version: int = FORMAT_VERSION
    #: epoch sequence the archive corresponds to when the cube was being
    #: served concurrently (``None`` otherwise): the checkpoint pins that
    #: epoch while the archive is written, so the snapshot it persists is
    #: exactly the state concurrent readers of that epoch were answering
    #: from
    covered_epoch: int | None = None


def manifest_path(directory) -> Path:
    return Path(directory) / MANIFEST_NAME


def checkpoint_file_name(checkpoint_id: int) -> str:
    return f"checkpoint-{checkpoint_id:08d}.npz"


def read_manifest(directory) -> CheckpointManifest | None:
    """The current manifest, or ``None`` when none was ever published."""
    path = manifest_path(directory)
    if not path.exists():
        return None
    try:
        raw = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise RecoveryError(f"unreadable manifest {path}: {exc}") from exc
    version = int(raw.get("manifest_version", -1))
    if version > MANIFEST_VERSION:
        raise RecoveryError(
            f"manifest version {version} is newer than this build reads "
            f"({MANIFEST_VERSION}); upgrade the library"
        )
    return CheckpointManifest(
        checkpoint_id=int(raw["checkpoint_id"]),
        covered_lsn=int(raw["covered_lsn"]),
        checkpoint_file=raw.get("checkpoint_file"),
        live_segments=list(raw.get("live_segments", [])),
        config=dict(raw.get("config", {})),
        manifest_version=version,
        archive_version=int(raw.get("archive_version", FORMAT_VERSION)),
        covered_epoch=(
            int(raw["covered_epoch"])
            if raw.get("covered_epoch") is not None
            else None
        ),
    )


def publish_manifest(directory, manifest: CheckpointManifest) -> None:
    """Write the manifest next to the old one and atomically rename."""
    directory = Path(directory)
    target = manifest_path(directory)
    temp = directory / (MANIFEST_NAME + ".tmp")
    temp.write_text(json.dumps(asdict(manifest), indent=2) + "\n")
    os.replace(temp, target)
    _fsync_directory(directory)


def _fsync_directory(directory: Path) -> None:
    if not hasattr(os, "O_DIRECTORY"):  # pragma: no cover - non-POSIX
        return
    fd = os.open(directory, os.O_RDONLY | os.O_DIRECTORY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def snapshot_arrays(front) -> dict[str, np.ndarray]:
    """Complete state of the stack ``front`` tops: each layer its own
    arrays, bottom-up -- the kernel's (an extent cube's: both families,
    namespaced, plus its pending ends, containment index and clock),
    then the ``G_d`` buffer's, then the retention tiers' (rollup slices
    and watermarks; tile *contents* stay on disk, only their spans are
    recorded)."""
    bottom, *upper = reversed(layers(front).values())
    arrays = kernel_state_arrays(bottom)
    for layer in upper:
        arrays.update(layer.state_arrays())
    return arrays


def write_archive(directory, front, checkpoint_id: int) -> str:
    """Snapshot ``front`` into ``directory``'s archive for
    ``checkpoint_id``, durably; returns the archive's file name."""
    directory = Path(directory)
    directory.mkdir(exist_ok=True)
    name = checkpoint_file_name(checkpoint_id)
    temp = directory / (name + ".tmp")
    arrays = snapshot_arrays(front)
    with open(temp, "wb") as handle:
        # uncompressed (ZIP_STORED) so recovery can mmap the members and
        # serve straight off the file (repro.storage.mmap_npz); legacy
        # compressed archives still load through the np.load fallback
        np.savez(handle, **arrays)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(temp, directory / name)
    _fsync_directory(directory)
    return name


def write_checkpoint(
    directory,
    front,
    covered_lsn: int,
    checkpoint_id: int,
    config: dict,
    wal=None,
    covered_epoch: int | None = None,
) -> CheckpointManifest:
    """Snapshot ``front``, publish the manifest, and compact the log.

    ``wal`` (when given) supplies the live-segment listing and performs
    segment truncation after publication; without it only the archive
    and manifest are written.
    """
    manifest = CheckpointManifest(
        checkpoint_id=checkpoint_id,
        covered_lsn=covered_lsn,
        checkpoint_file=write_archive(directory, front, checkpoint_id),
        config=dict(config),
        covered_epoch=covered_epoch,
    )
    return publish_checkpoint(directory, manifest, wal)


def publish_checkpoint(
    directory, manifest: CheckpointManifest, wal=None, archive_dirs=None
) -> CheckpointManifest:
    """Publish ``manifest``, whose archives (one in ``directory``, or one
    in each of ``archive_dirs``) are durable; then compact: drop the log
    segments it covers and every other archive."""
    directory = Path(directory)
    manifest.live_segments = wal.segments() if wal is not None else []
    publish_manifest(directory, manifest)
    # Only after the new manifest is durable may covered history go away.
    if wal is not None and wal.drop_covered_segments(manifest.covered_lsn):
        manifest.live_segments = wal.segments()
        publish_manifest(directory, manifest)
    for folder in archive_dirs or [directory]:
        for stale in Path(folder).glob("checkpoint-*.npz"):
            if stale.name != manifest.checkpoint_file:
                stale.unlink()
    return manifest

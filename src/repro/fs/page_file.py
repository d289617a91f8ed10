"""Per-node Pangea data files and meta files.

Beyond the paper's layout (per-drive physical files, round-robin page
placement), this layer carries the robustness machinery a production
storage manager needs:

* every page image stores an end-to-end checksum in its meta-file entry;
  :meth:`SetFile.read_page` verifies it and raises
  :class:`~repro.sim.faults.PageCorruptionError` on mismatch;
* transient disk faults (injected through the
  :class:`~repro.sim.devices.DiskArray` fault hook) are absorbed by a
  bounded retry-with-backoff loop that charges simulated time;
* dropped page extents are recycled through per-disk free lists so
  long-lived transient sets do not grow their disk offsets unboundedly.
"""

from __future__ import annotations

import pickle
import typing
import zlib
from dataclasses import dataclass, replace

from repro.sim.devices import DiskArray
from repro.sim.faults import PageCorruptionError, RetryPolicy, TransientDiskError

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cluster.node import WorkerNode


def page_checksum(records: list) -> int:
    """CRC-32 of the pickle protocol 5 image of a page's record list.

    The pickle image is one canonical byte encoding of the whole list, so
    any change to a value's bytes changes the checksum: a float differing
    in its last digit, any element of a numpy array however long, and the
    order or number of records.  Limits:

    * the checksum is 32 bits wide, so a random corruption goes unseen
      with probability 2**-32;
    * records must be picklable;
    * the value is stable within one process, not across Python or numpy
      versions, and a set of strings pickles in hash-seed order — so
      checksums live only in the in-memory meta file and are never
      persisted (checkpoints recompute them on restore).

    Stored images are shallow copies of the written list, so pickle's
    memo layout (shared references) is the same at write and at read.
    """
    return zlib.crc32(pickle.dumps(records, protocol=5))


#: Sentinel injected into corrupted payloads; never equal to a user record.
CORRUPTION_SENTINEL = "__PANGEA_CORRUPTED__"


@dataclass(frozen=True)
class PageLocation:
    """One meta-file entry: where a page image lives on this node's disks.

    ``nbytes`` is the logical image size; ``extent_bytes`` is the size of
    the disk extent backing it (>= ``nbytes`` when a recycled extent was
    larger than the image).  ``checksum`` is verified on every read.
    """

    page_id: int
    disk_index: int
    offset: int
    nbytes: int
    checksum: int = 0
    extent_bytes: int = 0

    @property
    def allocated_bytes(self) -> int:
        return self.extent_bytes or self.nbytes


class SetFile:
    """The on-disk image of one locality set on one node.

    Pages are assigned to disk drives round-robin (each page's image is
    contiguous on one drive, per the paper's per-drive physical files); the
    *cost* of a transfer is charged through the striped
    :class:`~repro.sim.devices.DiskArray`, which models the aggregate
    bandwidth concurrent workers get from multiple drives.

    Unlike DBMIN's files, a locality set may have only a fraction (or none)
    of its pages on disk: transient sets only write images for pages that
    were actually spilled.
    """

    def __init__(
        self,
        set_name: str,
        disks: DiskArray,
        direct_io: bool = True,
        owner: "WorkerNode | None" = None,
    ) -> None:
        self.set_name = set_name
        self.disks = disks
        self.direct_io = direct_io
        #: The worker node this file lives on (None for standalone use);
        #: gives access to the node's retry policy, robustness counters,
        #: and fault injector.
        self.owner = owner
        self._payloads: dict[int, list] = {}
        self._meta: dict[int, PageLocation] = {}
        self._next_disk = 0
        self._disk_heads = [0] * disks.num_disks
        #: Per-disk free extents ``(offset, size)`` from dropped pages,
        #: reused before the disk head is advanced.
        self._free_extents: list[list[tuple[int, int]]] = [
            [] for _ in range(disks.num_disks)
        ]

    # ------------------------------------------------------------------
    # retry plumbing
    # ------------------------------------------------------------------

    def _retry_policy(self) -> RetryPolicy:
        if self.owner is not None and self.owner.retry_policy is not None:
            return self.owner.retry_policy
        return RetryPolicy()

    def _with_retries(self, op) -> float:
        """Run one disk operation, absorbing transient faults.

        Each failed attempt charges exponential backoff to the disk clock;
        the bound comes from the owning node's :class:`RetryPolicy`.  The
        returned cost includes the backoff seconds.
        """
        policy = self._retry_policy()
        attempt = 0
        backoff_total = 0.0
        while True:
            try:
                return op() + backoff_total
            except TransientDiskError:
                attempt += 1
                if attempt >= policy.max_attempts:
                    raise
                if self.owner is not None:
                    self.owner.robustness.retries += 1
                seconds = policy.backoff(attempt - 1)
                clock = self.disks.disks[0].clock
                if clock is not None:
                    clock.advance(seconds)
                backoff_total += seconds

    # ------------------------------------------------------------------
    # extent management
    # ------------------------------------------------------------------

    def _allocate_extent(self, nbytes: int) -> tuple[int, int, int]:
        """Pick (disk_index, offset, extent_bytes), reusing freed extents."""
        disk_index = self._next_disk
        self._next_disk = (self._next_disk + 1) % self.disks.num_disks
        free = self._free_extents[disk_index]
        for i, (offset, size) in enumerate(free):
            if size >= nbytes:
                free.pop(i)
                leftover = size - nbytes
                if leftover > 0:
                    free.append((offset + nbytes, leftover))
                return disk_index, offset, nbytes
        offset = self._disk_heads[disk_index]
        self._disk_heads[disk_index] += nbytes
        return disk_index, offset, nbytes

    def _release_extent(self, location: PageLocation) -> None:
        disk_index = location.disk_index
        extent = location.allocated_bytes
        if location.offset + extent == self._disk_heads[disk_index]:
            # The extent sits at the top of the allocated region: give the
            # space straight back to the disk head.
            self._disk_heads[disk_index] = location.offset
            return
        self._free_extents[disk_index].append((location.offset, extent))

    def assert_extent_accounting(self) -> None:
        """Verify disk-space accounting: every byte below each disk head is
        covered by exactly one live or free extent, with no overlaps."""
        for disk_index in range(self.disks.num_disks):
            spans = [
                (loc.offset, loc.allocated_bytes, f"page {loc.page_id}")
                for loc in self._meta.values()
                if loc.disk_index == disk_index
            ]
            spans.extend(
                (offset, size, "free")
                for offset, size in self._free_extents[disk_index]
            )
            spans.sort()
            covered = 0
            for (o1, s1, w1), (o2, _s2, w2) in zip(spans, spans[1:]):
                if o1 + s1 > o2:
                    raise AssertionError(
                        f"set {self.set_name!r} disk {disk_index}: extents "
                        f"{w1} and {w2} overlap ([{o1}, {o1 + s1}) vs {o2})"
                    )
            covered = sum(s for _o, s, _w in spans)
            head = self._disk_heads[disk_index]
            if covered != head:
                raise AssertionError(
                    f"set {self.set_name!r} disk {disk_index}: extents cover "
                    f"{covered} bytes but the disk head is at {head}"
                )

    # ------------------------------------------------------------------
    # data-file operations (all charge simulated disk time)
    # ------------------------------------------------------------------

    def _record_image(self, page_id: int, records: list, nbytes: int) -> None:
        """Store one page image and its meta-file entry (no disk charge).

        The checksum is taken over the stored copy.  The page's extent is
        reused when it is large enough; otherwise a new one is allocated.
        """
        image = list(records)
        checksum = page_checksum(image)
        existing = self._meta.get(page_id)
        if existing is not None and existing.allocated_bytes >= nbytes:
            location = replace(
                existing,
                nbytes=nbytes,
                checksum=checksum,
                extent_bytes=existing.allocated_bytes,
            )
        else:
            if existing is not None:
                self._release_extent(existing)
            disk_index, offset, extent = self._allocate_extent(nbytes)
            location = PageLocation(
                page_id=page_id,
                disk_index=disk_index,
                offset=offset,
                nbytes=nbytes,
                checksum=checksum,
                extent_bytes=extent,
            )
        self._meta[page_id] = location
        self._payloads[page_id] = image

    def _inject_corruptions(self, page_ids) -> None:
        """Let the owner's fault injector corrupt freshly written images."""
        injector = self.owner.fault_injector if self.owner is not None else None
        if injector is None:
            return
        for page_id in page_ids:
            if injector.should_corrupt(self.set_name, self.owner, page_id):
                self.corrupt_image(page_id)

    def write_page(self, page_id: int, records: list, nbytes: int) -> float:
        """Persist one page image; returns the simulated seconds charged.

        The image's checksum is computed before the write and stored in the
        meta file, so corruption of the stored image (injected or modeled)
        is detected end-to-end on the next read.
        """
        self._record_image(page_id, records, nbytes)
        cost = self._with_retries(lambda: self.disks.write(nbytes, num_ios=1))
        self._inject_corruptions([page_id])
        return cost

    def write_many(self, entries: "list[tuple[int, list, int]]") -> float:
        """Persist several page images with one coalesced disk transfer.

        ``entries`` is a list of ``(page_id, records, nbytes)`` triples.
        Checksums, extent allocation, and meta-file bookkeeping are
        identical to calling :meth:`write_page` per page; only the disk
        charge differs — one striped sequential write covering every
        image (one seek) via :meth:`DiskArray.write_many
        <repro.sim.devices.DiskArray.write_many>` instead of one
        operation per page.  Used by the batched victim-flush path.
        """
        if not entries:
            return 0.0
        if len(entries) == 1:
            return self.write_page(*entries[0])
        for page_id, records, nbytes in entries:
            self._record_image(page_id, records, nbytes)
        sizes = [nbytes for _page_id, _records, nbytes in entries]
        cost = self._with_retries(lambda: self.disks.write_many(sizes))
        self._inject_corruptions([page_id for page_id, _r, _n in entries])
        return cost

    def read_page(self, page_id: int) -> tuple[list, float]:
        """Load and verify one page image; returns (records, seconds).

        Raises :class:`PageCorruptionError` when the stored image fails its
        checksum — the buffer layer's read-repair path catches this and
        restores the page from a surviving replica.
        """
        if page_id not in self._payloads:
            raise KeyError(
                f"set {self.set_name!r} has no on-disk image for page {page_id}"
            )
        location = self._meta[page_id]
        cost = self._with_retries(
            lambda: self.disks.read(location.nbytes, num_ios=1)
        )
        payload = list(self._payloads[page_id])
        if page_checksum(payload) != location.checksum:
            if self.owner is not None:
                self.owner.robustness.corruptions_detected += 1
            where = (
                f" on node {self.owner.node_id}" if self.owner is not None else ""
            )
            raise PageCorruptionError(
                f"checksum mismatch for page {page_id} of set "
                f"{self.set_name!r}{where}: the on-disk image is corrupt"
            )
        return payload, cost

    def peek_records(self, page_id: int) -> list:
        """Surviving on-disk records of one page, metadata-side.

        This is the public accessor the recovery and safety layers use to
        consult a shard's object index without charging data I/O (the
        manager already holds this metadata); it performs no checksum
        verification and never fails — a missing image yields ``[]``.
        """
        return list(self._payloads.get(page_id, []))

    def corrupt_image(self, page_id: int) -> None:
        """Corrupt the stored image of one page (fault injection only).

        The meta-file checksum is left at the value of the original
        payload, so the next :meth:`read_page` detects the damage.
        """
        payload = self._payloads.get(page_id)
        if payload is None:
            raise KeyError(
                f"set {self.set_name!r} has no on-disk image for page {page_id}"
            )
        if payload:
            payload[len(payload) // 2] = CORRUPTION_SENTINEL
        else:
            payload.append(CORRUPTION_SENTINEL)

    def contains(self, page_id: int) -> bool:
        return page_id in self._payloads

    def location(self, page_id: int) -> PageLocation:
        """Meta-file lookup (no data transfer)."""
        return self._meta[page_id]

    def drop_page(self, page_id: int) -> None:
        self._payloads.pop(page_id, None)
        location = self._meta.pop(page_id, None)
        if location is not None:
            self._release_extent(location)

    def truncate(self) -> None:
        """Remove all page images (set deletion is a metadata operation)."""
        self._payloads.clear()
        self._meta.clear()
        self._disk_heads = [0] * self.disks.num_disks
        self._free_extents = [[] for _ in range(self.disks.num_disks)]

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    @property
    def num_pages(self) -> int:
        return len(self._payloads)

    @property
    def bytes_on_disk(self) -> int:
        return sum(loc.nbytes for loc in self._meta.values())

    @property
    def free_extent_bytes(self) -> int:
        """Recyclable space from dropped pages (not yet reused)."""
        return sum(
            size for extents in self._free_extents for _offset, size in extents
        )

    @property
    def disk_head_bytes(self) -> int:
        """Total high-water mark across the disks (allocation footprint)."""
        return sum(self._disk_heads)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SetFile({self.set_name!r}, pages={self.num_pages}, "
            f"bytes={self.bytes_on_disk})"
        )

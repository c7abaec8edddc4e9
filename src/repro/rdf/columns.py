"""Sorted id-triple columns for the columnar triple store.

Each :class:`SortedKeyRun` holds one permutation of the graph's id-encoded
triples (SPO, POS or OSP) as a single sorted sequence of packed integer
keys — ``key = (a << 2·bits) | (b << bits) | c`` — so that every triple
pattern whose bound positions form a prefix of the permutation is one
``bisect`` range scan.

Incremental maintenance instead of rebuild-on-mutation:

* single inserts go into a small **sorted buffer** (``bisect.insort`` into a
  list of at most :data:`BUFFER_LIMIT` keys); membership tests consult both
  the buffer and the main run without merging;
* the buffer is **merged into the main run** when it fills up or before a
  range scan — one near-linear Timsort pass over two already-sorted runs —
  so a burst of mutations costs one merge, not one rebuild per mutation;
* bulk loads (:meth:`extend_sorted`) sort the incoming keys once and merge,
  which is what :meth:`RDFGraph.from_triples <repro.rdf.graph.RDFGraph>`
  rides on;
* deletions locate the key by binary search and splice it out of the
  (contiguous) run.

While ids fit in ``bits = 21`` the runs are backed by ``array('q')`` — three
packed fields in one signed 64-bit word, eight bytes per triple per
permutation.  A graph that interns more than ``2**21`` distinct terms
promotes its runs to plain lists of (unbounded) Python ints via
:meth:`widen`; packing is monotone in either representation, so widening is
a linear re-encode that preserves sort order.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, insort
from typing import Iterable, Iterator, List, Sequence, Union

__all__ = ["SortedKeyRun", "scan_mask", "BUFFER_LIMIT", "ARRAY_BITS_LIMIT"]

#: Buffered inserts are merged into the main run at this size.
BUFFER_LIMIT = 1024

#: The widest per-field bit width that still packs three fields into a
#: signed 64-bit ``array('q')`` slot.
ARRAY_BITS_LIMIT = 21

_Backing = Union["array[int]", List[int]]


def _backing(bits: int, keys: Iterable[int] = ()) -> _Backing:
    if bits <= ARRAY_BITS_LIMIT:
        return array("q", keys)
    return list(keys)


class SortedKeyRun:
    """One sorted permutation run of packed triple keys (see module docs)."""

    __slots__ = ("_main", "_buffer")

    def __init__(self, bits: int, sorted_keys: Iterable[int] = ()) -> None:
        self._main: _Backing = _backing(bits, sorted_keys)
        self._buffer: List[int] = []

    # --- queries -----------------------------------------------------------
    def __len__(self) -> int:
        return len(self._main) + len(self._buffer)

    def __contains__(self, key: int) -> bool:
        """Membership by binary search in the main run and the buffer."""
        buffer = self._buffer
        if buffer:
            i = bisect_left(buffer, key)
            if i < len(buffer) and buffer[i] == key:
                return True
        main = self._main
        i = bisect_left(main, key)
        return i < len(main) and main[i] == key

    def __iter__(self) -> Iterator[int]:
        """All keys in sorted order (merges the buffer first)."""
        self.flush()
        return iter(self._main)

    def keys(self) -> _Backing:
        """The sorted keys, buffer merged in (shared, not copied: read them
        before the next mutation of this run, never write them)."""
        self.flush()
        return self._main

    # --- mutation ----------------------------------------------------------
    def add(self, key: int) -> None:
        """Insert *key* (caller guarantees it is not present)."""
        insort(self._buffer, key)
        if len(self._buffer) >= BUFFER_LIMIT:
            self.flush()

    def extend_sorted(self, sorted_keys: Iterable[int]) -> None:
        """Bulk-insert already-sorted, not-present keys with one merge."""
        self._buffer.extend(sorted_keys)
        self.flush()

    def remove(self, key: int) -> None:
        """Delete *key* (caller guarantees it is present)."""
        buffer = self._buffer
        if buffer:
            i = bisect_left(buffer, key)
            if i < len(buffer) and buffer[i] == key:
                del buffer[i]
                return
        main = self._main
        i = bisect_left(main, key)
        del main[i]

    def flush(self) -> None:
        """Merge the insert buffer into the main run (no-op when empty).

        ``sorted()`` over the concatenation is a single Timsort galloping
        merge of two sorted runs — near-linear, at C speed.
        """
        if not self._buffer:
            return
        main = self._main
        main.extend(self._buffer)
        self._buffer.clear()
        merged = sorted(main)
        if isinstance(main, array):
            self._main = array("q", merged)
        else:
            self._main = merged

    # --- representation management -----------------------------------------
    def widen(self, old_bits: int, new_bits: int) -> None:
        """Re-encode every key from *old_bits* to *new_bits* fields.

        Packing is monotone in the (a, b, c) field tuple for any fixed
        width, so the linear re-encode preserves sort order.
        """
        self.flush()
        old_mask = (1 << old_bits) - 1
        shift2 = 2 * old_bits

        def repack(key: int) -> int:
            a = key >> shift2
            b = (key >> old_bits) & old_mask
            c = key & old_mask
            return (a << (2 * new_bits)) | (b << new_bits) | c

        self._main = _backing(new_bits, (repack(key) for key in self._main))

    def copy(self) -> "SortedKeyRun":
        """An independent copy of this run."""
        self.flush()
        result = SortedKeyRun.__new__(SortedKeyRun)
        if isinstance(self._main, array):
            result._main = array("q", self._main)
        else:
            result._main = list(self._main)
        result._buffer = []
        return result

    def snapshot(self) -> _Backing:
        """A flushed, independent copy of the sorted keys (for indexes)."""
        self.flush()
        main = self._main
        if isinstance(main, array):
            return array("q", main)
        return list(main)


def scan_mask(
    bits: int,
    spo: Sequence[int],
    pos: Sequence[int],
    osp: Sequence[int],
    s: "int | None",
    p: "int | None",
    o: "int | None",
) -> Iterator[tuple]:
    """Yield ``((s, p, o), packed_spo_key)`` for one bound-position mask.

    *spo*, *pos* and *osp* are the sorted key sequences of the three
    permutations (:meth:`SortedKeyRun.keys` or a
    :meth:`~SortedKeyRun.snapshot`).  Every one of the seven masks is a
    prefix of one of the three permutations, so each call is a single
    bisect range scan: ``s`` / ``sp`` lead SPO, ``p`` / ``po`` lead POS,
    ``o`` / ``os`` lead OSP, and the fully bound mask is a membership
    probe.  Shared by :meth:`RDFGraph.matches
    <repro.rdf.graph.RDFGraph.matches>` and
    :class:`~repro.hom.homomorphism.TargetIndex`.
    """
    mask = (1 << bits) - 1
    shift2 = 2 * bits

    def pack(a: int, b: int, c: int) -> int:
        return (a << shift2) | (b << bits) | c

    def scan(keys: Sequence[int], lo: int, width: int) -> Sequence[int]:
        i = bisect_left(keys, lo)
        return keys[i : bisect_left(keys, lo + width, i)]

    if s is not None and p is not None and o is not None:
        key = pack(s, p, o)
        i = bisect_left(spo, key)
        if i < len(spo) and spo[i] == key:
            yield (s, p, o), key
        return
    if s is not None and p is not None:
        for key in scan(spo, pack(s, p, 0), 1 << bits):
            yield (s, p, key & mask), key
        return
    if p is not None and o is not None:
        for key in scan(pos, pack(p, o, 0), 1 << bits):
            si = key & mask
            yield (si, p, o), pack(si, p, o)
        return
    if s is not None and o is not None:
        for key in scan(osp, pack(o, s, 0), 1 << bits):
            pi = key & mask
            yield (s, pi, o), pack(s, pi, o)
        return
    if s is not None:
        for key in scan(spo, s << shift2, 1 << shift2):
            yield (s, (key >> bits) & mask, key & mask), key
        return
    if p is not None:
        for key in scan(pos, p << shift2, 1 << shift2):
            si, oi = key & mask, (key >> bits) & mask
            yield (si, p, oi), pack(si, p, oi)
        return
    if o is not None:
        for key in scan(osp, o << shift2, 1 << shift2):
            si, pi = (key >> bits) & mask, key & mask
            yield (si, pi, o), pack(si, pi, o)
        return
    for key in spo:
        yield (key >> shift2, (key >> bits) & mask, key & mask), key

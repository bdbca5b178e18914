"""GPU memory state: global memory and per-threadblock scratchpad.

Global memory is a single byte array.  Warp accesses are vectorised: a
load takes 32 lane byte-addresses and returns 32 values.  The number of
DRAM transactions is computed from the addresses exactly the way the
hardware coalescer does — distinct 128-byte segments touched by the
active lanes — so fully coalesced 4-byte accesses cost one transaction
and scattered accesses cost up to 32.

A warp access names its lanes one of two ways: an int64 vector of lane
addresses (any shape of access), or a :class:`LaneRange` — lanes
``i < active`` at ``base + i * width``, the coalesced warp line that
page copies, copy kernels and linked apointer warps issue.  Data moves
on one of three paths:

* **range slice** — a ``LaneRange`` whose ``width`` is the access width,
  whose base is a multiple of the element width, with no extra mask:
  the active lanes' elements are one contiguous run, so the access is
  one slice of a typed view of the byte array, and the bounds check is
  two compares on the run's ends;
* **aligned gather** — every active lane's address is a multiple of
  the element width: one gather or scatter on the typed view;
* **byte path** — otherwise (an unaligned lane) the elements move byte
  by byte.

Any other ``LaneRange`` is materialised to its lane array and prefix
mask and takes the array paths.  All three paths read and write the
same bytes and raise the same :class:`MemoryError_`.

The coalescer's count for a ``LaneRange`` is closed-form: its lanes
cover the byte interval ``[base, base + active * width)`` without gaps,
so they touch every segment from ``base // tb`` to
``(base + active * width - 1) // tb`` and no other.
"""

from __future__ import annotations

from typing import NamedTuple, NoReturn

import numpy as np

DTYPE_WIDTHS = {
    "u1": 1, "i1": 1,
    "u2": 2, "i2": 2,
    "u4": 4, "i4": 4, "f4": 4,
    "u8": 8, "i8": 8, "f8": 8,
}
_LOG2 = {1: 0, 2: 1, 4: 2, 8: 3}


class MemoryError_(Exception):
    """Raised on out-of-bounds simulated memory access."""


class LaneRange(NamedTuple):
    """A contiguous warp access: lane ``i`` at ``base + i * width`` for
    ``i < active``; the lanes from ``active`` to ``size`` are inactive.

    ``np.asarray`` materialises the lane addresses; :attr:`mask` is the
    matching prefix mask.  The two together are exactly the array
    access this range stands for.
    """

    base: int
    width: int
    active: int
    size: int

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        addrs = self.base + self.width * np.arange(self.size,
                                                   dtype=np.int64)
        return addrs if dtype is None else addrs.astype(dtype, copy=False)

    @property
    def mask(self) -> np.ndarray | None:
        """The active lanes, or ``None`` when every lane is active."""
        if self.active >= self.size:
            return None
        return np.arange(self.size) < self.active

    def shift(self, delta: int) -> "LaneRange":
        """The same lanes ``delta`` bytes further on."""
        return self._replace(base=self.base + delta)


def materialise(addrs, mask: np.ndarray | None = None):
    """``(lane addresses, mask)`` of an access: a :class:`LaneRange`
    becomes its lane array with its prefix mask ANDed into ``mask``;
    anything else is returned as it is."""
    if type(addrs) is not LaneRange:
        return addrs, mask
    prefix = addrs.mask
    if prefix is not None:
        mask = prefix if mask is None else prefix & np.asarray(mask, bool)
    return np.asarray(addrs), mask


class GlobalMemory:
    """The GPU's global (device) memory.

    A bump allocator hands out regions; :meth:`load_vector` and
    :meth:`store_vector` perform the actual data movement for a warp.
    Every warp accessor takes lane addresses as an array or as a
    :class:`LaneRange`.
    """

    def __init__(self, size: int, transaction_bytes: int = 128):
        self.size = int(size)
        self.transaction_bytes = int(transaction_bytes)
        self.data = np.zeros(self.size, dtype=np.uint8)
        self._next_free = 0
        #: Typed views of ``data`` by dtype, derived on first use.
        self._views: dict[str, np.ndarray] = {}

    # ------------------------------------------------------------------
    # Allocation
    # ------------------------------------------------------------------
    def alloc(self, nbytes: int, align: int = 256) -> int:
        """Allocate ``nbytes`` and return the base address."""
        base = -(-self._next_free // align) * align
        if base + nbytes > self.size:
            raise MemoryError_(
                f"out of device memory: need {nbytes} at {base}, "
                f"capacity {self.size}"
            )
        self._next_free = base + nbytes
        return base

    def reset_allocator(self) -> None:
        self._next_free = 0

    @property
    def bytes_allocated(self) -> int:
        return self._next_free

    # ------------------------------------------------------------------
    # Scalar and bulk accessors (used by host-side code / DMA)
    # ------------------------------------------------------------------
    def read(self, addr: int, nbytes: int) -> np.ndarray:
        self._check(addr, nbytes)
        return self.data[addr:addr + nbytes]

    def write(self, addr: int, values: np.ndarray) -> None:
        raw = np.asarray(values).view(np.uint8).ravel()
        self._check(addr, raw.size)
        self.data[addr:addr + raw.size] = raw

    # ------------------------------------------------------------------
    # Warp-vector accessors
    # ------------------------------------------------------------------
    def load_vector(self, addrs, dtype: str,
                    mask: np.ndarray | None = None) -> np.ndarray:
        """Gather one element of ``dtype`` per active lane."""
        return self._load(addrs, dtype, None, mask)

    def load_vector_wide(self, addrs, dtype: str, elems: int,
                         mask: np.ndarray | None = None) -> np.ndarray:
        """Gather ``elems`` consecutive elements of ``dtype`` per lane
        (vectorised 8/16-byte loads).  Returns shape ``(lanes, elems)``."""
        return self._load(addrs, dtype, elems, mask)

    def store_vector(self, addrs, values: np.ndarray,
                     dtype: str, mask: np.ndarray | None = None) -> None:
        """Scatter one element of ``dtype`` per active lane.

        ``values`` with one more axis than the lanes, ``elems`` long,
        stores ``elems`` consecutive elements per lane: the wide store.
        Lanes storing to the same address leave the last lane's value.
        """
        width = DTYPE_WIDTHS[dtype]
        values = np.asarray(values, dtype=np.dtype(dtype))
        if type(addrs) is LaneRange:
            elems = values.shape[-1] if values.ndim > 1 else 1
            if (mask is None and addrs.width == width * elems
                    and not addrs.base % width):
                active = addrs.active
                if active:
                    first = self._range_start(addrs, width)
                    self._typed(dtype)[first:first + active * elems] = \
                        values[:active].reshape(-1)
                return
            addrs, mask = materialise(addrs, mask)
        addrs = np.asarray(addrs, dtype=np.int64)
        wide = values.ndim > addrs.ndim
        elems = values.shape[-1] if wide else 1
        nbytes = width * elems
        mask = _partial(mask)
        if mask is not None:
            addrs = addrs[mask]
            values = values[mask]
            if addrs.size == 0:
                return
        idx = self._element_index(addrs, width)
        if idx is not None:
            if wide:
                # Element-major, the order the byte path writes in:
                # where two lanes' wide stores overlap, the later
                # element wins.
                idx = np.arange(elems)[:, None] + idx.ravel()
                values = values.reshape(-1, elems).T
            try:
                self._typed(dtype)[idx] = values
            except IndexError:
                self._check_vec(addrs, nbytes)
                raise
            return
        self._check_vec(addrs, nbytes)
        sel = addrs.ravel()
        raw = np.ascontiguousarray(values).view(np.uint8).reshape(
            -1, nbytes)
        for i in range(nbytes):
            self.data[sel + i] = raw[:, i]

    def transactions_for(self, addrs, width: int,
                         mask: np.ndarray | None = None) -> int:
        """DRAM transactions for a warp access (coalescer model): the
        distinct ``transaction_bytes`` segments the active lanes touch."""
        tb = self.transaction_bytes
        if type(addrs) is LaneRange:
            if mask is None and addrs.width == width:
                # Gap-free lanes: every segment between the first and
                # the last byte's, whatever the base's alignment.
                base, active = addrs.base, addrs.active
                if not active:
                    return 0
                return (base + active * width - 1) // tb - base // tb + 1
            addrs, mask = materialise(addrs, mask)
        addrs = np.asarray(addrs, dtype=np.int64).ravel()
        mask = _partial(mask)
        if mask is not None:
            addrs = addrs[mask.ravel()]
        if addrs.size == 0:
            return 0
        if addrs.size == 1:
            addr = int(addrs[0])
            return 1 + int((addr + width - 1) // tb != addr // tb)
        first = addrs // tb
        if _pow2(width) and tb % width == 0 and not (
                int(np.bitwise_or.reduce(addrs)) & (width - 1)):
            # No lane straddles a segment, so each lane touches exactly
            # its ``first`` segment; when those never decrease across
            # the warp, every change between neighbours is a new one.
            steps = first[1:] - first[:-1]
            if int(steps.min()) >= 0:
                return 1 + int(np.count_nonzero(steps))
        last = (addrs + width - 1) // tb
        return int(np.union1d(first, last).size)

    # ------------------------------------------------------------------
    def __getstate__(self) -> dict:
        # Typed views pickle as independent copies, so a copy's stores
        # would never reach its ``data``; the copy re-derives them.
        state = self.__dict__.copy()
        state["_views"] = {}
        return state

    def _typed(self, dtype: str) -> np.ndarray:
        """``data`` viewed as an array of ``dtype`` elements (the bytes
        past the last whole element are left out)."""
        view = self._views.get(dtype)
        if view is None:
            whole = self.size - self.size % DTYPE_WIDTHS[dtype]
            view = self._views[dtype] = self.data[:whole].view(dtype)
        return view

    @staticmethod
    def _element_index(addrs: np.ndarray, width: int) -> np.ndarray | None:
        """Each lane's index into the ``width``-byte typed view, or
        ``None`` when a lane address is negative or not a multiple of
        ``width`` (the byte path).

        An index past the view's end raises ``IndexError`` on use;
        numpy checks every index before it moves any data.
        """
        bits = int(np.bitwise_or.reduce(addrs, axis=None))
        if bits < 0 or bits & (width - 1):
            return None
        return addrs >> _LOG2[width] if width > 1 else addrs

    def _load(self, addrs, dtype: str, elems: int | None,
              mask: np.ndarray | None) -> np.ndarray:
        """Gather per active lane one element (``elems=None``) or an
        ``elems`` axis of consecutive elements."""
        width = DTYPE_WIDTHS[dtype]
        nbytes = width * (elems or 1)
        if type(addrs) is LaneRange:
            if (mask is None and addrs.width == nbytes
                    and not addrs.base % width):
                return self._load_range(addrs, dtype, elems)
            addrs, mask = materialise(addrs, mask)
        addrs = np.asarray(addrs, dtype=np.int64)
        shape = addrs.shape if elems is None else addrs.shape + (elems,)
        mask = _partial(mask)
        sel = addrs if mask is None else addrs[mask]
        if sel.size == 0:
            return np.zeros(shape, dtype=np.dtype(dtype))
        idx = self._element_index(sel, width)
        if idx is not None:
            if elems is not None:
                idx = idx[..., None] + np.arange(elems)
            try:
                vals = self._typed(dtype)[idx]
            except IndexError:
                self._check_vec(sel, nbytes)
                raise
        else:
            self._check_vec(sel, nbytes)
            raw = self.data[sel[..., None] + np.arange(nbytes)]
            vals = raw.view(np.dtype(dtype))
            if elems is None:
                vals = vals.reshape(sel.shape)
        if mask is None:
            return vals
        out = np.zeros(shape, dtype=np.dtype(dtype))
        out[mask] = vals
        return out

    def _load_range(self, lanes: LaneRange, dtype: str,
                    elems: int | None) -> np.ndarray:
        """The range-slice load: one element (``elems=None``) or an
        ``elems`` axis per lane, zero in the inactive lanes."""
        active, size = lanes.active, lanes.size
        shape = (size,) if elems is None else (size, elems)
        if not active:
            return np.zeros(shape, dtype=np.dtype(dtype))
        first = self._range_start(lanes, DTYPE_WIDTHS[dtype])
        run = self._typed(dtype)[first:first + active * (elems or 1)]
        if active == size:
            return run.reshape(shape).copy()
        out = np.zeros(shape, dtype=np.dtype(dtype))
        out[:active] = run.reshape((active,) + shape[1:])
        return out

    def _range_start(self, lanes: LaneRange, width: int) -> int:
        """Bounds-check a range-slice access (active lanes only) and
        return its first index into the ``width``-byte typed view."""
        base = lanes.base
        end = base + lanes.active * lanes.width
        if base < 0 or end > self.size:
            self._out_of_bounds(base, end)
        return base // width

    # ------------------------------------------------------------------
    def _check(self, addr: int, nbytes: int) -> None:
        if addr < 0 or addr + nbytes > self.size:
            raise MemoryError_(
                f"device access [{addr}, {addr + nbytes}) out of bounds "
                f"(size {self.size})"
            )

    def _check_vec(self, addrs: np.ndarray, width: int) -> None:
        if addrs.size and (addrs.min() < 0 or addrs.max() + width > self.size):
            self._out_of_bounds(addrs.min(), addrs.max() + width)

    def _out_of_bounds(self, lo: int, hi: int) -> NoReturn:
        raise MemoryError_(
            f"device vector access out of bounds: [{lo}, {hi}) "
            f"size {self.size}"
        )


def _pow2(n: int) -> bool:
    return n > 0 and not n & (n - 1)


def _partial(mask: np.ndarray | None) -> np.ndarray | None:
    """``mask``, or ``None`` when every lane is active (the shortcut
    that skips the boolean-indexing copies)."""
    if mask is None or np.count_nonzero(mask) == mask.size:
        return None
    return mask


class Scratchpad:
    """Per-threadblock on-die scratchpad ("shared memory").

    Unlike global memory it is private to a threadblock, so it is handed
    to the block at launch.  It stores Python/numpy objects directly: the
    software TLB keeps its entries here.
    """

    def __init__(self, nbytes: int):
        self.nbytes = int(nbytes)
        self._used = 0
        self._arrays: dict[str, np.ndarray] = {}

    def alloc_array(self, name: str, count: int, dtype: str) -> np.ndarray:
        """Allocate a named typed array; raises if over capacity."""
        width = DTYPE_WIDTHS[dtype]
        need = count * width
        if self._used + need > self.nbytes:
            raise MemoryError_(
                f"scratchpad overflow: {self._used} + {need} > {self.nbytes}"
            )
        self._used += need
        arr = np.zeros(count, dtype=np.dtype(dtype))
        self._arrays[name] = arr
        return arr

    @property
    def bytes_used(self) -> int:
        return self._used

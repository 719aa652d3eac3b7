"""Structure-of-arrays damage ledger backing the fault model's hot state.

The scalar fault model used to keep one ``_RowState`` per touched row --
a dict of damage pools plus synergy bookkeeping.  Probe replay spends
most of its fault-model time in exactly four operations (deposit, hit
ordinal bump, side-hit stamp, restore), so the ledger packs that state
into flat numpy arrays indexed by a per-(bank, row) *slot*:

``damage``
    ``(capacity, N_POOLS)`` float64 -- one pool per (mechanism,
    direction) pair, in :data:`POOL_KEYS` order.
``hits``
    ``(capacity,)`` int64 -- the victim-hit ordinal counter.
``side``
    ``(capacity, 2)`` int64 -- ordinal of the last hit from below
    (column 0) / above (column 1); :data:`NO_HIT` means never hit.
``flips``
    ``(capacity, 2)`` int64 -- flips already applied per direction, in
    :data:`DIRECTIONS` order.

Scalar code paths read and write through ``memoryview`` aliases of the
same buffers (:attr:`dmg`, :attr:`hits_mv`, ...): a memoryview scalar
access returns a plain Python float/int at roughly list speed, whereas
``ndarray[i]`` boxes a numpy scalar and costs several times more.
Vectorized kernels (``np.add.at`` trace application, slice restores)
operate on the ndarrays directly; both views share memory.

Bit-identity with the dict implementation needs one extra structure:
``pool_order[slot]`` lists the pools of a slot in first-deposit order,
mirroring dict key insertion order.  Reference code summed
``damage.values()`` and built ``{mech for mech, _ in damage}`` -- both
orders are reproduced exactly by iterating ``pool_order``, so guard
sums and eta contractions accumulate in the identical float sequence.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .calibration import FlipDirection, Mechanism

#: canonical mechanism / direction orders defining pool layout
MECHANISMS = (Mechanism.ROWHAMMER, Mechanism.COMRA, Mechanism.SIMRA)
DIRECTIONS = (FlipDirection.ONE_TO_ZERO, FlipDirection.ZERO_TO_ONE)

N_POOLS = len(MECHANISMS) * len(DIRECTIONS)

MECH_INDEX = {mech: i for i, mech in enumerate(MECHANISMS)}
DIR_INDEX = {direction: i for i, direction in enumerate(DIRECTIONS)}

#: pool index -> (mechanism, direction), row-major over (mech, dir)
POOL_KEYS = tuple(
    (mech, direction) for mech in MECHANISMS for direction in DIRECTIONS
)
POOL_INDEX = {key: i for i, key in enumerate(POOL_KEYS)}
POOL_MECHS = tuple(mech for mech, _ in POOL_KEYS)

#: side array sentinel: far enough below any reachable ordinal that the
#: synergy window test ``hits - other <= window`` is always False, yet
#: safe from int64 overflow when subtracted from real ordinals
NO_HIT = -(1 << 62)


class DamageLedger:
    """Slot-addressed damage state shared by all banks of one module."""

    __slots__ = (
        "capacity", "size", "damage", "hits", "side", "flips",
        "dmg", "hits_mv", "side_mv", "flips_mv",
        "pool_order", "flipped", "_slots", "_keys",
    )

    def __init__(self, capacity: int = 512) -> None:
        self.capacity = capacity
        self.size = 0
        self.damage = np.zeros((capacity, N_POOLS), dtype=np.float64)
        self.hits = np.zeros(capacity, dtype=np.int64)
        self.side = np.full((capacity, 2), NO_HIT, dtype=np.int64)
        self.flips = np.zeros((capacity, 2), dtype=np.int64)
        self._rebuild_views()
        # per-slot python-side bookkeeping
        self.pool_order: list[list[int]] = []
        self.flipped: list[set[int]] = []
        self._slots: dict[tuple[int, int], int] = {}
        self._keys: list[tuple[int, int]] = []

    def _rebuild_views(self) -> None:
        self.dmg = memoryview(self.damage.reshape(-1))
        self.hits_mv = memoryview(self.hits)
        self.side_mv = memoryview(self.side.reshape(-1))
        self.flips_mv = memoryview(self.flips.reshape(-1))

    # ------------------------------------------------------------------
    # Slot allocation
    # ------------------------------------------------------------------
    def slot(self, bank: int, row: int) -> int:
        """Slot of (bank, row), allocating one on first touch."""
        key = (bank, row)
        idx = self._slots.get(key)
        if idx is None:
            idx = self.size
            if idx >= self.capacity:
                self._grow()
            self.size = idx + 1
            self._slots[key] = idx
            self._keys.append(key)
            self.pool_order.append([])
            self.flipped.append(set())
        return idx

    def peek(self, bank: int, row: int) -> Optional[int]:
        """Slot of (bank, row) if it exists, else None (no allocation)."""
        return self._slots.get((bank, row))

    def key_of(self, slot: int) -> tuple[int, int]:
        """Reverse lookup: (bank, row) owning a slot."""
        return self._keys[slot]

    def _grow(self) -> None:
        new_cap = self.capacity * 2
        damage = np.zeros((new_cap, N_POOLS), dtype=np.float64)
        damage[: self.capacity] = self.damage
        hits = np.zeros(new_cap, dtype=np.int64)
        hits[: self.capacity] = self.hits
        side = np.full((new_cap, 2), NO_HIT, dtype=np.int64)
        side[: self.capacity] = self.side
        flips = np.zeros((new_cap, 2), dtype=np.int64)
        flips[: self.capacity] = self.flips
        self.damage, self.hits, self.side, self.flips = (
            damage, hits, side, flips,
        )
        self.capacity = new_cap
        self._rebuild_views()

    # ------------------------------------------------------------------
    # Restore (charge restoration clears pools, keeps hit bookkeeping)
    # ------------------------------------------------------------------
    def restore(self, slot: int) -> None:
        """Clear a slot's damage pools, applied-flip counts and flip set."""
        order = self.pool_order[slot]
        if order:
            dmg = self.dmg
            base = slot * N_POOLS
            for pool in order:
                dmg[base + pool] = 0.0
            order.clear()
        flips = self.flips_mv
        base2 = slot + slot
        flips[base2] = 0
        flips[base2 + 1] = 0
        cells = self.flipped[slot]
        if cells:
            cells.clear()

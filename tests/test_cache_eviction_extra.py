"""Tests for windowed reclaim over the FIFO/LRU region orders."""

import pytest

from repro.cache.eviction import make_eviction_policy
from repro.cache.region import RegionMeta
from repro.cache.region_manager import RegionManager


class TestWindowedReclaim:
    def seal_all(self, manager, count):
        for _ in range(count):
            region_id, evicted = manager.allocate()
            assert not evicted
            manager.seal(RegionMeta(region_id))

    def test_window_one_is_strict_policy_order(self):
        manager = RegionManager(4, "fifo", reclaim_window=1)
        self.seal_all(manager, 4)
        victims = [manager.allocate()[0] for _ in range(2)]
        assert victims == [0, 1]

    def test_windowed_victims_stay_near_head(self):
        manager = RegionManager(16, "fifo", reclaim_window=4, seed=3)
        self.seal_all(manager, 16)
        first = manager.allocate()[0]
        assert first in (0, 1, 2, 3)

    def test_windowed_reclaim_covers_everything(self):
        """Reuse order may deviate by the window, but over a few cycles
        every region is reclaimed."""
        manager = RegionManager(8, "fifo", reclaim_window=3, seed=5)
        self.seal_all(manager, 8)
        victims = []
        for _ in range(24):  # three cycles
            region_id, _ = manager.allocate()
            victims.append(region_id)
            manager.seal(RegionMeta(region_id))
        assert set(victims) == set(range(8))

    def test_invalid_window(self):
        with pytest.raises(ValueError):
            RegionManager(4, "fifo", reclaim_window=0)

    def test_eviction_position_ordering(self):
        manager = RegionManager(8, "fifo")
        self.seal_all(manager, 4)
        assert manager.eviction_position(0) == 0.0  # next victim
        assert manager.eviction_position(3) == 1.0  # most recent
        middle = manager.eviction_position(1)
        assert 0.0 < middle < 1.0

    def test_eviction_position_unsealed_is_none(self):
        manager = RegionManager(8, "fifo")
        assert manager.eviction_position(0) is None

    def test_policy_order_matches_victims(self):
        policy = make_eviction_policy("fifo")
        for region_id in (5, 3, 9):
            policy.track(region_id)
        assert policy.order() == [5, 3, 9]
        assert policy.pick_victim() == 5

    def test_eviction_returns_keys(self):
        manager = RegionManager(2, "fifo")
        a, _ = manager.allocate()
        meta = RegionMeta(a)
        meta.note_inserted(b"k1")
        manager.seal(meta)
        b, _ = manager.allocate()
        manager.seal(RegionMeta(b))
        victim, evicted = manager.allocate()
        assert victim == a
        assert evicted == {b"k1": 0}

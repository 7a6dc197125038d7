"""The shared page store, buffer aliasing on the rotation path, and the
windowed victim draw's read-ahead fast path.

* ``PageStore`` against the semantics of the per-page ``Dict[int, bytes]``
  stores it replaced (hypothesis model test), ``move`` against a twin that
  loads and stores, laziness of the sparse 4 GiB HDD, and ``copy.deepcopy``
  independence of every device.
* Aliasing: a sealed region's bytes on every backend still equal what was
  sealed after the engine has recycled and refilled the region buffer; the
  payload handed to ``write_region`` is a read-only view; torn-write
  prefixes cut from such a view still land on the devices that tear.
* ``windowed_draw``'s list-free draw against the reference
  pick/untrack/re-insert loop and against the list-building
  draw it replaced: same victim, same order, same RNG state.
* New chunks: one a write covers whole holds a copy of exactly those
  bytes, one written in part reads zeros around them.
"""

from __future__ import annotations

import copy
import random

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.bench.schemes import ALL_SCHEME_NAMES, SchemeScale, build_scheme
from repro.cache.eviction import make_eviction_policy
from repro.errors import PowerCutError
from repro.flash import (
    BlockSsd,
    BlockSsdConfig,
    FtlConfig,
    HddDevice,
    NandGeometry,
    NullBlkDevice,
    ZnsConfig,
    ZnsSsd,
)
from repro.flash.pagestore import PageStore
from repro.reclaim import windowed_draw
from repro.sim import FaultInjector, SimClock
from repro.sim.rng import make_rng
from repro.units import GIB, KIB, MIB

PAGE = 64
CHUNK_PAGES = 4
TOTAL_PAGES = 24  # six chunks


# --- PageStore vs. the dict-of-pages model ----------------------------------


class PageDictModel:
    """The store every device used to carry: one ``bytes`` per page."""

    def __init__(self) -> None:
        self.pages = {}

    def store(self, offset: int, data: bytes) -> None:
        first = offset // PAGE
        for i in range(len(data) // PAGE):
            self.pages[first + i] = bytes(data[i * PAGE : (i + 1) * PAGE])

    def load(self, offset: int, length: int) -> bytes:
        first = offset // PAGE
        return b"".join(
            self.pages.get(ppn, b"\x00" * PAGE)
            for ppn in range(first, first + length // PAGE)
        )

    def clear(self, offset: int, length: int) -> None:
        first = offset // PAGE
        for ppn in range(first, first + length // PAGE):
            self.pages.pop(ppn, None)


def _extent():
    return st.integers(0, TOTAL_PAGES - 1).flatmap(
        lambda first: st.tuples(
            st.just(first), st.integers(1, min(2 * CHUNK_PAGES + 1, TOTAL_PAGES - first))
        )
    )


_OPS = st.lists(
    st.tuples(
        st.sampled_from(("store", "load", "clear")),
        _extent(),
        st.integers(1, 255),
        st.sampled_from(("bytes", "bytearray", "view")),
    ),
    max_size=60,
)


def _payload(count: int, tag: int, shape: str):
    data = bytes((tag + i) % 251 + 1 for i in range(count * PAGE))
    if shape == "bytearray":
        return bytearray(data)
    if shape == "view":
        return memoryview(bytearray(data)).toreadonly()
    return data


@settings(max_examples=200, deadline=None)
@given(ops=_OPS)
def test_pagestore_matches_page_dict(ops):
    store = PageStore(CHUNK_PAGES * PAGE)
    model = PageDictModel()
    for op, (first, count), tag, shape in ops:
        offset, length = first * PAGE, count * PAGE
        if op == "store":
            payload = _payload(count, tag, shape)
            store.store(offset, payload)
            model.store(offset, bytes(payload))
        elif op == "clear":
            store.clear(offset, length)
            model.clear(offset, length)
        else:
            loaded = store.load(offset, length)
            assert type(loaded) is bytes
            assert loaded == model.load(offset, length)
    assert store.load(0, TOTAL_PAGES * PAGE) == model.load(0, TOTAL_PAGES * PAGE)
    # Every chunk with a live page is held, and never more than the extent
    # (a chunk emptied page by page may linger, zeroed, until a clear covers it).
    live_chunks = {ppn // CHUNK_PAGES for ppn in model.pages}
    chunk_bytes = CHUNK_PAGES * PAGE
    assert len(live_chunks) * chunk_bytes <= store.allocated_bytes <= TOTAL_PAGES * PAGE


def test_new_chunks_hold_exactly_what_was_written():
    """A new chunk a write covers whole is made from the written bytes
    (a copy, not the caller's buffer); one written in part reads zeros
    around what was written, also after a clear dropped it."""
    chunk = CHUNK_PAGES * PAGE
    store = PageStore(chunk)
    source = bytearray(b"\xaa" * chunk + b"\xbb" * chunk)
    store.store(chunk, memoryview(source).toreadonly())
    store.store(0, b"\xcc" * chunk)
    source[:] = bytes(len(source))  # the caller recycles its buffer
    assert store.load(0, 3 * chunk) == b"\xcc" * chunk + b"\xaa" * chunk + b"\xbb" * chunk
    assert all(type(held) is bytearray for held in store._chunks.values())
    store.clear(0, 3 * chunk)
    assert store.allocated_bytes == 0
    store.store(PAGE, b"\x01" * PAGE)
    store.store(3 * chunk - PAGE, b"\x02" * PAGE)
    assert store.load(0, chunk) == bytes(PAGE) + b"\x01" * PAGE + bytes(chunk - 2 * PAGE)
    assert store.load(2 * chunk, chunk) == bytes(chunk - PAGE) + b"\x02" * PAGE
    # A whole-chunk move into a chunk that does not exist copies it.
    store.move(0, 4 * chunk, chunk)
    assert store.load(4 * chunk, chunk) == store.load(0, chunk)
    assert store.allocated_bytes == 3 * chunk


_MOVES = st.lists(
    st.tuples(
        st.sampled_from(("store", "move", "clear", "freeze")),
        st.integers(0, TOTAL_PAGES * PAGE - 1),
        st.integers(0, TOTAL_PAGES * PAGE - 1),
        st.integers(1, 3 * CHUNK_PAGES * PAGE),
        st.integers(1, 255),
    ),
    max_size=40,
)


@settings(max_examples=200, deadline=None)
@given(ops=_MOVES)
def test_move_matches_a_twin_that_loads_and_stores(ops):
    """Byte-granular extents: within one chunk, across chunk boundaries on
    either side, overlapping, and from space never written (zeros)."""
    size = TOTAL_PAGES * PAGE
    store, twin = PageStore(CHUNK_PAGES * PAGE), PageStore(CHUNK_PAGES * PAGE)
    for op, src, dst, length, tag in ops:
        length = min(length, size - src, size - dst)
        if op == "store":
            payload = bytes((tag + i) % 251 + 1 for i in range(length))
            store.store(dst, payload)
            twin.store(dst, payload)
        elif op == "clear":
            store.clear(dst, length)
            twin.clear(dst, length)
        elif op == "freeze":
            # The chunks become shared bytes; later writes copy them first.
            store.freeze()
            frozen = copy.deepcopy(store)
            frozen_bytes = store.load(0, size)
            assert all(
                frozen._chunks[index] is chunk for index, chunk in store._chunks.items()
            )
        else:
            store.move(src, dst, length)
            twin.store(dst, twin.load(src, length))
        assert store.load(0, size) == twin.load(0, size)
        assert store.allocated_bytes == twin.allocated_bytes
    clone = copy.deepcopy(store)  # no view was kept
    clone.store(0, b"\xff" * size)
    assert store.load(0, size) == twin.load(0, size)
    if any(op == "freeze" for op, *_ in ops):
        # The last frozen copy kept its bytes through the store's writes,
        # and its own writes stay its own.
        assert frozen.load(0, size) == frozen_bytes
        frozen.store(1, b"\xfe" * (size - 2))
        frozen.clear(size // 2, 3)
        assert store.load(0, size) == twin.load(0, size)


def test_store_is_byte_granular_and_copies_in():
    store = PageStore(16)
    source = bytearray(b"abcdefghijklmnopqrstuvwxyz")
    store.store(5, memoryview(source)[:20])
    source[:] = b"#" * len(source)  # caller reuses its buffer
    assert store.load(0, 32) == b"\x00" * 5 + b"abcdefghijklmnopqrst" + b"\x00" * 7
    loaded = store.load(5, 20)
    store.clear(0, 32)
    assert loaded == b"abcdefghijklmnopqrst"  # loads are copies, not views
    assert store.load(0, 32) == b"\x00" * 32


def test_whole_chunk_clear_drops_the_chunk():
    store = PageStore(256)
    store.store(256, b"\xaa" * 256)
    store.store(512, b"\xbb" * 100)
    assert store.allocated_bytes == 512
    store.clear(256, 512)
    assert store.allocated_bytes == 0
    assert store.load(256, 512) == b"\x00" * 512
    store.store(300, b"\xcc" * 10)  # a fresh chunk, zero around the write
    assert store.load(256, 256) == b"\x00" * 44 + b"\xcc" * 10 + b"\x00" * 202


def test_partial_clear_zeroes_in_place():
    store = PageStore(256)
    store.store(0, b"\xaa" * 256)
    store.clear(64, 64)
    assert store.load(0, 256) == b"\xaa" * 64 + b"\x00" * 64 + b"\xaa" * 128


def test_rejects_bad_chunk_size():
    with pytest.raises(ValueError):
        PageStore(0)


def test_sparse_hdd_stays_lazy():
    hdd = HddDevice(SimClock())
    assert hdd.capacity_bytes == 4 * GIB
    assert hdd.media.allocated_bytes == 0
    block = bytes(range(256)) * 16
    hdd.write(3 * GIB, block)
    hdd.write(4 * GIB - len(block), block)
    assert hdd.read(3 * GIB, len(block)).data == block
    assert hdd.read(1 * GIB, len(block)).data == b"\x00" * len(block)
    assert hdd.media.allocated_bytes <= 2 * MIB


# --- deepcopy independence ---------------------------------------------------

GEOMETRY = NandGeometry(page_size=4 * KIB, pages_per_block=16, num_blocks=64)


def _devices():
    clock = SimClock()
    return [
        ZnsSsd(clock, ZnsConfig(geometry=GEOMETRY, zone_size=4 * GEOMETRY.block_size)),
        BlockSsd(
            clock,
            BlockSsdConfig(
                geometry=GEOMETRY,
                ftl=FtlConfig(op_ratio=0.25, gc_low_watermark=2, gc_high_watermark=4),
            ),
        ),
        NullBlkDevice(clock, capacity_bytes=4 * MIB),
        HddDevice(clock),
    ]


@pytest.mark.parametrize("index", range(4))
def test_deepcopy_gives_an_independent_store(index):
    device = _devices()[index]
    first, second = b"\x11" * 8192, b"\x22" * 8192
    device.write(0, first)
    clone = copy.deepcopy(device)
    assert clone.media is not device.media
    # An unfrozen store holds bytearrays only — never a memoryview.
    assert all(type(chunk) is bytearray for chunk in device.media._chunks.values())
    if isinstance(device, ZnsSsd):
        clone.write(8192, second)
        assert device.read(8192, 8192).data == b"\x00" * 8192
        assert clone.read(8192, 8192).data == second
        device.reset_zone(0)
        assert clone.read(0, 8192).data == first
    else:
        clone.write(0, second)
        assert device.read(0, 8192).data == first
        assert clone.read(0, 8192).data == second


# --- aliasing on the rotation path --------------------------------------------

SCALE = SchemeScale(
    zone_size=256 * KIB, region_size=32 * KIB, pages_per_block=16, ram_bytes=16 * KIB
)
MEDIA = 16 * MIB
CACHE = 8 * MIB


def _stack(scheme: str):
    return build_scheme(
        scheme, SimClock(), SCALE, MEDIA, CACHE, file_media_bytes=24 * MIB
    )


@pytest.mark.parametrize("scheme", ALL_SCHEME_NAMES)
def test_sealed_bytes_survive_buffer_recycling(scheme):
    stack = _stack(scheme)
    cache, store = stack.cache, stack.cache.store
    sealed = []  # (region_id, bytes snapshot taken *during* the flush)
    readonly = []
    real_write = store.write_region

    def spy(region_id, payload):
        readonly.append(isinstance(payload, memoryview) and payload.readonly)
        sealed.append((region_id, bytes(payload)))
        return real_write(region_id, payload)

    store.write_region = spy
    rng = random.Random(5)
    shadow = {}
    rotations = 6
    while len(sealed) < rotations:
        key = b"key%06d" % rng.randrange(10**6)
        value = bytes([rng.randrange(1, 256)]) * rng.randrange(600, 3000)
        cache.set(key, value)
        shadow[key] = value
    # The buffer behind the first five payloads has been recycled and
    # refilled (at least) once by now; nothing was evicted yet.
    assert cache.regions.regions_evicted == 0
    assert all(readonly)
    for region_id, snapshot in sealed[:-1]:
        assert store.read(region_id, 0, store.region_size) == snapshot
    for key, value in shadow.items():
        cache.ram.remove(key)
        assert cache.get(key) == value


@pytest.mark.parametrize("scheme", ALL_SCHEME_NAMES)
def test_finalize_pads_with_zeros_after_recycling(scheme):
    """A short region sealed after a full one must not leak the previous
    region's tail into its padding."""
    stack = _stack(scheme)
    cache, store = stack.cache, stack.cache.store
    region_size = store.region_size
    while cache.stats.flushes == 0:
        cache.set(b"fill%05d" % cache.stats.sets, b"\xee" * 2000)
    flushes = cache.stats.flushes
    short_region = cache._buffer.region_id
    cache.set(b"short", b"\x7f" * 100)
    used = cache._buffer.used
    cache.flush()
    assert cache.stats.flushes == flushes + 1
    payload = store.read(short_region, 0, region_size)
    assert payload[used:] == b"\x00" * (region_size - used)


def _cut(clock: SimClock, at_ns: int) -> FaultInjector:
    return FaultInjector(seed=1, power_cut_at_ns=clock.now + at_ns)


def _torn_source(pages: int):
    data = bytes(range(1, 251)) * (pages * 4096 // 250 + 1)
    return memoryview(bytearray(data[: pages * 4096])).toreadonly()


@pytest.mark.parametrize("command", ["write", "write_many", "append"])
def test_torn_prefix_of_a_view_lands_on_zns(command):
    clock = SimClock()
    config = ZnsConfig(geometry=GEOMETRY, zone_size=4 * GEOMETRY.block_size)
    probe = ZnsSsd(SimClock(), config)
    data = _torn_source(16)
    service_ns = probe._write_service_ns(len(data))
    faults = _cut(clock, service_ns // 2)
    device = ZnsSsd(clock, config, faults=faults)
    with pytest.raises(PowerCutError):
        if command == "write":
            device.write(0, data)
        elif command == "write_many":
            device.write_many([(0, data)])
        else:
            device.append(0, data)
    faults.restore_power()
    keep = device.zones[0].written_bytes
    assert 0 < keep < len(data) and keep % 4096 == 0
    assert device.read(0, len(data)).data == bytes(data[:keep]) + b"\x00" * (
        len(data) - keep
    )


@pytest.mark.parametrize("command", ["write", "write_many"])
def test_torn_prefix_of_a_view_lands_on_block_ssd(command):
    clock = SimClock()
    config = BlockSsdConfig(geometry=GEOMETRY)
    data = _torn_source(16)
    service_ns = BlockSsd(SimClock(), config)._write_service_ns(0, len(data))
    faults = _cut(clock, service_ns // 2)
    device = BlockSsd(clock, config, faults=faults)
    with pytest.raises(PowerCutError):
        if command == "write":
            device.write(0, data)
        else:
            device.write_many([(0, data)])
    faults.restore_power()
    landed = device.read(0, len(data)).data
    keep = len(landed.rstrip(b"\x00"))
    keep = -(-keep // 4096) * 4096
    assert 0 < keep < len(data)
    assert landed == bytes(data[:keep]) + b"\x00" * (len(data) - keep)


# --- windowed_draw: read-ahead path vs. the reference loop ---------------------


def _track_front(policy, region_id):
    """Re-insert at the eviction end, where the reference loop puts back
    each candidate it examined but did not choose."""
    policy._order[region_id] = None
    policy._order.move_to_end(region_id, last=False)


def _reference_draw(policy, window, population, rng):
    """The first pick/untrack/re-insert implementation, kept as the oracle."""
    if window == 1:
        return policy.pick_victim()
    candidates = []
    for _ in range(min(window, population)):
        victim = policy.pick_victim()
        if victim is None:
            break
        candidates.append(victim)
        policy.untrack(victim)
    if not candidates:
        return None
    chosen = candidates[rng.randrange(len(candidates))]
    for candidate in reversed(candidates):
        if candidate != chosen:
            _track_front(policy, candidate)
    return chosen


def _list_draw(policy, window, population, rng):
    """The draw before it went list-free: the window is copied out as a
    list and the victim indexed from it."""
    if window == 1:
        return policy.pick_victim()
    head = policy.order()[: min(window, population)]
    if not head:
        return None
    return head[rng.randrange(len(head))]


_POLICY_OPS = st.lists(
    st.tuples(
        st.sampled_from(("track", "touch", "untrack", "draw")),
        st.integers(0, 15),
        st.integers(1, 6),
    ),
    max_size=80,
)


@settings(max_examples=150, deadline=None)
@given(kind=st.sampled_from(("lru", "fifo")), ops=_POLICY_OPS)
def test_windowed_draw_matches_reference_loop(kind, ops):
    fast, slow = make_eviction_policy(kind), make_eviction_policy(kind)
    listed = make_eviction_policy(kind)
    fast_rng, slow_rng = make_rng(3, "draw"), make_rng(3, "draw")
    list_rng = make_rng(3, "draw")
    tracked = set()
    for op, region_id, window in ops:
        if op == "draw":
            got = windowed_draw(fast, window, len(tracked), fast_rng)
            want = _reference_draw(slow, window, len(tracked), slow_rng)
            assert got == want
            assert got == _list_draw(listed, window, len(tracked), list_rng)
            assert fast_rng.getstate() == slow_rng.getstate() == list_rng.getstate()
            if got is not None:
                # RegionManager.allocate untracks the victim it takes.
                fast.untrack(got)
                slow.untrack(got)
                listed.untrack(got)
                tracked.discard(got)
        else:
            getattr(fast, op)(region_id)
            getattr(slow, op)(region_id)
            getattr(listed, op)(region_id)
            if op == "track":
                tracked.add(region_id)
            elif op == "untrack":
                tracked.discard(region_id)
        assert fast.order() == slow.order() == listed.order()
        assert fast_rng.getstate() == slow_rng.getstate()

"""Structural guard for the cost of the trace stream.

Tracing has to be cheap enough to leave on and must never choose the
code a layer runs.  Neither property changes a simulated number, so no
golden notices a regression; a call counter, ``tracemalloc`` and one
monkeypatched constructor do, on any machine:

* a span on an enabled tracer is at most five Python-level calls, the
  subscriber included (``span`` → ``TraceRecord.__init__`` →
  ``__enter__`` → ``__exit__`` → subscriber);
* the record the subscriber receives is the only thing the tracer
  allocated for that span, has no ``__dict__``, and once closed holds no
  reference back to its tracer;
* a traced fault-free ``ZnsSsd.read`` or ``write`` runs the same code as
  an untraced one: no ``IoRequest`` (only an armed fault injector gets
  one), the same ``IoCompletion`` — and the same holds for the data
  commands of ``BlockSsd``, ``NullBlkDevice`` and ``HddDevice``, and
  for zone management and discard.
"""

from __future__ import annotations

import gc
import tracemalloc

import pytest

import repro.sim.io as io_module
from repro.flash import (
    BlockSsd,
    BlockSsdConfig,
    HddConfig,
    HddDevice,
    NandGeometry,
    NullBlkDevice,
    ZnsConfig,
    ZnsSsd,
)
from repro.sim import IoCompletion, IoTracer, SimClock, TraceRecord
from repro.sim.faults import FaultInjector
from repro.units import KIB
from tests.helpers import python_calls

MAX_CALLS_PER_SPAN = 5


def test_span_is_at_most_five_python_calls_subscriber_included():
    tracer = IoTracer(SimClock())
    seen = []

    def subscriber(record):
        seen.append(record)

    tracer.subscribe(subscriber)

    def one_span():
        with tracer.span("engine", "set", length=64):
            pass

    one_span()  # not the first call of anything
    calls = python_calls(one_span)
    assert "subscriber" in calls
    assert len(calls) <= MAX_CALLS_PER_SPAN, calls
    assert len(seen) == 2


def test_record_is_the_only_allocation_and_keeps_no_tracer():
    tracer = IoTracer(SimClock())
    seen, allocated = [], []

    def subscriber(record):
        seen.append(record)
        if tracemalloc.is_tracing():
            # Looked at while the span is closing: a separate handle
            # object would still be alive here, beside the record.
            for obj in gc.get_objects():
                trace = tracemalloc.get_object_traceback(obj)
                if trace is not None and trace[-1].filename == io_module.__file__:
                    allocated.append(obj)

    tracer.subscribe(subscriber)
    with tracer.span("serve", "get"):
        with tracer.span("engine", "get"):
            pass  # everything has run once before the measured span
        tracemalloc.start()
        try:
            with tracer.span("engine", "get"):
                pass
        finally:
            tracemalloc.stop()
    record = seen[1]
    # The one thing besides the record is the iterator of the loop over
    # subscribers the callback is running under; it holds no span state.
    subscriber_loop = type(iter([]))
    made = [obj for obj in allocated if not isinstance(obj, subscriber_loop)]
    assert len(made) == 1 and made[0] is record, made

    assert isinstance(record, TraceRecord)
    assert not hasattr(record, "__dict__")
    assert (record.layer, record.op, record.parent_id) == ("engine", "get", 1)
    # Closed: nothing it refers to is, or leads to, the tracer — only its
    # class and plain field values.
    referents = [r for r in gc.get_referents(record) if r is not TraceRecord]
    assert tracer not in referents
    assert all(isinstance(r, (int, str, type(None))) for r in referents), referents


def _device(clock: SimClock, faults=None) -> ZnsSsd:
    geometry = NandGeometry(page_size=4 * KIB, pages_per_block=16, num_blocks=32)
    device = ZnsSsd(
        clock, ZnsConfig(geometry=geometry, zone_size=256 * KIB), faults=faults
    )
    device.write(0, bytes(range(256)) * 64)
    return device


def _count_requests(monkeypatch) -> list:
    """Every ``IoRequest`` built from here on: ``IoPipeline.inject`` is
    the one place a device command gets one."""
    built = []
    real_request = io_module.IoRequest
    monkeypatch.setattr(
        io_module,
        "IoRequest",
        lambda *a, **kw: (built.append(1), real_request(*a, **kw))[1],
    )
    return built


def _assert_record_is_the_completion(record, completion, done_ns):
    """A foreground command's record times what its caller observed:
    queueing plus service, ending where the clock moved to."""
    assert record.latency_ns == completion.latency_ns > 0
    assert record.wait_ns + record.service_ns == completion.latency_ns
    assert (record.completed_ns, record.channel) == (done_ns, 0)


def test_traced_foreground_read_takes_the_untraced_path(monkeypatch):
    plain, traced = _device(SimClock()), _device(SimClock())
    records = []
    traced.tracer.subscribe(records.append)
    built = _count_requests(monkeypatch)
    with traced.tracer.span("backend", "read"):
        got = traced.read(4 * KIB, 8 * KIB)
    want = plain.read(4 * KIB, 8 * KIB)
    assert built == []
    for name in IoCompletion.__slots__:
        assert getattr(got, name) == getattr(want, name), name
    assert traced._clock.now == plain._clock.now
    assert traced.stats.read_latency.count == plain.stats.read_latency.count

    read, span = records
    assert (read.layer, read.op, read.parent_id) == ("zns", "read", span.record_id)
    assert (read.offset, read.length, read.zone) == (4 * KIB, 8 * KIB, None)
    assert read.background is False
    _assert_record_is_the_completion(read, got, traced._clock.now)

    # Background reads run the same body: a reservation, no request.
    traced.read(0, 4 * KIB, background=True)
    assert built == []
    assert records[-1].background is True


def test_fault_free_traced_write_builds_no_request(monkeypatch):
    plain, traced = _device(SimClock()), _device(SimClock())
    records = []
    traced.tracer.subscribe(records.append)
    built = _count_requests(monkeypatch)
    payload = bytes(8 * KIB)
    with traced.tracer.span("ztl", "write_region"):
        got = traced.write(16 * KIB, payload)
    want = plain.write(16 * KIB, payload)
    traced.write_many([(24 * KIB, payload)], background=True)
    traced.copy_many([(0, 32 * KIB)], 8 * KIB)
    traced.append(1, payload)
    assert built == []
    for name in IoCompletion.__slots__:
        assert getattr(got, name) == getattr(want, name), name

    write, span = records[:2]
    assert (write.layer, write.op, write.parent_id) == ("zns", "write", span.record_id)
    assert (write.offset, write.length, write.zone) == (16 * KIB, 8 * KIB, 0)
    _assert_record_is_the_completion(write, got, plain._clock.now)
    assert [(r.op, r.background) for r in records[2:]] == [
        ("write", True), ("read", True), ("write", True), ("append", False)
    ]

    # The fault injector is the one consumer: armed, each command shows
    # it exactly one request.
    armed = _device(SimClock(), faults=FaultInjector(seed=1))
    del built[:]
    armed.write(16 * KIB, payload)
    armed.read(0, 4 * KIB)
    assert built == [1, 1]


def test_management_commands_build_a_request_only_when_armed(monkeypatch):
    def drive(device):
        device.open_zone(2)
        device.close_zone(2)
        device.finish_zone(3)
        device.reset_zone(0)  # held data: reset, then a background erase
        return device

    built = _count_requests(monkeypatch)
    drive(_device(SimClock()))
    block = _block_device(SimClock())
    block.write(0, bytes(8 * KIB))
    block.discard(0, 8 * KIB)
    assert built == []
    drive(_device(SimClock(), faults=FaultInjector(seed=1)))
    assert len(built) == 1 + 5  # the setup write, then one per command


def _block_device(clock, faults=None):
    geometry = NandGeometry(page_size=4 * KIB, pages_per_block=16, num_blocks=32)
    return BlockSsd(clock, BlockSsdConfig(geometry=geometry), faults=faults)


@pytest.mark.parametrize(
    "make, layer",
    [
        (_block_device, "block"),
        (lambda clock, faults=None: NullBlkDevice(clock, faults=faults), "nullblk"),
        (lambda clock, faults=None: HddDevice(clock, HddConfig(), faults=faults), "hdd"),
    ],
    ids=["blockssd", "nullblk", "hdd"],
)
def test_block_device_data_commands_build_no_request(monkeypatch, make, layer):
    plain, traced = make(SimClock()), make(SimClock())
    records = []
    traced.tracer.subscribe(records.append)
    built = _count_requests(monkeypatch)
    payload = bytes(range(256)) * 32
    with traced.tracer.span("backend", "write_region"):
        wrote = traced.write(8 * KIB, payload)
    traced.write_many([(16 * KIB, payload), (24 * KIB, payload)])
    got = traced.read(8 * KIB, 4 * KIB)
    assert built == []
    plain_wrote = plain.write(8 * KIB, payload)
    plain.write_many([(16 * KIB, payload), (24 * KIB, payload)])
    want = plain.read(8 * KIB, 4 * KIB)
    for name in IoCompletion.__slots__:
        assert getattr(wrote, name) == getattr(plain_wrote, name), name
        assert getattr(got, name) == getattr(want, name), name
    assert got.data == payload[: 4 * KIB]
    assert traced._clock.now == plain._clock.now

    write, span = records[:2]
    assert (write.layer, write.op, write.parent_id) == (layer, "write", span.record_id)
    assert [(r.layer, r.op) for r in records[2:]] == [
        (layer, "write"), (layer, "write"), (layer, "read")
    ]
    _assert_record_is_the_completion(records[-1], got, traced._clock.now)

    # Armed, each command shows the injector exactly one request.
    armed = make(SimClock(), faults=FaultInjector(seed=1))
    del built[:]
    armed.write(0, payload)
    armed.read(0, 4 * KIB)
    assert built == [1, 1]

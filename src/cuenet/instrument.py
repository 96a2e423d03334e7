"""Execution instrumentation: work counters, liveness meters, shape traces.

Three independent sinks, each installed through a context variable so the
numeric kernels stay free of plumbing arguments:

* ``MacCounter`` accumulates fused multiply-add counts into named stages.
  Kernels report work through :func:`add_macs`; when no counter is active the
  call is a no-op.  One multiply-add pair counts as one unit.
* ``MemoryMeter`` charges each intermediate array that kernels announce
  through :func:`meter_alloc` until the array is freed, and records the
  high-water mark in elements.
* A shape trace is a plain dict that :func:`record_shape` fills with the
  extents of named intermediates, the hook for shape verification.

Every reporting call is a no-op while its sink is not installed.

Counters attribute work to the innermost active stage.  Work reported with no
stage open lands in the ``"unattributed"`` bucket, which verification passes
require to stay at zero.
"""

import weakref
from contextlib import contextmanager
from contextvars import ContextVar

import numpy as np

UNATTRIBUTED = "unattributed"

_active_counter: ContextVar = ContextVar("cuenet_mac_counter", default=None)
_active_meter: ContextVar = ContextVar("cuenet_memory_meter", default=None)
_active_trace: ContextVar = ContextVar("cuenet_shape_trace", default=None)


@contextmanager
def _installed(var, sink):
    token = var.set(sink)
    try:
        yield sink
    finally:
        var.reset(token)


class MacCounter:
    """Accumulates executed multiply-add counts keyed by stage name."""

    def __init__(self):
        self.stages = {}
        self._stack = []

    @contextmanager
    def stage(self, name):
        """Attribute counts reported inside the block to ``name``."""
        self._stack.append(name)
        try:
            yield self
        finally:
            self._stack.pop()

    def add(self, macs):
        if macs < 0:
            raise ValueError(f"negative MAC count: {macs}")
        key = self._stack[-1] if self._stack else UNATTRIBUTED
        self.stages[key] = self.stages.get(key, 0) + int(macs)

    @property
    def total(self):
        return sum(self.stages.values())


def counting(counter):
    """Install ``counter`` as the active multiply-add sink for the block."""
    return _installed(_active_counter, counter)


def add_macs(macs):
    """Report ``macs`` executed multiply-adds to the active counter, if any."""
    counter = _active_counter.get()
    if counter is not None:
        counter.add(macs)


@contextmanager
def stage(name):
    """Open a counting stage on the active counter; no-op without one."""
    counter = _active_counter.get()
    if counter is None:
        yield None
        return
    with counter.stage(name):
        yield counter


class MemoryMeter:
    """High-water mark of live intermediate elements.

    A kernel charges a buffer once, with :func:`meter_alloc`, where it
    allocates it, and the charge lasts as long as its array: the meter
    relies on CPython freeing an array when its last reference goes, so a
    kernel's ``del`` statements and returns are its release schedule.  A
    view keeps its base, and so its charge, alive; a charge on a view
    lasts as long as the view's base.  Input and parameter storage is out
    of scope; only intermediates that a kernel announces are charged.
    """

    def __init__(self):
        self.live = 0
        self.high_water = 0

    def alloc(self, array):
        self.live += array.size
        self.high_water = max(self.high_water, self.live)
        owner = array.base if isinstance(array.base, np.ndarray) else array
        weakref.finalize(owner, self._release, array.size)

    def _release(self, elements):
        self.live -= elements


def metering(meter):
    """Install ``meter`` as the active buffer-liveness sink for the block."""
    return _installed(_active_meter, meter)


def meter_alloc(array):
    """Charge ``array`` to the active meter, if any, until it is freed."""
    meter = _active_meter.get()
    if meter is not None:
        meter.alloc(array)


def tracing(trace):
    """Install the dict ``trace`` as the active shape sink for the block."""
    return _installed(_active_trace, trace)


def record_shape(name, array):
    """Record ``array``'s extents as ``name`` in the active trace, if any."""
    trace = _active_trace.get()
    if trace is not None:
        trace[name] = array.shape

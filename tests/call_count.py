"""Exact counts of the work a stretch of code dispatches.

Wall time on a shared 2-vCPU host swings 20-30 % between runs; these
counts do not move at all.  Two are kept, both for the frames of a chosen
set of source files:

* ``calls`` — calls made *from* those frames, seen through
  ``sys.setprofile`` and attributed to the caller: one per executed call
  instruction that reached a profiled callee.  A NumPy function that is
  Python in one release (a ``call`` event, maybe two with its
  dispatcher) and C in another (a ``c_call``) counts once either way.
  In CPython a ufunc call or an array operator raises no profile event,
  so this counts Python dispatch, not array work;
* ``ops`` — array-operation opcodes executed in those frames
  (``f_trace_opcodes``): subscripts, binary and in-place operators,
  comparisons and unary invert.  On an array each is one NumPy operation.

Python 3.12 inlines comprehensions, so it makes fewer calls than 3.11
and 3.10 for the same code; the opcode kinds are spelled out per release
below, so ``ops`` is the same on each.  ``tests/test_call_budget.py``
holds the counts under a ceiling table; ``benchmarks/measure_lane_stages.py``
prints them beside each chunk's µs.
"""

from __future__ import annotations

import dis
import sys
from typing import Callable, Iterable, Optional

#: opcodes that apply an operator or an index (3.10 spells the in-place
#: ones ``INPLACE_*``, 3.12 a slice ``BINARY_SLICE`` / ``STORE_SLICE``)
ARRAY_OPS = frozenset(
    code for code, name in enumerate(dis.opname)
    if name.startswith(("BINARY_", "INPLACE_"))
    or name in ("STORE_SUBSCR", "STORE_SLICE", "COMPARE_OP", "UNARY_INVERT")
)
#: opcodes that make a call (3.10's ``CALL_FUNCTION*`` / ``CALL_METHOD``,
#: 3.11+'s ``CALL``, 3.13's ``CALL_KW``)
CALLS = frozenset(
    code for code, name in enumerate(dis.opname)
    if name.startswith("CALL") and name not in ("CALL_INTRINSIC_1", "CALL_INTRINSIC_2")
)


class Counts:
    """``calls`` and ``ops`` of the frames whose code lives in ``files``,
    counted between ``start()`` and ``stop()`` on the calling thread."""

    def __init__(self, files: Iterable[str]) -> None:
        self.files = frozenset(files)
        self.calls = self.ops = 0
        #: lane steps counted, where ``count_steps`` counts
        self.steps = 0
        #: the counted frame whose last opcode was a call instruction
        self._armed = None
        self._saved: tuple = ()
        #: code -> its bytecode (``co_code`` is rebuilt on each read in 3.11)
        self._code: dict = {}

    def _profile(self, frame, event, arg) -> None:
        caller = frame.f_back if event == "call" else frame if event == "c_call" else None
        if caller is not None and caller is self._armed:
            self.calls += 1
            self._armed = None  # a dispatcher and its implementation count once

    def _trace(self, frame, event, arg):
        if event == "call":
            if frame.f_code.co_filename not in self.files:
                return None
            frame.f_trace_opcodes = True
            frame.f_trace_lines = False
        elif event == "opcode":
            code = frame.f_code
            raw = self._code.get(code)
            if raw is None:
                raw = self._code[code] = code.co_code
            op = raw[frame.f_lasti]
            if op in ARRAY_OPS:
                self.ops += 1
            self._armed = frame if op in CALLS else None
        return self._trace

    def start(self) -> None:
        self._saved = (sys.gettrace(), sys.getprofile())
        sys.setprofile(self._profile)
        sys.settrace(self._trace)

    def stop(self) -> None:
        trace, profile = self._saved
        sys.settrace(trace)
        sys.setprofile(profile)
        self._armed = None


class _Window(Exception):
    """Raised out of the step that closes the counted window."""


def count_steps(
    engine_cls: type, files: Iterable[str], run: Callable[[], object],
    start: int = 0, steps: Optional[int] = None,
) -> Counts:
    """Counts over lane steps ``start`` .. ``start + steps - 1`` of the
    ``engine_cls`` engines ``run()`` builds (``steps=None``: to the end of
    the run), with ``steps`` set to the steps counted.  A window is cut
    where it closes; a run that ends short of it is an error."""
    counts = Counts(files)
    step = engine_cls._step
    own = "_step" in vars(engine_cls)
    seen = [0]

    def watched(self, cycle, local):
        n = seen[0]
        seen[0] += 1
        if n < start:
            return step(self, cycle, local)
        counts.start()
        try:
            step(self, cycle, local)
        finally:
            counts.stop()
        counts.steps += 1
        if counts.steps == steps:
            raise _Window

    engine_cls._step = watched
    try:
        run()
    except _Window:
        pass
    else:
        if steps is not None:
            raise AssertionError(f"the run stepped {seen[0]} times, short of the window")
    finally:
        if own:
            engine_cls._step = step
        else:
            del engine_cls._step
    return counts

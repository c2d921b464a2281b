"""In-memory span tracer that wraps public functions from the outside.

The traced run replaces a public method *on one instance* (or a plain
function the benchmark calls) with a wrapper that records a span: its
name, host time, simulated start and end, parent span and op id.  The
program's code is not touched, so tracing can only observe; the
determinism check compares the traced run's simulated counters with an
untraced run to prove it.

Host time of a generator call is the sum of its resumption slices: the
simulator interleaves processes, so the wall time between a
generator's creation and its return is mostly other processes' work.
Slices nest on one host stack (a wrapped generator driving another
through ``yield from`` resumes it inside its own slice), so a span's
*self* time is its host time minus the host time of the spans nested
in it, and the self times of all spans add up to the time spent inside
any span.
"""

import inspect
import json
import time

_now_ns = time.perf_counter_ns

#: Span records kept per tracer; later spans only feed the aggregates.
KEEP_LIMIT = 200_000


class Span:
    """One wrapped call."""

    __slots__ = ("sid", "name", "parent", "op", "host_ns", "child_ns",
                 "sim_start", "sim_end")

    def __init__(self, sid, name, parent, op, sim_start):
        self.sid = sid
        self.name = name
        self.parent = parent
        self.op = op
        self.host_ns = 0
        self.child_ns = 0
        self.sim_start = sim_start
        self.sim_end = None

    @property
    def self_ns(self):
        return self.host_ns - self.child_ns

    def as_dict(self):
        return {"id": self.sid, "name": self.name, "parent": self.parent,
                "op": self.op, "host_ns": self.host_ns,
                "self_ns": self.self_ns, "sim_start": self.sim_start,
                "sim_end": self.sim_end}


class NameTotals:
    """Per-name aggregate: calls, host time, self time, simulated cycles."""

    __slots__ = ("calls", "host_ns", "self_ns", "sim_cycles")

    def __init__(self):
        self.calls = 0
        self.host_ns = 0
        self.self_ns = 0
        self.sim_cycles = 0


class _Awaitable:
    """What a traced coroutine function returns: awaiting it runs the
    coroutine's ``__await__`` iterator under the slice-timing driver."""

    __slots__ = ("_it",)

    def __init__(self, it):
        self._it = it

    def __await__(self):
        return self._it


class Tracer:
    """Records spans in memory; :meth:`dump` writes them when a run ends.

    At most ``KEEP_LIMIT`` span records are kept (aggregates are always
    complete); names in ``aggregate_only`` — hot leaves such as
    ``mem.copy_run`` — feed the aggregates but keep no record.
    """

    def __init__(self, aggregate_only=()):
        self.stack = []
        self.records = []
        self.totals = {}
        self.aggregate_only = frozenset(aggregate_only)
        self.op = None
        self._next_sid = 0

    # ------------------------------------------------------------ wrapping

    def wrap(self, owner, attr, name, sim_clock):
        """Replace ``owner.attr`` with a traced wrapper.

        ``owner`` is an instance (the wrapper becomes an instance
        attribute and shadows the class method for that instance only)
        or a module.  ``name`` is the span name, or a callable that
        computes it from the call's arguments (to bucket one function's
        spans by the state it was called in).
        """
        setattr(owner, attr, self.traced(getattr(owner, attr), name,
                                         sim_clock))

    def traced(self, fn, name, sim_clock):
        """A traced stand-in for ``fn``.

        Generator functions stay generator-returning and coroutine
        functions stay awaitable, with every value, exception and return
        value passed through unchanged.
        """
        tracer = self
        namer = name if callable(name) else (lambda *_a, **_k: name)
        if inspect.iscoroutinefunction(fn):
            def traced_coro(*args, **kwargs):
                span = tracer._open(namer(*args, **kwargs), sim_clock())
                return _Awaitable(tracer._drive(
                    fn(*args, **kwargs).__await__(), span, sim_clock))
            traced_coro.__wrapped__ = fn
            return traced_coro
        if inspect.isgeneratorfunction(fn):
            def traced_gen(*args, **kwargs):
                span = tracer._open(namer(*args, **kwargs), sim_clock())
                return tracer._drive(fn(*args, **kwargs), span, sim_clock)
            traced_gen.__wrapped__ = fn
            return traced_gen

        def traced_call(*args, **kwargs):
            span = tracer._open(namer(*args, **kwargs), sim_clock())
            stack = tracer.stack
            stack.append(span)
            t0 = _now_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._slice_done(span, _now_ns() - t0)
                tracer._close(span, sim_clock())
        traced_call.__wrapped__ = fn
        return traced_call

    # ------------------------------------------------------------ recording

    def set_op(self, op):
        """Tag spans opened from now on (in this slice) with op id ``op``."""
        self.op = op

    def _open(self, name, sim_start):
        self._next_sid += 1
        parent = self.stack[-1].sid if self.stack else None
        return Span(self._next_sid, name, parent, self.op, sim_start)

    def _slice_done(self, span, dt):
        self.stack.pop()
        span.host_ns += dt
        if self.stack:
            self.stack[-1].child_ns += dt

    def _close(self, span, sim_end):
        span.sim_end = sim_end
        totals = self.totals.get(span.name)
        if totals is None:
            totals = self.totals[span.name] = NameTotals()
        totals.calls += 1
        totals.host_ns += span.host_ns
        totals.self_ns += span.self_ns
        totals.sim_cycles += sim_end - span.sim_start
        if span.name in self.aggregate_only:
            return
        if len(self.records) < KEEP_LIMIT:
            self.records.append(span)

    def _drive(self, inner, span, sim_clock):
        """Run generator ``inner`` slice by slice under ``span``.

        The op id travels with the generator: each slice starts with the
        op id the span last saw, and a :meth:`set_op` inside the slice
        sticks to this generator, not to whatever the simulator resumes
        next.
        """
        stack = self.stack
        to_send = None
        to_throw = None
        op = span.op
        while True:
            saved_op = self.op
            self.op = op
            stack.append(span)
            t0 = _now_ns()
            try:
                if to_throw is None:
                    request = inner.send(to_send)
                else:
                    request = inner.throw(to_throw)
            except StopIteration as stop:
                self._slice_done(span, _now_ns() - t0)
                self.op = saved_op
                self._close(span, sim_clock())
                return stop.value
            except BaseException:
                self._slice_done(span, _now_ns() - t0)
                self.op = saved_op
                self._close(span, sim_clock())
                raise
            self._slice_done(span, _now_ns() - t0)
            op = self.op
            self.op = saved_op
            to_send = to_throw = None
            try:
                to_send = yield request
            except GeneratorExit:
                inner.close()
                self._close(span, sim_clock())
                raise
            except BaseException as exc:  # thrown in: forward to inner
                to_throw = exc

    # ------------------------------------------------------------- reports

    def self_ns_by_prefix(self, prefix):
        """Summed self time of every span name starting with ``prefix``."""
        return sum(t.self_ns for n, t in self.totals.items()
                   if n.startswith(prefix))

    def calls(self, prefix):
        """Calls of every span name starting with ``prefix``."""
        return sum(t.calls for n, t in self.totals.items()
                   if n.startswith(prefix))

    def ns_per_call(self, prefix):
        """Mean host ns per call over span names starting with ``prefix``."""
        calls = host = 0
        for n, t in self.totals.items():
            if n.startswith(prefix):
                calls += t.calls
                host += t.host_ns
        return host / calls if calls else 0.0

    def dump(self, path):
        """Write the kept span records as JSON lines; returns the count."""
        with open(path, "w") as out:
            for span in self.records:
                out.write(json.dumps(span.as_dict()) + "\n")
        return len(self.records)

"""Order and data dependency tracking (§4.2).

Order dependency merges the u-mode and k-mode copy streams of one client
into a single total order using barrier tasks captured at trap/return
events (Fig. 6-a).  The merged order is expressed as sort keys:

* a u-mode task acquired at ring position ``p`` gets key ``(p + 1, 0, p)``;
* a k-mode task submitted after a barrier recording ``c`` acquired u-mode
  tasks gets key ``(c, 1, seq)``.

Under lexicographic comparison this places each k-mode task after exactly
the ``c`` u-mode tasks the barrier witnessed and before every later one —
and, for the racy window where another app thread submits during the
syscall (U3/U4 in Fig. 6-a), k-mode tasks win, matching the paper's
"Copier prioritizes tasks in k-mode queues".

Data dependency is computed on demand by walking earlier tasks in reverse
merged order and comparing regions (both sources and destinations).

csync answers a different question — which submission wrote each byte
*last* — from :class:`LastWriterMap`, kept current at submission and at
retirement, so its cost follows the region, not the client's backlog.
"""

from bisect import bisect_left, bisect_right


def u_order_key(position):
    return (position + 1, 0, position)


def k_order_key(barrier_u_position, sequence):
    return (barrier_u_position, 1, sequence)


class PendingTasks:
    """Per-client pending Copy Tasks in merged submission order."""

    def __init__(self):
        self._tasks = []  # kept sorted by order_key

    def __len__(self):
        return len(self._tasks)

    def __iter__(self):
        return iter(self._tasks)

    def add(self, task):
        if task.order_key is None:
            raise ValueError("task has no order key; submit through queues")
        # Fast path: appends dominate (keys are normally increasing).
        if not self._tasks or self._tasks[-1].order_key <= task.order_key:
            self._tasks.append(task)
            return
        lo, hi = 0, len(self._tasks)
        while lo < hi:
            mid = (lo + hi) // 2
            if self._tasks[mid].order_key <= task.order_key:
                lo = mid + 1
            else:
                hi = mid
        self._tasks.insert(lo, task)

    def remove(self, task):
        self._tasks.remove(task)

    def head(self):
        return self._tasks[0] if self._tasks else None

    def runnable_head(self):
        """First pending non-lazy task (lazy tasks are skipped, §4.4)."""
        for task in self._tasks:
            if not task.lazy:
                return task
        return None

    def earlier_than(self, task):
        """Tasks strictly before ``task`` in merged order, nearest first."""
        result = []
        for other in self._tasks:
            if other is task:
                break
            if other.order_key < task.order_key:
                result.append(other)
        result.reverse()
        return result

    def dependencies_of(self, task):
        """Earlier pending tasks ``task`` conflicts with (nearest first).

        A conflict is any region overlap: RAW (task.src vs other.dst),
        WAR (task.dst vs other.src) or WAW (task.dst vs other.dst).
        """
        deps = []
        for other in self.earlier_than(task):
            if (
                task.src.overlaps(other.dst)
                or task.dst.overlaps(other.src)
                or task.dst.overlaps(other.dst)
            ):
                deps.append(other)
        return deps

    def raw_source_of(self, task):
        """Nearest earlier task whose destination feeds ``task``'s source.

        This is the absorbable producer for §4.4 (e.g. A→B when processing
        B→C).  Returns ``None`` when no such producer is pending.
        """
        for other in self.earlier_than(task):
            if task.src.overlaps(other.dst):
                return other
        return None

    def tasks_writing(self, region):
        """Pending tasks whose destination intersects ``region`` (for csync)."""
        return [t for t in self._tasks if t.dst.overlaps(region)]

    def transitive_dependencies(self, task):
        """All pending tasks that must run before ``task`` (topological order).

        Used by task promotion: when a Sync Task raises a task's priority,
        everything it depends on (recursively) is raised with it (§4.1).
        """
        ordered = []
        seen = {task.task_id}
        stack = [task]
        while stack:
            current = stack.pop()
            for dep in self.dependencies_of(current):
                if dep.task_id not in seen:
                    seen.add(dep.task_id)
                    ordered.append(dep)
                    stack.append(dep)
        ordered.sort(key=lambda t: t.order_key)
        return ordered


class BarrierBookkeeping:
    """Tracks the k-mode submission context of one client (§4.2.1).

    The kernel calls :meth:`on_trap` when entering a syscall and
    :meth:`on_return` when leaving; the first k-mode submission after a
    trap snapshots the paired u-mode Copy Queue position.
    """

    def __init__(self, u_copy_queue):
        self.u_copy_queue = u_copy_queue
        self._current_barrier_pos = 0
        self._barrier_epoch = 0
        self._k_sequence = 0
        self.barriers_recorded = 0

    def on_trap(self):
        self._snapshot()

    def on_return(self):
        self._snapshot()

    def _snapshot(self):
        self._current_barrier_pos = self.u_copy_queue.head
        self._barrier_epoch = self.u_copy_queue.epoch
        self.barriers_recorded += 1

    def next_k_key(self):
        self._k_sequence += 1
        return k_order_key(self._current_barrier_pos, self._k_sequence)


class LastWriterMap:
    """Newest submitted writer of every destination byte, per address space.

    Each address space keeps sorted, disjoint ``[start, end)`` intervals
    mapped to the task whose destination covers them most recently in
    submission order, with a parallel list of starts as the bisect key —
    the same idiom as the VMA index in :mod:`repro.mem.addrspace`.  A
    submission :meth:`claims <claim>` its destination and trims whatever
    older writers it overlaps; a task whose bytes all landed
    :meth:`releases <release>` its intervals, since a byte with no
    recorded writer is ready.  An aborted task keeps its intervals until
    a newer submission covers them, so csync keeps reporting bytes that
    never arrived.
    """

    def __init__(self):
        # asid -> (starts, spans); a span is (start, end, seq, task)
        self._spaces = {}

    def clear(self):
        self._spaces.clear()

    def _span_range(self, asid, start, end):
        """``(starts, spans, lo, hi)``: ``spans[lo:hi]`` overlap [start, end)."""
        space = self._spaces.get(asid)
        if space is None:
            return None, (), 0, 0
        starts, spans = space
        lo = bisect_right(starts, start)
        if lo and spans[lo - 1][1] > start:
            lo -= 1
        return starts, spans, lo, bisect_left(starts, end, lo)

    def claim(self, region, seq, task=None):
        """Record ``task`` (submission number ``seq``) as the newest writer
        of ``region``; ``task=None`` only trims (bytes already in place)."""
        start, end = region.start, region.end
        if start >= end:
            return
        starts, spans, lo, hi = self._span_range(region.aspace.asid, start, end)
        if starts is None:
            if task is None:
                return
            starts, spans = self._spaces[region.aspace.asid] = ([], [])
        new = []
        if lo < hi and spans[lo][0] < start:
            first = spans[lo]
            new.append((first[0], start, first[2], first[3]))
        if task is not None:
            new.append((start, end, seq, task))
        if lo < hi and spans[hi - 1][1] > end:
            last = spans[hi - 1]
            new.append((end, last[1], last[2], last[3]))
        starts[lo:hi] = [span[0] for span in new]
        spans[lo:hi] = new

    def release(self, task):
        """Drop every interval ``task`` still owns (its bytes landed)."""
        dst = task.dst
        starts, spans, lo, hi = self._span_range(dst.aspace.asid, dst.start,
                                                 dst.end)
        if lo == hi:
            return
        keep = [span for span in spans[lo:hi] if span[3] is not task]
        if len(keep) != hi - lo:
            starts[lo:hi] = [span[0] for span in keep]
            spans[lo:hi] = keep

    def overlapping(self, region):
        """``(lo, hi, seq, task)`` pieces of ``region`` with a recorded
        writer, clipped to the region, in address order."""
        start, end = region.start, region.end
        if start >= end:
            return []
        _starts, spans, lo, hi = self._span_range(region.aspace.asid, start,
                                                  end)
        return [(max(s, start), min(e, end), seq, task)
                for s, e, seq, task in spans[lo:hi]]

    def intervals(self):
        """Every ``(asid, start, end, task)`` interval, sorted (tests)."""
        return [(asid, s, e, task)
                for asid, (_starts, spans) in sorted(self._spaces.items())
                for s, e, _seq, task in spans]

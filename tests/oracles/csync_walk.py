"""Reference csync readiness: the newest-first walk over every submission.

This is the linear scan ``CopierClient._range_ready`` used before the
last-writer interval map replaced it, run over the *full* submission
history instead of a pruned index.  Buffers are recycled, so each byte is
decided by its newest covering task: walk the history newest first and
consult older tasks only for bytes no newer task covers.  It costs
O(history) per call, which is why the client no longer uses it; the
differential tests hold the map to its answers.
"""

from repro.copier import task as task_mod
from repro.copier.errors import CopyAborted
from repro.copier.task import Region


def range_ready(history, region):
    """True / False / raises, exactly as ``CopierClient._range_ready``.

    ``history`` lists every CopyTask the client accepted, oldest first
    (shed tasks included).  Raises the deciding task's parked error, or
    :class:`CopyAborted`, when the newest writer of some byte was aborted
    before that byte arrived.
    """
    remaining = [(region.start, region.start + region.length)]
    for task in reversed(history):
        if not remaining:
            return True
        if task.dst.aspace.asid != region.aspace.asid:
            continue
        next_remaining = []
        for start, end in remaining:
            lo = max(start, task.dst.start)
            hi = min(end, task.dst.end)
            if lo >= hi:
                next_remaining.append((start, end))
                continue
            covered = Region(region.aspace, lo, hi - lo)
            segs_ready = all(task.descriptor.is_ready(s)
                             for s in task.segments_covering(covered))
            if task.state == task_mod.ABORTED:
                if not segs_ready:
                    if task.error is not None:
                        raise task.error
                    raise CopyAborted("copy covering 0x%x aborted" % lo)
            elif not segs_ready:
                return False
            if start < lo:
                next_remaining.append((start, lo))
            if hi < end:
                next_remaining.append((hi, end))
        remaining = next_remaining
    return True


def assert_writer_map_sound(client):
    """Disjoint, sorted intervals, none owned by a DONE task."""
    last = None
    for asid, start, end, task in client.writers.intervals():
        assert start < end
        if last is not None and last[0] == asid:
            assert last[1] <= start, "overlapping writer intervals"
        assert task.state != task_mod.DONE, "DONE task left in writer map"
        assert task.dst.start <= start and end <= task.dst.end
        last = (asid, end)


def outcome(fn, *args):
    """``("ok", value)`` or ``("raise", exception type)`` of ``fn(*args)``."""
    try:
        return ("ok", fn(*args))
    except CopyAborted as exc:  # TaskEFault / TaskPoisoned subclass it
        return ("raise", type(exc))

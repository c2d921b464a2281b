"""The benchmark's own arithmetic: percentiles, sample counts, counter maps.

Kept free of any ``repro`` import so the self-tests can check it alone.
"""

from fractions import Fraction


def percentile(samples, q):
    """Nearest-rank ``q``-th percentile (``0 < q <= 100``) of ``samples``.

    Nearest rank returns an observed sample, never an interpolation, so a
    simulated latency percentile is an exact cycle count that repeats
    bit for bit across runs of one seed.
    """
    if not samples:
        raise ValueError("percentile of no samples")
    if not 0 < q <= 100:
        raise ValueError("q must be in (0, 100], got %r" % (q,))
    ordered = sorted(samples)
    return ordered[max(_rank(q, len(ordered)), 1) - 1]


def _rank(q, n):
    """``ceil(q * n / 100)`` in exact arithmetic (``0.99 * 1000`` in
    floating point is not reliably ``990``)."""
    return -(-Fraction(q) * n // 100)


def min_samples_for(q, tail=10):
    """Fewest samples that leave at least ``tail`` samples beyond the
    ``q``-th percentile under the nearest-rank rule (distinct values)."""
    n = 1
    while n - _rank(q, n) < tail:
        n += 1
    return n


def ratio(num, den):
    """``num / den``, or 0.0 when nothing was counted."""
    return num / den if den else 0.0


def flatten(tree, prefix=""):
    """Flatten nested dicts/lists into ``{"a.b.0.c": leaf}``.

    Leaves are kept as they are; the determinism check compares the
    flattened maps of two runs key by key.
    """
    out = {}
    if isinstance(tree, dict):
        for key in sorted(tree, key=str):
            out.update(flatten(tree[key], "%s%s." % (prefix, key)))
    elif isinstance(tree, (list, tuple)):
        for i, item in enumerate(tree):
            out.update(flatten(item, "%s%d." % (prefix, i)))
    else:
        out[prefix[:-1]] = tree
    return out


def diff_counters(a, b, limit=5):
    """Keys whose values differ between two flattened counter maps."""
    keys = sorted(set(a) | set(b))
    diffs = ["%s: %r != %r" % (k, a.get(k), b.get(k))
             for k in keys if a.get(k) != b.get(k)]
    return diffs[:limit], len(diffs)

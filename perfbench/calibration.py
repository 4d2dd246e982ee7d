"""A fixed piece of pure-Python work that gauges the host's speed right now.

The benchmark runs on a host shared with other tenants, whose load can
make this process twice as slow for minutes at a time.  Every timed
operation is therefore preceded by one run of ``work()``, the same kind
of computation as the program's inner loops: sparse polynomials held in
dicts keyed by exponent tuples, a few MiB of them, added up.  An
operation's time over the calibration's time repeats between runs far
better than either time alone (see BASELINE.md); ``REFERENCE_S`` turns
that ratio back into seconds.
"""

from time import perf_counter

# The median time of one ``work()`` on the machine of BASELINE.md.  Times
# are reported as seconds at the speed at which ``work()`` takes this long.
REFERENCE_S = 0.010


def _poly(terms, seed):
    return {tuple((i * j + seed) % 5 for j in range(4)) + (i,): (i * 7 + seed) % 11 - 5
            for i in range(terms)}


_POLYS = [_poly(400, seed) for seed in range(3)]
_SHIFTS = 20


def work():
    """Shift and add three 400-term polynomials 20 times into one dict."""
    out = {}
    for poly in _POLYS:
        for mono, coeff in poly.items():
            for shift in range(_SHIFTS):
                key = mono + (shift,)
                out[key] = out.get(key, 0) + coeff
    return len(out)


def sample():
    """Seconds one ``work()`` takes now."""
    start = perf_counter()
    work()
    return perf_counter() - start

"""A fixed reference kernel that measures the machine's current speed.

The benchmark times this kernel between every two timed calls.  A call's
time is then reported at a nominal machine speed:

    wall time * NOMINAL_S / median(kernel times of the WINDOW calls before
                                   and the WINDOW calls after it)

On a shared host whose speed drifts by up to 2x for seconds or minutes, the
drift slows the kernel and the command alike, so the ratio stays put while
the wall time does not.  The median over a few neighbours follows that
drift but not the kernel's own call-to-call jitter.  The kernel uses only numpy, scipy and plain Python,
never ``ctoqw``, so a change to the program cannot change it.  It mixes what
the program spends its time on: dense complex matrix exponentials and
eigenvalues, small numpy array operations, dict and string work, and JSON
encoding.  Interpreter-bound code slows about twice as much as BLAS-bound
code when the host is busy; the mix sits between the two, near most
commands.
"""

from __future__ import annotations

import gc
import json
import statistics
import time

# Median time of one kernel call on the reference box (2-core shared VM,
# Python 3, OpenBLAS pinned to one thread) in a quiet period.  Only a unit:
# changing it rescales every reported time by the same factor.
NOMINAL_S = 0.009
WINDOW = 3

_state = {}


def _inputs():
    if not _state:
        import numpy as np

        rng = np.random.default_rng(20180309)
        _state["eig"] = rng.standard_normal((40, 40)) + 1j * rng.standard_normal((40, 40))
        _state["expm"] = 0.1 * (rng.standard_normal((24, 24)) + 1j * rng.standard_normal((24, 24)))
        _state["expm_big"] = 0.05 * (rng.standard_normal((96, 96)) + 1j * rng.standard_normal((96, 96)))
        _state["vec"] = rng.standard_normal(6) + 0j
    return _state


def kernel() -> None:
    """The fixed work; about NOMINAL_S on the reference box."""
    import numpy as np
    import scipy.linalg

    s = _inputs()
    np.linalg.eigvals(s["eig"])
    scipy.linalg.expm(s["expm"])
    scipy.linalg.expm(s["expm_big"])
    v = s["vec"]
    acc = 0.0
    for k in range(350):
        w = v * (0.5 + 0.001 * k)
        acc += float(np.vdot(w, v).real)
    rows = {}
    for k in range(1900):
        rows[f"v{k}"] = [k, k * 0.25, str(k)]
    json.dumps(rows)


class Reference:
    """Times the kernel after each timed call and keeps every time."""

    def __init__(self, warmup: int = 5):
        for _ in range(warmup):
            kernel()
        self.times: list[float] = []
        self.mark()

    def mark(self) -> int:
        """Time the kernel once; return the index of that time."""
        gc.collect()  # garbage left by the previous call is not the kernel's
        start = time.perf_counter()
        kernel()
        self.times.append(time.perf_counter() - start)
        return len(self.times) - 1

    def at_nominal(self, wall: float, mark: int) -> float:
        """``wall`` of the call just before kernel call ``mark``, at nominal speed."""
        near = self.times[max(0, mark - WINDOW): mark + WINDOW]
        return wall * NOMINAL_S / statistics.median(near)

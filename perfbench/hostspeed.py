"""Host-speed probe: a fixed reference computation timed between operations.

The benchmark runs on shared hosts whose speed drifts by tens of
percent over seconds to minutes, for reasons outside the process (other
tenants' load on shared caches and memory, frequency changes); the
process's own CPU time drifts with it, so neither wall nor CPU time of
an operation is steady from one run to the next. The probe does a fixed
amount of work of the same kind the workloads do (JSON parsing, Python
loops over boxes, small numpy products) and is timed right before and
after each block of operations. Dividing an operation's time by the
probe time around it, and multiplying by REFERENCE_S, gives its time at
the reference host's speed: a slower program still reads slower, while
a slower host does not.

Nothing in the probe touches layoutprior, so no change to the program
can change the probe's time.
"""

from __future__ import annotations

import json
import statistics
from time import perf_counter

import numpy as np

# Median probe time on the reference host (see README.md). It only sets
# the scale: normalised times read as seconds at that host's speed.
REFERENCE_S = 0.0035

_rng = np.random.Generator(np.random.PCG64(0))
_DOC = json.dumps([
    {"id": f"screen-{i}", "height": 1000.0,
     "components": [{"class": int(c), "bbox": [float(v) for v in box]}
                    for c, box in zip(_rng.integers(0, 25, 20),
                                      _rng.random((20, 4)) * 1000.0)]}
    for i in range(40)
])
_M = _rng.standard_normal((64, 64)) / 8.0


def probe_once() -> float:
    """Seconds taken by one fixed unit of reference work."""
    t0 = perf_counter()
    layouts = json.loads(_DOC)
    area = 0.0
    for lay in layouts:
        for comp in lay["components"]:
            x1, y1, x2, y2 = comp["bbox"]
            area += abs(x2 - x1) * abs(y2 - y1) / lay["height"]
    a = _M
    for _ in range(40):
        a = np.tanh(a @ _M)
    if not (area > 0.0 and np.isfinite(a).all()):
        raise RuntimeError("host-speed probe computed a wrong result")
    return perf_counter() - t0


def probe(repeats: int = 3) -> float:
    """Median of a few probe_once timings, so that one probe slowed
    by a preemption does not set the scale of a whole block."""
    return statistics.median(probe_once() for _ in range(repeats))


class Normaliser:
    """Scales operation times to the reference host's speed.

    `add(dt)` queues an operation's wall time; `flush()` runs the probe
    and scales every queued time by REFERENCE_S over the mean of this
    probe and the one before it, i.e. by the host speed measured around
    them. Call `flush()` at least every PROBE_EVERY_S seconds of
    operations and once at the end.
    """

    PROBE_EVERY_S = 0.2

    def __init__(self):
        probe_once()   # warm: first-call costs are not host speed
        self.last = probe()
        self.probes = [self.last]
        self.pending = []
        self.pending_s = 0.0

    def add(self, dt: float, keep=True) -> None:
        self.pending.append((dt, keep))
        self.pending_s += dt

    def due(self) -> bool:
        return self.pending_s >= self.PROBE_EVERY_S

    def mark(self) -> float:
        """Probe now and keep the result as the latest probe."""
        self.last = probe()
        self.probes.append(self.last)
        return self.last

    def flush(self) -> list:
        """(scaled time, keep) for every queued time, in order."""
        before = self.last
        now = self.mark()
        scale = REFERENCE_S / ((before + now) / 2.0)
        out = [(dt * scale, keep) for dt, keep in self.pending]
        self.pending, self.pending_s = [], 0.0
        return out

    def median_probe_s(self, first=0, stop=None) -> float:
        return statistics.median(self.probes[first:stop])

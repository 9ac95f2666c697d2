"""Host-speed reference for the end-to-end timings.

On a shared host the same op can run up to twice as slow for minutes at a
time while other tenants load the machine. A fixed reference kernel is
timed between ops, outside the timed region, and each op's latency is
rescaled to a host where that kernel takes REFERENCE_MS:

    normalized = latency * REFERENCE_MS / (local kernel time)

Here the local kernel time is the median of the kernel samples taken
nearest the op. The kernel mixes what the workloads spend their time on:
expat callbacks building a dict, and a chain of small numpy products. It
uses no urdfplus code, so a change to the program moves only the latency
and never the scale.
"""

from __future__ import annotations

import bisect
import statistics
import time
import xml.parsers.expat as expat

import numpy as np

# About the kernel's median time on the 2-vCPU virtual machine the
# benchmark was sized on, so normalized figures read as that host's ms.
REFERENCE_MS = 1.5
# Op time between kernel samples, and samples on each side of an op that
# set its scale.
SAMPLE_EVERY_S = 0.05
NEAREST = 3

_DOC = ("<r>" + "".join(f'<e a="{i}" b="x{i}"><c d="{i * 0.5}"/></e>'
                        for i in range(150)) + "</r>").encode()
_M = np.random.default_rng(0).uniform(-1.0, 1.0, (6, 6)) / 3.0


def _settle():
    # Untimed: displaces what the last op left in the caches, so the
    # kernel's time tracks the host and not the program's memory footprint.
    s = 0
    for i in range(20000):
        s += i * i
    return s


def _kernel():
    seen = {}

    def start(tag, attrs):
        seen[tag + attrs.get("a", "")] = len(attrs)

    parser = expat.ParserCreate()
    parser.StartElementHandler = start
    parser.Parse(_DOC, True)
    a = np.eye(6)
    for _ in range(150):
        a = a @ _M + np.eye(6) * 0.01
    return len(seen), a


def sample_ms() -> float:
    """One timed run of the reference kernel, in ms."""
    _settle()
    t0 = time.perf_counter()
    _kernel()
    return (time.perf_counter() - t0) * 1e3


def normalize(latencies: list[float], samples: list[tuple[int, float]]) -> list[float]:
    """Rescale each latency by the kernel samples nearest to it.

    `samples` holds (index of the op the sample followed, kernel ms), in
    op order.
    """
    positions = [p for p, _ in samples]
    out = []
    for i, latency in enumerate(latencies):
        j = bisect.bisect_left(positions, i)
        near = [ms for _, ms in samples[max(0, j - NEAREST):j + NEAREST]]
        out.append(latency * REFERENCE_MS / statistics.median(near))
    return out

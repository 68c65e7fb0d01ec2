"""A fixed plain-Python probe of how fast the host runs right now.

The host runs the same code at speeds up to 2x apart, in phases of seconds
to minutes.  The worker times this probe just before and just after every
job and its import of etarho, and run.py scales each of those times by the
mean of its two probes to one reference host speed, so that a change of
host phase does not read as a change of the program.  The probe uses
nothing of etarho, and it imports only ``gc`` and ``time`` so that it
leaves the timed import of etarho as it was.
"""

import gc
import time

# host_probe()'s median on the host the benchmark was built on (2-vCPU Xeon
# VM, Python 3.11.7) in a quiet phase; it only fixes the unit of scaled times
REF_PROBE_S = 1.7e-3


def host_probe() -> float:
    """Seconds for a fixed integer and float loop, with the collector paused
    so that the program's heap cannot change the probe's cost."""
    gc.disable()
    start = time.perf_counter()
    s, x = 0, 1.0
    for i in range(20_000):
        s += (i * 7919) % 1013
        x = x * 1.0000001 + 0.5
    elapsed = time.perf_counter() - start
    gc.enable()
    return elapsed


def probe_median() -> float:
    """Median of three probes, without importing ``statistics``."""
    return sorted(host_probe() for _ in range(3))[1]


def at_reference_speed(seconds: float, probe_s: float) -> float:
    """``seconds`` measured while the probe took ``probe_s``, at REF_PROBE_S."""
    return seconds * REF_PROBE_S / probe_s

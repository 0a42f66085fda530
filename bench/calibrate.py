"""How fast the machine runs pure-Python code right now.

On a shared host the same interpreter work can take 40 % longer for
minutes at a time while another tenant loads the CPU.  ``probe`` times
a fixed piece of dict, tuple and integer work that shares no code with
knots; a round's median probe time, against REFERENCE_S, says how much
slower than the reference machine it ran.  run.py divides item
latencies by that factor (see README.md, "Machine speed").
"""

import time

# About the probe's median on the build machine (Python 3.11.7, 2-vCPU
# VM) outside slow spells.  It fixes the unit of every latency metric,
# so changing it rescales them all and breaks comparison with earlier
# results.
REFERENCE_S = 0.0060


def _work():
    table = {}
    acc = 0
    for i in range(12000):
        key = (i % 251, i % 127)
        table[key] = table.get(key, 0) + i
        acc = (acc * 31 + len(key) + key[0]) % 1000003
    return acc + sorted(table.values())[len(table) // 2]


def probe():
    """Seconds one run of the fixed work takes."""
    start = time.perf_counter()
    _work()
    return time.perf_counter() - start

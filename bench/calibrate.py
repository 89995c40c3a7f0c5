"""Reference kernel that reads the machine's current speed.

On a shared machine the speed this benchmark sees changes by up to 1.8x,
from one minute to the next and between neighbouring requests, and raw
wall times change with it.  The benchmark times this fixed kernel in the
same process right before and after each item it measures, and scales
the item's times by ``REFERENCE_S`` over the mean of the two: the figures
read as seconds on a machine where the kernel takes ``REFERENCE_S``.
"""

from time import perf_counter

#: the kernel's time on an idle 2-vCPU 2.0 GHz Xeon VM
REFERENCE_S = 0.003


def kernel_seconds() -> float:
    """Time one pass of interpreter work and small complex matrix products,
    the mix the package spends its time on."""
    import numpy as np

    t0 = perf_counter()
    s = 0
    for i in range(15000):
        s += i * i
    a, eye = np.eye(6, dtype=complex), np.eye(6)
    for _ in range(200):
        b = a @ a.conj().T
        a = b / np.linalg.norm(b) + eye
    return perf_counter() - t0

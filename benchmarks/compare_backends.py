"""Timing comparison: compiled angular-reduction kernel vs the NumPy fallback.

Runs the raw reduce_axial kernel on a large product grid and full
ball4_integrate calls under each backend.  The backends are timed in
alternating pairs (the order flips from pair to pair), so a change in host
speed hits both sides of a pair alike; the table gives each backend's median
time and the median per-pair speedup numpy/compiled with its quartiles.

Usage: python3 benchmarks/compare_backends.py [--pairs N]
"""

import argparse
import time

import numpy as np

import devfactor._kernels as kernels
from devfactor._kernels import KIND_INV_SQUARE, _ball4_py
from devfactor.quadrature import (
    ball4_integrate,
    chebyshev_pair,
    shifted_denominator_integrand,
)

try:
    from devfactor._kernels import _ball4
except ImportError:
    _ball4 = None


def reduce_case(impl):
    x, wf, wc = chebyshev_pair(24)  # 49 angular nodes
    r = np.geomspace(0.01, 100.0, 4000)

    def run():
        impl.reduce_axial(KIND_INV_SQUARE, 0.7, 1.3, r, x, wf, wc)

    return run


def ball_case(impl):
    p = np.array([0.5, 0.0, 0.0, 0.0])
    f = shifted_denominator_integrand(p, 1.25)

    def run():
        # quadrature looks the kernel up at call time; swap the dispatch attribute.
        saved = kernels.reduce_axial
        kernels.reduce_axial = impl.reduce_axial
        try:
            res = ball4_integrate(f, 1000.0, tol=1e-10)
        finally:
            kernels.reduce_axial = saved
        assert res.converged

    return run


def time_pairs(runs, pairs):
    """Seconds per call of each named run, timed in alternating order."""
    names = list(runs)
    for name in names:  # warm-up
        runs[name]()
    times = {name: [] for name in names}
    for i in range(pairs):
        for name in (names if i % 2 == 0 else names[::-1]):
            start = time.perf_counter()
            runs[name]()
            times[name].append(time.perf_counter() - start)
    return {name: np.array(t) for name, t in times.items()}


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--pairs", type=int, default=15)
    args = parser.parse_args()

    backends = {"numpy": _ball4_py}
    if _ball4 is None:
        print("compiled extension not built; timing the fallback only")
    else:
        backends["compiled"] = _ball4

    cases = {"reduce_axial 4000x49": reduce_case, "ball4 tol 1e-10": ball_case}
    print(f"{'case':<22} {'backend':<10} {'median':>12}")
    for case, make in cases.items():
        times = time_pairs({name: make(impl) for name, impl in backends.items()},
                           args.pairs)
        for name, t in times.items():
            print(f"{case:<22} {name:<10} {np.median(t) * 1e3:>9.3f} ms")
        if len(times) == 2:
            q1, med, q3 = np.percentile(times["numpy"] / times["compiled"], [25, 50, 75])
            print(f"{case:<22} speedup compiled/numpy {med:.2f}x "
                  f"(quartiles {q1:.2f}-{q3:.2f}x over {args.pairs} pairs)")


if __name__ == "__main__":
    main()

"""Benchmark worker: the one process that calls into devfactor.

Started by run.py with devfactor's source directory on PYTHONPATH.  It
imports devfactor.cli, runs the workload's set-up op and prints ``ready``;
that line ends the set-up time the parent measures.  The next line is the
median time of the host-speed reference (reference.py) run just after,
which scales that set-up time.  In ``setup`` mode it
then exits.  In ``measure`` mode it runs ops in a closed loop with a single
caller until the time budget is spent.  In ``trace`` mode it measures for
half the budget untraced, installs the tracer, and runs the same ops again
traced.  Op records go to JSON-lines files next to the ``--out`` JSON file;
the oracles are applied by the parent.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import sys
import time

import devfactor.cli
import numpy as np

import reference
import workloads
from devfactor import coulomb, expansions, fitting, quadrature


SETUP_REFS = 40  # reference timings after set-up


def _callable_integrand(p, ell):
    p = np.asarray(p, dtype=float)

    def integrand(points):
        d = np.einsum("ij,ij->i", points, points) - 2.0 * (points @ p) + ell
        return 1.0 / (d * d)

    return integrand


def run_ladder(op):
    """cutoff_ladder, then fit, detect_signature and the deviation factor of
    the fitted log term.  Fails when a rung reports converged=False."""
    p, ell, kind = op["p"], op["ell"], op["kind"]
    kwargs = {}
    if kind == "volume":
        f = quadrature.unit_integrand()
    elif kind == "shifted":
        f = quadrature.shifted_denominator_integrand(p, ell)
    elif kind == "component":
        f = quadrature.shifted_component_integrand(p, ell)
    else:
        f = _callable_integrand(p, ell)
        norm = sum(c * c for c in p) ** 0.5
        kwargs["axis"] = [c / norm for c in p] if norm > 0 else [1.0, 0.0, 0.0, 0.0]
    samples = quadrature.cutoff_ladder(f, op["radii"], tol=op["tol"], **kwargs)
    basis = fitting.parse_basis(",".join(op["basis"]))
    result = fitting.fit(samples, basis)
    fitting.detect_signature(samples, threshold=1e-6, basis=basis)
    log_coeff = result.coefficient(0, 1)
    factor = expansions.deviation_factor(expansions.AsymptoticExpansion(
        expansions.ULTRAVIOLET, {expansions.LOG: 1j * log_coeff.real}, dim=1))
    unit = factor.evaluate(op["radii"][-1])
    return {"values": [float(v.real) for v in samples.values],
            "converged": [bool(c) for c in samples.converged],
            "factor_modulus": abs(unit)}, not samples.all_converged


def run_kernel(op):
    spec = coulomb.CoulombPotentialSpec(z=op["z"], e=op["e"], ell=op["ell"],
                                        measure=tuple(map(tuple, op["measure"])))
    if op["op"] == "apply":
        f = np.array(op["f_re"]) + 1j * np.array(op["f_im"])
        grid = (np.array(op["nodes"]), np.array(op["weights"]))
        out = coulomb.apply_momentum_operator(spec, f, grid, op["tol"])
    else:
        out = [coulomb.s1(spec, k, op["tol"]) for k in op["ks"]]
    return {"re": [float(v.real) for v in out], "im": [float(v.imag) for v in out]}, False


def run_cli(op):
    """One in-process CLI call in the current (scratch) directory; the
    series files an op reads are written before its first run."""
    for path, doc in op["files"].items():
        if not os.path.exists(path):
            with open(path, "w") as fh:
                json.dump(doc, fh, sort_keys=True)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = devfactor.cli.main(list(op["argv"]))
    return {"code": code, "stdout": buf.getvalue()}, code != 0


def digest_cli(out):
    """Replace a CLI op's captured stdout by [sha256, size] of each file it
    reports having written."""
    files = {}
    for line in out.pop("stdout").splitlines():
        if line.startswith("wrote: "):
            path = line[len("wrote: "):]
            with open(path, "rb") as fh:
                data = fh.read()
            files[path] = [hashlib.sha256(data).hexdigest(), len(data)]
    out["files"] = files


RUNNERS = {"ladder": run_ladder, "kernel": run_kernel, "cli": run_cli}


def loop(workload, seed, path, seconds=None, count=None):
    """Closed loop with one caller: op i+1 starts when op i has returned.
    Stops after ``seconds`` of wall time, or after ``count`` ops.  Each op's
    record goes to the JSON-lines file ``path`` at once, so that the
    worker's memory does not grow with the number of ops; returns the count.
    The host-speed reference runs before every op, and its (start, ms)
    timings go to ``path + ".refs"``.
    """
    run = RUNNERS[workload]
    cli_ops = workloads.cli_cycle(seed) if workload == "cli" else None
    written = {}  # CLI cycle slot -> files its previous run wrote
    i = 0
    start = time.perf_counter()
    with open(path, "w") as sink, open(path + ".refs", "w") as refs:
        while i < count if count is not None else time.perf_counter() - start < seconds:
            op = cli_ops[i % len(cli_ops)] if cli_ops else workloads.op(workload, seed, i)
            # Every CLI run writes fresh files, as into a new output directory:
            # on ext4, truncating and rewriting a file flushes it to disk on
            # close, which would time the disk instead of the program.
            for stale in written.pop(i % len(cli_ops), ()) if cli_ops else ():
                os.remove(stale)
            refs.write(json.dumps(reference.timed()) + "\n")
            error = None
            t0 = time.perf_counter()
            try:
                out, failed = run(op)
            except Exception as exc:  # any raise is a failed op, reported as such
                out, failed, error = {}, True, f"{type(exc).__name__}: {exc}"
            ms = 1e3 * (time.perf_counter() - t0)
            if "stdout" in out:
                digest_cli(out)
                written[i % len(cli_ops)] = list(out["files"])
            sink.write(json.dumps({"i": i, "t0": t0, "ms": ms, "failed": failed,
                                   "error": error, "out": out}) + "\n")
            i += 1
    return i


def peak_rss_mb():
    """This process's own peak resident set.  ru_maxrss would not do: Linux
    carries the parent's high-water mark into a forked and exec'd child."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def environment():
    return {
        "kernel_backend": devfactor.KERNEL_BACKEND,
        "DEVFACTOR_KERNELS": os.environ.get("DEVFACTOR_KERNELS"),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "blas_threads": {k: os.environ.get(k) for k in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")},
    }


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", required=True, choices=("setup", "measure", "trace"))
    ap.add_argument("--scratch", required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()

    os.chdir(args.scratch)
    RUNNERS[args.workload](workloads.warmup(args.workload, args.seed))
    print("ready", flush=True)
    print(reference.median_ms(SETUP_REFS), flush=True)
    if args.mode == "setup":
        return 0

    result = {"env": environment()}
    if args.mode == "measure":
        loop(args.workload, args.seed, args.out + ".ops", seconds=args.seconds)
        result["peak_rss_mb"] = peak_rss_mb()
    else:
        import spans

        ops = loop(args.workload, args.seed, args.out + ".ops", seconds=args.seconds / 2)
        tracer = spans.Tracer().install()
        loop(args.workload, args.seed, args.out + ".traced_ops", count=ops)
        result["layers"] = tracer.layer_metrics(ops)
        result["span_table"] = tracer.table()
        result["bindings"] = dict(tracer.bindings)
    with open(args.out, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())

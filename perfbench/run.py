"""devfactor benchmark: seeded workloads, oracle-checked outputs, timings.

Run from the root of a devfactor checkout:

    python3 perfbench/run.py --workload ladder --seed 1 --seconds 30 --trace 0

Workloads (see perfbench/README.md for why each was chosen):

- ``ladder``: cutoff_ladder, fit, detect_signature, deviation_factor;
- ``kernel``: coulomb.apply_momentum_operator or an s1 table;
- ``cli``: in-process devfactor.cli.main over all six subcommands.

The library runs in a separate worker process (perfbench/worker.py) with
``src`` on its path; this process generates the inputs, times set-up,
computes the oracles with mpmath and checks every output.  With ``--trace 0``
the last stdout line carries the end-to-end metrics, with ``--trace 1`` the
per-layer metrics of a traced run.  Lines before it, starting with ``#``,
repeat every metric with its unit and sample count and record the
environment.
"""

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import reference  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 5  # fresh interpreters timed before the measured one
SETUP_TIMEOUT_S = 30.0
RUN_TIMEOUT_S = 60.0  # on top of twice the measuring time
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


class Worker:
    """One worker process, killed on leaving the ``with`` block if still
    running."""

    def __init__(self, root, scratch, args, mode, out, importtime=False):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(root, "src")
        for var in BLAS_THREAD_VARS:
            env.setdefault(var, "1")
        cmd = [sys.executable] + (["-X", "importtime"] if importtime else []) + [
            os.path.join(HERE, "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", repr(args.seconds),
            "--mode", mode, "--scratch", scratch, "--out", out]
        self.stderr_path = out + ".stderr"
        self.stderr = open(self.stderr_path, "w")
        self.t0 = time.perf_counter()
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=self.stderr,
                                     env=env, cwd=root, text=True)

    def wait_ready(self):
        """Wait for the ``ready`` line and the reference time after it;
        return the set-up time at reference speed and wall-clock."""
        line = self.proc.stdout.readline()
        ready_s = time.perf_counter() - self.t0
        ref_line = self.proc.stdout.readline() if line.strip() == "ready" else ""
        try:
            ref_ms = float(ref_line)
        except ValueError:
            self.proc.communicate()
            fail(f"worker did not start:\n{self.stderr_text()}")
        return ready_s * reference.NOMINAL_MS / ref_ms, ready_s

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.communicate()
        self.stderr.close()

    def stderr_text(self):
        with open(self.stderr_path) as fh:
            return fh.read()

    def finish(self, timeout):
        try:
            self.proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            fail(f"worker exceeded {timeout:.0f} s")
        if self.proc.returncode != 0:
            fail(f"worker exited with {self.proc.returncode}:\n{self.stderr_text()}")


def import_times(stderr_text):
    """numpy's cumulative import time and devfactor's own (its cumulative
    time minus the numpy import nested in it), in ms, from -X importtime."""
    cumulative = {}
    for line in stderr_text.splitlines():
        if line.startswith("import time:") and "|" in line:
            parts = [p.strip() for p in line[len("import time:"):].split("|")]
            if parts[1].isdigit():
                cumulative[parts[2]] = int(parts[1]) / 1000.0
    numpy_ms = cumulative.get("numpy", 0.0)
    return numpy_ms, cumulative.get("devfactor", 0.0) - numpy_ms


def verdicts(workload, seed, records, scratch):
    """Check every op; an input that produced the same output again (a CLI
    cycle slot, or a traced rerun) is checked once."""
    cycle = workloads.cli_cycle(seed) if workload == "cli" else None
    cache = {}
    out = []
    for rec in records:
        slot = rec["slot"]
        key = (slot, rec["failed"], json.dumps(rec["out"], sort_keys=True))
        if key not in cache:
            if workload == "cli":
                cache[key] = checks.check_cli(cycle[slot], rec["out"], rec["failed"], scratch)
            elif workload == "ladder":
                cache[key] = checks.check_ladder(workloads.op(workload, seed, slot),
                                                 rec["out"], rec["failed"])
            else:
                cache[key] = checks.check_kernel(workloads.op(workload, seed, slot),
                                                 rec["out"], rec["failed"])
        out.append(cache[key])
    return out


def identity_problems(records):
    """Byte-identity of CLI outputs: every run of one argv must write files
    with the same names and bytes."""
    seen = {}
    problems = []
    for rec in records:
        files = rec["out"].get("files")
        if files is not None and seen.setdefault(rec["slot"], files) != files:
            problems.append(f"cycle slot {rec['slot']}: outputs differ between identical runs")
    return problems


def end_to_end(records, found, setup_samples, scale, peak_rss_mb, tail_percentile):
    """Times are at reference speed (reference.py); the notes give the raw
    wall-clock figures beside them."""
    n = len(records)
    failed = sum(r["failed"] for r in records)
    false_conv = sum(v.false_conv for v in found)
    wall = sorted(r["ms"] for r in records)
    ms = sorted(scale(r["t0"], r["ms"]) for r in records)
    tail_rank = max(math.ceil(tail_percentile / 100.0 * n) - 1, 0)
    errors = [v.rel_err for v in found if v.rel_err is not None]
    setup = [scaled for scaled, _ in setup_samples]
    m = {
        "setup_s": (statistics.median(setup),
                    f"median of {len(setup)} fresh interpreters; wall "
                    f"{statistics.median(wall_s for _, wall_s in setup_samples):.4f} s"),
        "ops_per_s": ((n - failed) / (sum(ms) / 1e3),
                      f"{n - failed} completed ops / {sum(ms) / 1e3:.3f} s compute; wall "
                      f"{(n - failed) / (sum(wall) / 1e3):.2f} 1/s"),
        "op_ms_p50": (statistics.median(ms), f"n={n}; wall {statistics.median(wall):.3f} ms"),
        "op_ms_tail": (ms[tail_rank],
                       f"p{tail_percentile:g}: {n - 1 - tail_rank} of n={n} slower; "
                       f"wall {wall[tail_rank]:.3f} ms"),
        "ok_frac": (1.0 - failed / n, f"fail_frac={failed / n!r} ({failed} of {n})"),
        "trusted_frac": (1.0 - false_conv / n,
                         f"false_conv_frac={false_conv / n!r} ({false_conv} of {n})"),
        "peak_rss_mb": (peak_rss_mb, "worker VmHWM"),
    }
    worst = (max(errors) if errors else float("nan"),
             f"worst of {len(errors)} checked ops; printed, not in BENCHMARK.json")
    return m, {"rel_err_max": worst}


def per_layer(result, stderr_text):
    layers = dict(result["layers"])
    traced = result["traced_ops"]
    layers["cli.bytes_written"] = sum(
        size for r in traced for _, size in r["out"].get("files", {}).values()) / len(traced)
    numpy_ms, devfactor_ms = import_times(stderr_text)
    layers["setup.import.numpy_ms"] = numpy_ms
    layers["setup.import.devfactor_ms"] = devfactor_ms
    rates = []
    for key in ("ops", "traced_ops"):
        recs = result[key]
        rates.append(sum(not r["failed"] for r in recs) / (sum(r["ms"] for r in recs) / 1e3))
    layers["trace.untraced_ops_per_s"] = rates[0]
    layers["trace.traced_ops_per_s"] = rates[1]
    layers["trace.overhead_frac"] = 1.0 - rates[1] / rates[0]
    return layers


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # Turn SIGTERM into an exit, so that the finally clauses stop the worker
    # and remove the scratch directory.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not 0 < args.seconds <= 60:
        fail("--seconds must lie in (0, 60]")

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "devfactor", "cli.py")):
        fail(f"no devfactor sources under {root}/src; run from a checkout root")
    scratch = os.path.join(root, ".bench_build", "perfbench",
                           f"{args.workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(scratch, ignore_errors=True)
    os.makedirs(scratch)
    try:
        report(args, root, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def report(args, root, scratch):
    out = os.path.join(scratch, "result.json")
    setup_samples = []  # (at reference speed, wall), in s
    modes = ["setup"] * (0 if args.trace else SETUP_SAMPLES) + ["trace" if args.trace else "measure"]
    for k, mode in enumerate(modes):
        path = out if mode != "setup" else os.path.join(scratch, f"setup{k}.json")
        with Worker(root, scratch, args, mode, path, importtime=mode == "trace") as worker:
            setup_samples.append(worker.wait_ready())
            worker.finish(timeout=SETUP_TIMEOUT_S if mode == "setup"
                          else 2 * args.seconds + RUN_TIMEOUT_S)
            stderr_text = worker.stderr_text()
    with open(out) as fh:
        result = json.load(fh)
    for key in ("ops", "traced_ops"):
        if os.path.exists(f"{out}.{key}"):
            with open(f"{out}.{key}") as fh:
                result[key] = [json.loads(line) for line in fh]

    records = result["ops"] + result.get("traced_ops", [])
    cycle = len(workloads.cli_cycle(args.seed)) if args.workload == "cli" else None
    for rec in records:
        rec["slot"] = rec["i"] % cycle if cycle else rec["i"]
    found = verdicts(args.workload, args.seed, records, scratch)
    problems = [v.wrong for v in found if v.wrong]
    problems += identity_problems(records)

    env = result["env"]
    print("# env " + json.dumps(env, sort_keys=True))
    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} ops={len(result['ops'])}")
    for problem in sorted(set(problems))[:20]:
        print(f"# WRONG {problem}")
    printed = {}
    if args.trace:
        metrics = {k: (v, "per traced op" if k in result["layers"] else "")
                   for k, v in per_layer(result, stderr_text).items()}
        for line in result["span_table"]:
            print(f"# span {line}")
        for label, sites in sorted(result["bindings"].items()):
            print(f"# bound {label}: {', '.join(sites)}")
    else:
        with open(f"{out}.ops.refs") as fh:
            scale = reference.Scale(json.loads(line) for line in fh)
        metrics, printed = end_to_end(result["ops"], found[:len(result["ops"])], setup_samples,
                                      scale, result["peak_rss_mb"],
                                      workloads.TAIL_PERCENTILE[args.workload])
    units = _units(args.trace)
    for name, (value, note) in {**metrics, **printed}.items():
        unit = units.get(name, "1")
        print(f"# {args.workload}.{name} = {value!r} {unit}{f' ({note})' if note else ''}")
    if set(units) != set(metrics):
        fail(f"metrics {sorted(set(metrics) ^ set(units))} are not declared in BENCHMARK.json "
             "or not measured")
    print(json.dumps({
        "correct": not problems,
        "attempted": len(records),
        # Ops that raised.  Documented refusals (CLI exit 3 or 4, a rung with
        # converged=False) completed, and are counted in ok_frac instead.
        "failed": sum(r["error"] is not None for r in records),
        "metrics": {k: {"value": v[0], "unit": units[k]} for k, v in metrics.items()},
    }))


def _units(trace):
    """Units of the metrics BENCHMARK.json declares for this kind of run."""
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


if __name__ == "__main__":
    main()

"""Compare saved benchmark runs of two commits, metric by metric.

    python3 perfbench/compare.py --base base-*.txt --change change-*.txt

Each file is the standard output of one ``run.py`` invocation.  Runs whose
recorded environment differs in kernel backend, DEVFACTOR_KERNELS, numpy or
Python version are refused, because their timings measure different code.
Prints each side's median and quartiles per workload and metric.
"""

import argparse
import json
import statistics
import sys

ENV_KEYS = ("kernel_backend", "DEVFACTOR_KERNELS", "numpy", "python")


def load(path):
    env, workload, result = None, None, None
    with open(path) as fh:
        for line in fh:
            if line.startswith("# env "):
                env = json.loads(line[len("# env "):])
            elif line.startswith("# workload="):
                workload = line.split()[1].split("=", 1)[1]
            elif line.startswith("{"):
                result = json.loads(line)
    if env is None or workload is None or result is None:
        raise ValueError(f"{path} is not the output of perfbench/run.py")
    return env, workload, result


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", nargs="+", required=True)
    ap.add_argument("--change", nargs="+", required=True)
    args = ap.parse_args(argv)
    runs = {side: [load(p) for p in getattr(args, side)] for side in ("base", "change")}
    envs = {json.dumps({k: env.get(k) for k in ENV_KEYS}, sort_keys=True)
            for side in runs.values() for env, _, _ in side}
    if len(envs) > 1:
        print("refusing to compare runs made in different environments:", file=sys.stderr)
        for env in sorted(envs):
            print(f"  {env}", file=sys.stderr)
        return 2
    table = {}
    for side, loaded in runs.items():
        for _, workload, result in loaded:
            for name, metric in result["metrics"].items():
                table.setdefault((workload, name), {}).setdefault(side, []).append(metric["value"])
    for (workload, name), sides in sorted(table.items()):
        cells = []
        for side in ("base", "change"):
            values = sides.get(side, [])
            if len(values) >= 2:
                q1, q2, q3 = statistics.quantiles(values, n=4)
                cells.append(f"{side} {q2:.6g} [{q1:.6g}, {q3:.6g}] n={len(values)}")
            else:
                cells.append(f"{side} {values[0] if values else float('nan'):.6g} n={len(values)}")
        print(f"{workload:7s} {name:44s} " + " | ".join(cells))
    return 0


if __name__ == "__main__":
    sys.exit(main())

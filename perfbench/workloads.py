"""Seeded input generators for the three benchmark workloads.

Nothing here imports devfactor: the generators produce plain JSON-ready
dicts, the worker process turns them into library calls, and the oracles
check the results.  ``op(workload, seed, i)`` is a pure function of its
arguments, so the worker and the checking parent regenerate identical inputs.

Inputs are stratified: the properties that set an op's cost follow the op
counter.  The values inside a stratum that still move the cost (shift, mass,
cutoff, rung count, Yukawa ranges, momentum ranges) come from ``_even``
sequences, which fill their range evenly over any run of consecutive ops and
take only their offset from the seed; the rest are drawn at random.  Every
run therefore covers the same mix of costs, whatever its seed and however
many ops it completes, which keeps throughput and latencies, tails included,
comparable between seeds.
"""

import math
import random

import numpy as np

WORKLOADS = ("ladder", "kernel", "cli")
# Percentile op_ms_tail reports.  It is fixed, not derived from the number of
# ops a run completes, which follows the host's and the program's speed.  In
# a 30-second run at today's speed each leaves at least 17 ops beyond it.
TAIL_PERCENTILE = {"ladder": 99, "kernel": 95, "cli": 99}

LADDER_KINDS = ("shifted", "component", "volume", "callable")
LADDER_TOLS = (1e-6, 1e-8, 1e-10)
# lmax is drawn log-uniformly inside one of these decades [10^a, 10^(a+1)].
LADDER_LMAX_DECADES = (3, 4, 5, 6, 7)
LOG_BASIS = ("ln", "1", "1/L", "1/L^2")
VOLUME_BASIS = ("L^2", "L", "ln", "1")

KERNEL_APPLY_TOL = 1e-10  # apply_momentum_operator's default quad_tol
KERNEL_S1_TOL = 1e-12     # s1's default quad_tol


def _rng(workload, seed, i):
    return random.Random(f"{workload}:{seed}:{i}")


# Irrational steps, one per even sequence, so that no two sequences move in
# step: frac(sqrt(q)) for primes q.
_STEPS = {name: math.sqrt(q) % 1.0 for name, q in (
    ("p", 2), ("ell", 3), ("lmax", 5), ("decades", 7), ("rungs", 11),
    ("beta0", 13), ("beta1", 17), ("beta2", 19), ("k0", 23), ("kmax", 29), ("kmin", 31))}


def _even(workload, seed, name, k):
    """k-th value in [0, 1) of a Kronecker sequence frac(u0 + k * step):
    any run of consecutive k covers [0, 1) evenly, and the seed only sets
    the offset u0."""
    u0 = random.Random(f"{workload}:{seed}:{name}").random()
    return (u0 + k * _STEPS[name]) % 1.0


def _direction(rng):
    v = [rng.gauss(0.0, 1.0) for _ in range(4)]
    n = math.sqrt(sum(c * c for c in v))
    return [c / n for c in v]


def _log_uniform(rng, lo, hi):
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _round(x, digits=6):
    """Shorten a drawn value so that CLI argv strings stay readable."""
    return float(f"{x:.{digits}g}")


def ladder_strata():
    return [(kind, tol, dec) for dec in LADDER_LMAX_DECADES
            for tol in LADDER_TOLS for kind in LADDER_KINDS]


def ladder_op(seed, i):
    """One cutoff ladder: integrand, shift, tolerance and rung radii.

    The component integrand draws |p| >= 0.05 because its integral is
    proportional to |p|; at p = 0 it vanishes and has no relative error.
    """
    strata = ladder_strata()
    kind, tol, dec = strata[i % len(strata)]
    rng = _rng("ladder", seed, i)

    def even(name):
        # Indexed by i, not by the pass over the strata: neighbouring ops then
        # differ, and each stratum's values still form a Kronecker sequence.
        return _even("ladder", seed, name, i)

    u = even("p")
    if kind == "volume":
        p_mag = 0.0
    elif kind == "component":
        p_mag = 0.05 + 1.45 * u
    else:
        p_mag = 0.0 if u < 0.1 else 1.5 * (u - 0.1) / 0.9
    p = [p_mag * c for c in _direction(rng)]
    ell = sum(c * c for c in p) + 0.05 + 4.95 * even("ell")
    lmax = 10.0 ** (dec + even("lmax"))
    decades = 2.0 + 3.0 * even("decades")
    lmin = lmax / 10.0 ** decades
    rungs = 6 + int(11 * even("rungs"))
    ratio = (lmax / lmin) ** (1.0 / (rungs - 1))
    radii = [lmin * ratio ** k for k in range(rungs - 1)] + [lmax]
    return {
        "kind": kind, "p": p, "ell": ell, "tol": tol, "radii": radii,
        "basis": list(VOLUME_BASIS if kind == "volume" else LOG_BASIS),
    }


def ladder_warmup(seed):
    """Fixed-size ladder used as the set-up op, so set-up cost does not
    depend on which stratum the seed happens to start with."""
    rng = _rng("ladder-warmup", seed, 0)
    p = [rng.uniform(0.1, 0.5) * c for c in _direction(rng)]
    ell = sum(c * c for c in p) + rng.uniform(0.5, 1.5)
    radii = [10.0 * 100.0 ** (k / 7) for k in range(8)]
    return {"kind": "shifted", "p": p, "ell": ell, "tol": 1e-8,
            "radii": radii, "basis": list(LOG_BASIS)}


def _gauss_legendre_grid(n, kmin, kmax):
    x, w = np.polynomial.legendre.leggauss(n)
    half = 0.5 * (kmax - kmin)
    return [float(v) for v in half * (x + 1.0) + kmin], [float(v) for v in half * w]


def _sub_interval(u, lo, hi, part, parts):
    """The point at fraction u of sub-interval ``part`` of ``parts`` equal
    pieces of [lo, hi]."""
    width = (hi - lo) / parts
    return lo + (part + u) * width


def kernel_op(seed, i):
    """Either apply_momentum_operator on a Gauss-Legendre grid (every third
    op) or an s1 table (the others).

    Two cheap s1 tables per apply put the median latency inside the s1
    distribution instead of in the gap between the two kinds of op, where it
    would jump.  The parameters that set the cost of a call are not drawn but
    step through their ranges with a per-kind counter k: the grid size n
    through 10..40 and the table length through 20..60 with strides coprime
    to their ranges, the number of Yukawa terms through 1..3, l through
    0..4, each term's beta through the thirds of [0.5, 5] and the grid's upper
    end through the halves of [2, 8].  Runs of different seeds therefore do
    the same mix of work, and its latencies spread smoothly instead of in
    clusters.  The betas, grid ends and s1 momentum floor inside those
    strata come from even sequences per kind of op.

    Apply grids start at k >= 0.5: with l = 4, beta = 0.5 and momenta near
    0.05 every kernel pair exhausts segment_integrate's evaluation budget
    (54 s for one n = 20 call), which no timed loop can hold.  s1 tables keep
    momenta down to 0.05, where the tiny Yukawa terms lose relative accuracy
    to the quadrature's absolute floor.
    """
    apply = i % 3 == 0
    k = i // 3 if apply else 2 * (i // 3) + i % 3 - 1
    rng = _rng("kernel", seed, i)
    kind = "kernel-apply" if apply else "kernel-s1"

    def even(name):
        return _even(kind, seed, name, k)

    terms = 1 + k % 3
    op = {
        # Every fifth op is pure Yukawa (z = 0), the others carry a Coulomb tail.
        "z": 0.0 if i % 5 == 0 else rng.uniform(-2.0, 2.0),
        "e": rng.uniform(0.1, 1.0),
        "ell": k % 5,
        "measure": [[_sub_interval(even(f"beta{t}"), 0.5, 5.0, (k + t) % 3, 3),
                     rng.choice((-1, 1)) * rng.uniform(0.1, 1.0)] for t in range(terms)],
    }
    kmax = _sub_interval(even("kmax"), 2.0, 8.0, k % 2, 2)
    if apply:
        n = 10 + (13 * k) % 31
        nodes, weights = _gauss_legendre_grid(n, 0.5 + 0.5 * even("k0"), kmax)
        op.update(op="apply", nodes=nodes, weights=weights,
                  f_re=[rng.uniform(-1.0, 1.0) for _ in range(n)],
                  f_im=[rng.uniform(-1.0, 1.0) for _ in range(n)],
                  tol=KERNEL_APPLY_TOL)
    else:
        count = 20 + (11 * k) % 41
        kmin = 0.05 * 10.0 ** even("kmin")
        ks = [kmin * (kmax / kmin) ** (j / (count - 1)) for j in range(count)]
        op.update(op="s1", ks=ks, tol=KERNEL_S1_TOL)
    return op


def kernel_warmup(seed):
    rng = _rng("kernel-warmup", seed, 0)
    op = {"z": rng.uniform(-2.0, 2.0), "e": rng.uniform(0.1, 1.0), "ell": 2,
          "measure": [[rng.uniform(1.0, 3.0), rng.uniform(0.1, 1.0)]]}
    nodes, weights = _gauss_legendre_grid(12, 0.5, 4.0)
    op.update(op="apply", nodes=nodes, weights=weights,
              f_re=[1.0] * 12, f_im=[0.0] * 12, tol=KERNEL_APPLY_TOL)
    return op


# The README's command lines, verbatim.  They run in the worker's scratch
# directory, so "out/" and "series.json" are relative to it.
README_ARGV = (
    "spectral --q 1,2,3 --m 4 --out out/",
    "ladder --integrand shifted --p 0.3,0,0,0 --ell 1.09 "
    "--lmin 10 --lmax 1000 --points 8 --out out/",
    "fit --infile out/ladder.csv --threshold 1e-6 --out out/",
    "regularize --infile series.json --lambdas 100,1000,10000 --out out/",
    "example --id electron --p 1,0,0,0 --m 1 --cross-check --out out/",
    "example --id photon --p2 1.0 --m 1 --out out/",
    "example --id vertex --mu 1 --photon-mass 0.001 --cutoff 1000 --out out/",
    "coulomb --z 1 --k-ref 2 --out out/",
)


def _expansion_record(terms):
    """Scalar ultraviolet expansion record as docs/formats.md specifies it;
    terms maps (power string, logpower) to a complex coefficient."""
    return {
        "schema_version": 1, "kind": "expansion", "regulator": "ultraviolet",
        "dim": 1,
        "terms": [{"power": pw, "logpower": lp, "re": [[c.real]], "im": [[c.imag]]}
                  for (pw, lp), c in terms.items()],
    }


def series_document(rng, orders):
    """Coupling series whose divergent (log) coefficients are purely
    imaginary, so that it is admissible."""
    coeffs = []
    for m in range(orders):
        terms = {("0", 0): complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5)),
                 ("-1", 0): complex(rng.uniform(-0.5, 0.5), 0.0)}
        if m > 0:
            terms[("0", 1)] = complex(0.0, rng.uniform(-0.1, 0.1))
        coeffs.append(_expansion_record(terms))
    return {"coupling": _round(_log_uniform(rng, 1e-4, 1e-2)), "coefficients": coeffs}


def _vec(values):
    return ",".join(repr(_round(v)) for v in values)


def cli_cycle(seed):
    """The ordered list of CLI ops one cycle runs: the README invocations
    first, then seeded variants covering every subcommand.  Each entry is
    {"argv": [...], "files": {relative path: JSON document}}."""
    rng = random.Random(f"cli:{seed}")
    ops = []
    readme_series = {"coupling": 1e-4, "coefficients": [
        _expansion_record({("0", 0): 0.2 + 0j, ("-1", 0): 0.05 + 0j}),
        _expansion_record({("0", 1): 0.05j, ("0", 0): 0.11 + 0j, ("-1", 0): 0.4 + 0j}),
        _expansion_record({("0", 1): 0.02j, ("0", 0): -0.3 + 0j}),
    ]}
    for line in README_ARGV:
        files = {"series.json": readme_series} if line.startswith("regularize") else {}
        ops.append({"argv": line.split(), "files": files})

    def add(k, argv, files=None):
        ops.append({"argv": argv + ["--out", f"v{k:02d}/"], "files": files or {}})

    k = 0
    for q in ([rng.uniform(-3, 3) for _ in range(3)],
              [rng.uniform(-3, 3) for _ in range(3)], [0.0, 0.0, 0.0]):
        add(k, ["spectral", f"--q={_vec(q)}", "--m", repr(_round(rng.uniform(0.1, 5.0)))])
        k += 1
    p_mag = rng.uniform(0.2, 1.2)
    p = [p_mag * c for c in _direction(rng)]
    add(k, ["ladder", "--integrand", "shifted", f"--p={_vec(p)}",
            "--ell", repr(_round(p_mag ** 2 + rng.uniform(0.5, 2.0))),
            "--lmin", "10", "--lmax", "1e5", "--points", "10", "--tol", "1e-8"])
    add(k, ["fit", "--infile", f"v{k:02d}/ladder.csv", "--basis", "ln,1,1/L,1/L^2",
            "--threshold", "1e-6"])
    k += 1
    for cross in (True, False):
        argv = ["example", "--id", "electron",
                f"--p={_vec([rng.uniform(-1.5, 1.5) for _ in range(4)])}",
                "--m", repr(_round(rng.uniform(0.5, 2.0)))]
        add(k, argv + (["--cross-check"] if cross else []))
        k += 1
    for p2 in (rng.uniform(0.5, 5.0), rng.uniform(0.001, 0.05)):
        add(k, ["example", "--id", "photon", "--p2", repr(_round(p2)), "--m", "1"])
        k += 1
    for mu in (1, 2, 3, 4):
        m = _round(rng.uniform(0.5, 2.0))
        add(k, ["example", "--id", "vertex", "--mu", str(mu),
                "--m", repr(m), "--photon-mass", repr(_round(m * rng.uniform(1e-4, 0.5))),
                "--cutoff", repr(_round(m * _log_uniform(rng, 10.0, 1e4)))])
        k += 1
    for orders in (2, 3):
        name = f"series_v{k:02d}.json"
        lams = sorted(_round(_log_uniform(rng, 10.0, 1e6)) for _ in range(4))
        add(k, ["regularize", "--infile", name, "--lambdas", _vec(lams)],
            {name: series_document(rng, orders)})
        k += 1
    for measure in (False, True):
        argv = ["coulomb", f"--z={_round(rng.uniform(-2.0, 2.0))!r}",
                "--ell", str(rng.randint(0, 4)),
                "--k-ref", repr(_round(rng.uniform(0.5, 3.0)))]
        if measure:
            terms = [f"{_round(rng.uniform(0.5, 5.0))!r}:{_round(rng.uniform(0.1, 1.0))!r}"
                     for _ in range(2)]
            argv += ["--measure", ",".join(terms)]
        add(k, argv)
        k += 1
    return ops


def op(workload, seed, i):
    """Input of op i (i >= 0) of a workload."""
    if workload == "ladder":
        return ladder_op(seed, i)
    if workload == "kernel":
        return kernel_op(seed, i)
    if workload == "cli":
        cycle = cli_cycle(seed)
        return cycle[i % len(cycle)]
    raise ValueError(f"unknown workload {workload!r}")


def warmup(workload, seed):
    """The set-up op that runs before measuring starts."""
    if workload == "ladder":
        return ladder_warmup(seed)
    if workload == "kernel":
        return kernel_warmup(seed)
    return op("cli", seed, 0)

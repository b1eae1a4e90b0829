"""Command-line driver.

Subcommands cover the main library surfaces: spectral data of the free Dirac
Hamiltonian, cutoff ladders of ball integrals, divergence-signature fits,
series regularization, the worked amplitude examples, and the Coulomb kernel
tables.  Outputs are plain JSON and CSV files plus two-column plot data with a
gnuplot stub; identical invocations produce byte-identical files (floats are
written with repr, JSON keys are sorted, nothing records time or environment).

Exit codes: 0 success, 2 argument or config-file errors, 3 domain errors,
4 non-convergence (partial results are still written).  Errors are reported
as one JSON object on stdout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import coulomb as coulomb_mod
from . import qed
from .expansions import (
    AsymptoticExpansion,
    CouplingSeries,
    deviation_factor,
    regularize_term,
    series_factor,
)
from .dirac import eigensystem, hamiltonian
from .fitting import (
    DEFAULT_BASIS,
    detect_signature,
    fit,
    parse_basis,
    read_samples_csv,
    write_samples_csv,
)
from .quadrature import (
    cutoff_ladder,
    shifted_component_integrand,
    shifted_denominator_integrand,
    unit_integrand,
)

SCHEMA_VERSION = 1


class ConfigError(ValueError):
    pass


class NonConvergenceError(RuntimeError):
    pass


def _float_list(text):
    try:
        return [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad number list {text!r}: {exc}")


def _four_vector(text):
    vals = _float_list(text)
    if len(vals) != 4:
        raise argparse.ArgumentTypeError(
            f"expected 4 comma-separated components, got {len(vals)}")
    return vals


def _three_vector(text):
    vals = _float_list(text)
    if len(vals) != 3:
        raise argparse.ArgumentTypeError(
            f"expected 3 comma-separated components, got {len(vals)}")
    return vals


def _measure_pairs(text):
    pairs = []
    for tok in text.split(","):
        tok = tok.strip()
        if not tok:
            continue
        if ":" not in tok:
            raise argparse.ArgumentTypeError(
                f"measure term {tok!r} must look like beta:weight")
        b, w = tok.split(":", 1)
        try:
            pairs.append((float(b), float(w)))
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"bad measure term {tok!r}: {exc}")
    return pairs


def parse_config_file(path):
    """key = value lines; blank lines and # comments ignored."""
    out = {}
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}")
    for i, raw in enumerate(lines, 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{i}: expected 'key = value', got {line!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        if not key:
            raise ConfigError(f"{path}:{i}: empty key")
        out[key] = value.strip()
    return out


def _inject_config(argv):
    """Expand --config FILE into subcommand flags placed right after the
    subcommand name, so explicit flags still win."""
    if not argv or argv[0].startswith("-"):
        return argv
    path = None
    rest = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok == "--config":
            if i + 1 >= len(argv):
                raise ConfigError("--config needs a file path")
            path = argv[i + 1]
            i += 2
            continue
        if tok.startswith("--config="):
            path = tok.split("=", 1)[1]
            i += 1
            continue
        rest.append(tok)
        i += 1
    if path is None:
        return argv
    injected = []
    for key, value in parse_config_file(path).items():
        flag = "--" + key.replace("_", "-")
        if value.lower() in ("true", "false"):
            if value.lower() == "true":
                injected.append(flag)
        else:
            injected.extend([flag, value])
    return rest[:1] + injected + rest[1:]


def _emit_error(kind, message):
    obj = {
        "schema_version": SCHEMA_VERSION,
        "kind": "error",
        "error": {"type": kind, "message": str(message)},
    }
    print(json.dumps(obj, sort_keys=True))


def _out_path(args, name):
    os.makedirs(args.out, exist_ok=True)
    return os.path.join(args.out, name)


def _write_json(path, obj):
    with open(path, "w") as fh:
        fh.write(json.dumps(obj, indent=2, sort_keys=True) + "\n")
    print(f"wrote: {path}")


def _write_plot(args, stem, xs, ys):
    """Two-column (x, re) and (x, im) data files plus a gnuplot stub."""
    ys = np.asarray(ys, dtype=complex)
    for suffix, comp in (("_re", ys.real), ("_im", ys.imag)):
        path = _out_path(args, stem + suffix + ".dat")
        with open(path, "w") as fh:
            for x, y in zip(xs, comp):
                fh.write(f"{float(x)!r} {float(y)!r}\n")
        print(f"wrote: {path}")
    gp = _out_path(args, stem + ".gp")
    with open(gp, "w") as fh:
        fh.write(
            "# gnuplot stub\n"
            "set logscale x\n"
            f"plot '{stem}_re.dat' using 1:2 with linespoints title 're', \\\n"
            f"     '{stem}_im.dat' using 1:2 with linespoints title 'im'\n"
            "pause -1\n")
    print(f"wrote: {gp}")


def cmd_spectral(args):
    q = np.array(args.q)
    h = hamiltonian(q, args.m)
    es = eigensystem(q, args.m)
    residual = float(max(
        np.linalg.norm(h @ es.eigenvectors[:, j]
                       - es.eigenvalues[j] * es.eigenvectors[:, j])
        for j in range(4)))
    energy_sq = args.m ** 2 + float(q @ q)
    hsq_defect = float(np.linalg.norm(h @ h - energy_sq * np.eye(4)))
    obj = {
        "schema_version": SCHEMA_VERSION,
        "kind": "spectral",
        "q": list(args.q),
        "m": args.m,
        "degenerate": es.degenerate,
        "eigenvalues": [float(v) for v in es.eigenvalues],
        "eigenvectors": {"re": es.eigenvectors.real.tolist(),
                         "im": es.eigenvectors.imag.tolist()},
        "negative_subspace": {"re": es.m1.real.tolist(),
                              "im": es.m1.imag.tolist()},
        "positive_subspace": {"re": es.m2.real.tolist(),
                              "im": es.m2.imag.tolist()},
        "eigen_residual": residual,
        "h_squared_defect": hsq_defect,
    }
    _write_json(_out_path(args, f"{args.prefix}.json"), obj)
    return 0


_INTEGRANDS = ("volume", "shifted", "component")


def _build_integrand(kind, p, ell):
    if kind == "volume":
        return unit_integrand()
    if kind == "shifted":
        return shifted_denominator_integrand(p, ell)
    if kind == "component":
        return shifted_component_integrand(p, ell)
    raise ValueError(f"unknown integrand {kind!r}; known: {_INTEGRANDS}")


def cmd_ladder(args):
    if args.points < 1:
        raise ValueError(f"need at least one rung, got {args.points}")
    if not (0 < args.lmin < args.lmax < math.inf):
        raise ValueError(f"need 0 < lmin < lmax < inf, "
                         f"got lmin={args.lmin}, lmax={args.lmax}")
    integrand = _build_integrand(args.integrand, args.p, args.ell)
    radii = np.geomspace(args.lmin, args.lmax, args.points)
    samples = cutoff_ladder(integrand, radii, tol=args.tol,
                            max_evals=args.max_evals)
    generator = {
        "command": "ladder",
        "integrand": args.integrand,
        "p": list(args.p),
        "ell": args.ell,
        "tol": args.tol,
        "lmin": args.lmin,
        "lmax": args.lmax,
        "points": args.points,
    }
    csv_path = _out_path(args, f"{args.prefix}.csv")
    write_samples_csv(csv_path, samples, generator=generator)
    print(f"wrote: {csv_path}")
    _write_plot(args, args.prefix, samples.lambdas, samples.values)
    if not samples.all_converged:
        bad = [float(l) for l, ok in zip(samples.lambdas, samples.converged)
               if not ok]
        raise NonConvergenceError(
            f"ladder rungs did not converge at radii {bad}; "
            f"partial results written to {csv_path}")
    return 0


def cmd_fit(args):
    samples, generator = read_samples_csv(args.infile)
    basis = parse_basis(args.basis) if args.basis else DEFAULT_BASIS
    result = fit(samples, basis)
    obj = {
        "schema_version": SCHEMA_VERSION,
        "kind": "fit_report",
        "input": os.path.basename(args.infile),
        "generator": generator,
        "fit": result.to_json_dict(),
    }
    if args.threshold is not None:
        signature = detect_signature(samples, threshold=args.threshold,
                                     basis=basis)
        obj["signature"] = signature.to_json_dict()
    _write_json(_out_path(args, f"{args.prefix}.json"), obj)
    return 0


def cmd_regularize(args):
    with open(args.infile) as fh:
        data = json.load(fh)
    try:
        coupling = data["coupling"]
        coeff_dicts = data["coefficients"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"series file {args.infile} is missing a field: {exc}")
    coefficients = [AsymptoticExpansion.from_json_dict(d) for d in coeff_dicts]
    series = CouplingSeries(coupling, coefficients)
    lambdas = args.lambdas
    if not lambdas:
        raise ValueError("need at least one regulator value")
    if any(l <= 0 for l in lambdas):
        raise ValueError("regulator values must be positive")
    factor = series_factor(series)
    evaluations = []
    for lam in lambdas:
        regular = [regularize_term(a, lam) for a in series.coefficients]
        raw = series.value_at(lam)
        tilde = 1.0 + sum((series.coupling ** m) * r
                          for m, r in enumerate(regular, start=1))
        recon = factor.evaluate(lam) * tilde
        evaluations.append({
            "lambda": lam,
            "raw": {"re": float(np.real(raw)), "im": float(np.imag(raw))},
            "regular_terms": [
                {"re": float(np.real(r)), "im": float(np.imag(r))}
                for r in regular
            ],
            "reconstruction_residual": float(abs(raw - recon)),
        })
    obj = {
        "schema_version": SCHEMA_VERSION,
        "kind": "regularize_report",
        "coupling": coupling,
        "factor": factor.to_json_dict(),
        "evaluations": evaluations,
    }
    _write_json(_out_path(args, f"{args.prefix}.json"), obj)
    return 0


def cmd_example(args):
    ident = qed.resolve_example(args.id)
    arguments = {
        qed.ELECTRON_EXAMPLE_ID: {"p": np.array(args.p), "m": args.m, "e": args.e,
                                  "cross_check_ladder": args.cross_check},
        qed.PHOTON_EXAMPLE_ID: {"p_sq": args.p2, "m": args.m, "e": args.e},
        qed.VERTEX_EXAMPLE_ID: {"m": args.m, "e": args.e,
                                "photon_mass": args.photon_mass,
                                "cutoff": args.cutoff, "mu": args.mu},
    }
    report = qed.example_report(ident, **arguments[ident])
    _write_json(_out_path(args, f"example_{report.example_id}.json"),
                report.to_json_dict())
    return 0


def cmd_coulomb(args):
    spec = coulomb_mod.CoulombPotentialSpec(z=args.z, e=args.e, ell=args.ell,
                                            measure=tuple(args.measure))
    if not (0 < args.kmin < args.kmax < math.inf):
        raise ValueError(f"need 0 < kmin < kmax < inf, "
                         f"got kmin={args.kmin}, kmax={args.kmax}")
    if args.points < 2:
        raise ValueError(f"need at least two grid points, got {args.points}")
    ks = np.geomspace(args.kmin, args.kmax, args.points)
    values = [coulomb_mod.s1(spec, float(k)) for k in ks]
    csv_path = _out_path(args, f"{args.prefix}_s1.csv")
    with open(csv_path, "w") as fh:
        fh.write("k,l,re,im\n")
        for k, v in zip(ks, values):
            fh.write(f"{float(k)!r},{spec.ell},"
                     f"{float(v.real)!r},{float(v.imag)!r}\n")
    print(f"wrote: {csv_path}")
    _write_plot(args, f"{args.prefix}_s1", ks, values)

    t_values = np.array(args.t) if args.t else np.geomspace(10.0, 1e4, 7)
    tau_values = (np.array(args.tau) if args.tau
                  else -np.geomspace(10.0, 1e4, 7) * 1.5)
    expansion = coulomb_mod.coulomb_divergence_check(
        args.z, args.k_ref, t_values, tau_values)
    divergent = expansion.divergent_part()
    factor = None
    if divergent.terms:
        factor = deviation_factor(divergent)
    obj = {
        "schema_version": SCHEMA_VERSION,
        "kind": "coulomb_report",
        "z": args.z,
        "ell": spec.ell,
        "k_ref": args.k_ref,
        "phase_signature": expansion.to_json_dict(),
        "phase_factor": None if factor is None else factor.to_json_dict(),
    }
    _write_json(_out_path(args, f"{args.prefix}_phase.json"), obj)
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="devfactor",
        description="Cutoff-divergence toolkit: Dirac spectra, ball-cutoff "
                    "ladders, divergence fits, deviation factors, worked "
                    "amplitude examples, and Coulomb kernels.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, prefix):
        p.add_argument("--config", help="key = value defaults file")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--prefix", default=prefix, help="output file stem")

    p = sub.add_parser("spectral", help="free Dirac eigensystem at one momentum")
    common(p, "spectral")
    p.add_argument("--q", type=_three_vector, required=True,
                   help="3-momentum, comma separated")
    p.add_argument("--m", type=float, required=True, help="mass")
    p.set_defaults(func=cmd_spectral)

    p = sub.add_parser("ladder", help="ball-cutoff integral ladder to CSV")
    common(p, "ladder")
    p.add_argument("--integrand", choices=_INTEGRANDS, default="shifted")
    p.add_argument("--p", type=_four_vector, default=[0.0, 0.0, 0.0, 0.0],
                   help="denominator shift 4-vector")
    p.add_argument("--ell", type=float, default=1.0,
                   help="denominator constant")
    p.add_argument("--lmin", type=float, default=10.0)
    p.add_argument("--lmax", type=float, default=1000.0)
    p.add_argument("--points", type=int, default=8)
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--max-evals", type=int, default=1_000_000)
    p.set_defaults(func=cmd_ladder)

    p = sub.add_parser("fit", help="fit a ladder CSV against cutoff basis functions")
    common(p, "fit")
    p.add_argument("--infile", required=True, help="ladder CSV path")
    p.add_argument("--basis", default=None,
                   help="comma-separated tokens, e.g. ln,1,1/L")
    p.add_argument("--threshold", type=float, default=None,
                   help="also emit the thresholded divergence signature")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("regularize",
                       help="split a coupling series into factor and regular part")
    common(p, "regularize")
    p.add_argument("--infile", required=True,
                   help="JSON with coupling and coefficient expansions")
    p.add_argument("--lambdas", type=_float_list, default=[1e2, 1e3, 1e4],
                   help="regulator values to evaluate at")
    p.set_defaults(func=cmd_regularize)

    p = sub.add_parser("example", help="worked amplitude examples")
    common(p, "example")
    p.add_argument("--id", required=True,
                   help="5.1/electron, 5.3/photon, 5.6/vertex")
    p.add_argument("--p", type=_four_vector, default=[1.0, 0.0, 0.0, 0.0],
                   help="electron: external momentum")
    p.add_argument("--p2", type=float, default=1.0,
                   help="photon: squared momentum")
    p.add_argument("--m", type=float, default=1.0, help="mass")
    p.add_argument("--e", type=float, default=0.30282212,
                   help="coupling constant")
    p.add_argument("--photon-mass", type=float, default=0.001,
                   help="vertex: infrared regulator mass")
    p.add_argument("--cutoff", type=float, default=1000.0,
                   help="vertex: cutoff for the combined factor checks")
    p.add_argument("--mu", type=int, default=1, help="vertex: matrix index 1..4")
    p.add_argument("--cross-check", action="store_true",
                   help="electron: run the ladder coefficient cross-checks")
    p.set_defaults(func=cmd_example)

    p = sub.add_parser("coulomb", help="Coulomb kernel tables and phase signature")
    common(p, "coulomb")
    p.add_argument("--z", type=float, default=1.0, help="Coulomb strength")
    p.add_argument("--e", type=float, default=1.0, help="coupling")
    p.add_argument("--ell", type=int, default=0, help="partial wave")
    p.add_argument("--measure", type=_measure_pairs, default=[],
                   help="Yukawa terms beta:weight, comma separated")
    p.add_argument("--kmin", type=float, default=0.5)
    p.add_argument("--kmax", type=float, default=8.0)
    p.add_argument("--points", type=int, default=9)
    p.add_argument("--k-ref", type=float, default=1.0,
                   help="momentum for the phase signature")
    p.add_argument("--t", type=_float_list, default=None,
                   help="outgoing times for the phase signature")
    p.add_argument("--tau", type=_float_list, default=None,
                   help="incoming (negative) times for the phase signature")
    p.set_defaults(func=cmd_coulomb)

    return parser


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        argv = _inject_config(argv)
    except ConfigError as exc:
        _emit_error("config", exc)
        return 2
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return args.func(args)
    except NonConvergenceError as exc:
        _emit_error("non-convergence", exc)
        return 4
    except (ValueError, OSError) as exc:
        _emit_error("domain", exc)
        return 3


if __name__ == "__main__":
    sys.exit(main())

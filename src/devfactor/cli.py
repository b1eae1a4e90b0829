"""Command-line driver.

Subcommands cover the main library surfaces: spectral data of the free Dirac
Hamiltonian, cutoff ladders of ball integrals, divergence-signature fits,
series regularization, the worked amplitude examples, and the Coulomb kernel
tables.  Outputs are plain JSON and CSV files plus two-column plot data with a
gnuplot stub; identical invocations produce byte-identical files (floats are
written with repr, JSON keys are sorted, nothing records time or environment).

Exit codes: 0 success, 2 argument or config-file errors, 3 domain errors,
4 non-convergence (partial results are still written).  Errors are reported
as one JSON object on stdout.  A handler computes and formats everything
before _write opens its first file, so an exit 2 or 3 writes nothing; a
result that overflows to a NaN or infinity is a domain error, and every
number written is finite except the documented inf error of a starved rung.
"""

from __future__ import annotations

import argparse
import functools
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
    regularize_series,
)
from .dirac import eigensystem, hamiltonian
from .fitting import (
    DEFAULT_BASIS,
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


def _vector(length):
    """Parser of a comma-separated vector with the given number of components."""
    def parse(text):
        vals = _float_list(text)
        if len(vals) != length:
            raise argparse.ArgumentTypeError(
                f"expected {length} comma-separated components, got {len(vals)}")
        return vals
    return parse


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


def _finite(x):
    """repr of one number of a CSV or .dat file, refused unless finite."""
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"a result is not finite ({x}); nothing was written")
    return repr(x)


def _json(obj):
    """JSON text of a report; a NaN or infinite number raises ValueError
    naming the field that holds it."""
    try:
        return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"
    except ValueError:
        field = _nonfinite_field(obj, "")
        if field is None:
            raise
        raise ValueError(f"result field {field[0] or '(top level)'} is not "
                         f"finite ({field[1]}); nothing was written") from None


def _nonfinite_field(obj, path):
    """(path, value) of the first NaN or infinity in a JSON document, in
    key order, or None."""
    if isinstance(obj, float):
        return None if math.isfinite(obj) else (path, obj)
    if isinstance(obj, dict):
        items = ((f"{path}.{k}" if path else str(k), v)
                 for k, v in sorted(obj.items()))
    elif isinstance(obj, (list, tuple)):
        items = ((f"{path}[{i}]", v) for i, v in enumerate(obj))
    else:
        return None
    return next(filter(None, (_nonfinite_field(v, p) for p, v in items)), None)


def _complex_json(value):
    """{"re", "im"} of a complex number as floats, of a matrix as nested lists."""
    value = np.asarray(value)
    return {"re": value.real.tolist(), "im": value.imag.tolist()}


def _plot(stem, xs, ys):
    """Two-column (x, re) and (x, im) data files plus a gnuplot stub."""
    ys = np.asarray(ys, dtype=complex)
    files = {f"{stem}{suffix}.dat": "".join(f"{_finite(x)} {_finite(y)}\n"
                                            for x, y in zip(xs, comp))
             for suffix, comp in (("_re", ys.real), ("_im", ys.imag))}
    files[f"{stem}.gp"] = (
        "# gnuplot stub\n"
        "set logscale x\n"
        f"plot '{stem}_re.dat' using 1:2 with linespoints title 're', \\\n"
        f"     '{stem}_im.dat' using 1:2 with linespoints title 'im'\n"
        "pause -1\n")
    return files


def _write(args, files):
    """Create --out and write the files, {name: text}, in order.  Handlers
    call this once, after every text is formatted, so a refused result
    leaves no file behind.  A function in place of a text writes its file
    itself, given the path."""
    os.makedirs(args.out, exist_ok=True)
    for name, text in files.items():
        path = os.path.join(args.out, name)
        if callable(text):
            text(path)
        else:
            with open(path, "w") as fh:
                fh.write(text)
        print(f"wrote: {path}")


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
        "eigenvectors": _complex_json(es.eigenvectors),
        "negative_subspace": _complex_json(es.m1),
        "positive_subspace": _complex_json(es.m2),
        "eigen_residual": residual,
        "h_squared_defect": hsq_defect,
    }
    _write(args, {f"{args.prefix}.json": _json(obj)})
    return 0


# ladder integrands by name, each built from --p and --ell
_INTEGRANDS = {"volume": lambda p, ell: unit_integrand(),
               "shifted": shifted_denominator_integrand,
               "component": shifted_component_integrand}


def cmd_ladder(args):
    if args.points < 1:
        raise ValueError(f"need at least one rung, got {args.points}")
    if not (0 < args.lmin < args.lmax):
        raise ValueError(f"need 0 < lmin < lmax, "
                         f"got lmin={args.lmin}, lmax={args.lmax}")
    integrand = _INTEGRANDS[args.integrand](args.p, args.ell)
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
    # the CSV keeps a starved rung's documented inf error; the plot files
    # carry its cutoffs and values, so formatting them refuses a non-finite one
    csv_name = f"{args.prefix}.csv"
    files = {csv_name: lambda path: write_samples_csv(path, samples,
                                                      generator=generator)}
    files.update(_plot(args.prefix, samples.lambdas, samples.values))
    _write(args, files)
    if not samples.all_converged:
        bad = [float(l) for l, ok in zip(samples.lambdas, samples.converged)
               if not ok]
        raise NonConvergenceError(
            f"ladder rungs did not converge at radii {bad}; "
            f"partial results written to {os.path.join(args.out, csv_name)}")
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
        obj["signature"] = result.signature(args.threshold).to_json_dict()
    _write(args, {f"{args.prefix}.json": _json(obj)})
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
    if not all(l > 0 for l in lambdas):
        raise ValueError("regulator values must be positive")
    evaluations = []
    for lam in lambdas:
        # the factor does not depend on lam
        factor, regular = regularize_series(series, lam)
        raw = series.value_at(lam)
        tilde = np.eye(series.dim) + sum(
            (series.coupling ** m) * np.atleast_2d(r)
            for m, r in enumerate(regular, start=1))
        recon = np.atleast_2d(factor.evaluate(lam)) @ tilde
        evaluations.append({
            "lambda": lam,
            "raw": _complex_json(raw),
            "regular_terms": [_complex_json(r) for r in regular],
            # Frobenius norm by hypot, which squares nothing and so cannot
            # overflow where the entries do not
            "reconstruction_residual": math.hypot(
                *map(abs, (np.atleast_2d(raw) - recon).ravel().tolist())),
        })
    obj = {
        "schema_version": SCHEMA_VERSION,
        "kind": "regularize_report",
        "coupling": coupling,
        "factor": factor.to_json_dict(),
        "evaluations": evaluations,
    }
    _write(args, {f"{args.prefix}.json": _json(obj)})
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
    _write(args, {f"example_{report.example_id}.json":
                  _json(report.to_json_dict())})
    return 0


def cmd_coulomb(args):
    spec = coulomb_mod.CoulombPotentialSpec(z=args.z, ell=args.ell,
                                            measure=tuple(args.measure))
    if not (0 < args.kmin < args.kmax):
        raise ValueError(f"need 0 < kmin < kmax, "
                         f"got kmin={args.kmin}, kmax={args.kmax}")
    if args.points < 2:
        raise ValueError(f"need at least two grid points, got {args.points}")
    ks = np.geomspace(args.kmin, args.kmax, args.points)
    values = [coulomb_mod.s1(spec, float(k)) for k in ks]
    files = {f"{args.prefix}_s1.csv": "k,l,re,im\n" + "".join(
        f"{_finite(k)},{spec.ell},{_finite(v.real)},{_finite(v.imag)}\n"
        for k, v in zip(ks, values))}
    files.update(_plot(f"{args.prefix}_s1", ks, values))
    expansion = coulomb_mod.coulomb_divergence_check(args.z, args.k_ref)
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
    files[f"{args.prefix}_phase.json"] = _json(obj)
    _write(args, files)
    return 0


@functools.cache
def build_parser():
    """The argument parser, built once per process and shared by every
    main() call; its list defaults are tuples so no call can change them."""
    parser = argparse.ArgumentParser(
        prog="devfactor",
        description="Cutoff-divergence toolkit: Dirac spectra, ball-cutoff "
                    "ladders, divergence fits, deviation factors, worked "
                    "amplitude examples, and Coulomb kernels.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, prefix):
        # flags are spelled in full, so no prefix silently means another flag
        # (coulomb --e would otherwise read as --ell)
        p.allow_abbrev = False
        p.add_argument("--config", help="key = value defaults file")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--prefix", default=prefix, help="output file stem")

    p = sub.add_parser("spectral", help="free Dirac eigensystem at one momentum")
    common(p, "spectral")
    p.add_argument("--q", type=_vector(3), required=True,
                   help="3-momentum, comma separated")
    p.add_argument("--m", type=float, required=True, help="mass")

    p = sub.add_parser("ladder", help="ball-cutoff integral ladder to CSV")
    common(p, "ladder")
    p.add_argument("--integrand", choices=_INTEGRANDS, default="shifted")
    p.add_argument("--p", type=_vector(4), default=(0.0, 0.0, 0.0, 0.0),
                   help="denominator shift 4-vector")
    p.add_argument("--ell", type=float, default=1.0,
                   help="denominator constant")
    p.add_argument("--lmin", type=float, default=10.0)
    p.add_argument("--lmax", type=float, default=1000.0)
    p.add_argument("--points", type=int, default=8)
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--max-evals", type=int, default=1_000_000)

    p = sub.add_parser("fit", help="fit a ladder CSV against cutoff basis functions")
    common(p, "fit")
    p.add_argument("--infile", required=True, help="ladder CSV path")
    p.add_argument("--basis", default=None,
                   help="comma-separated tokens, e.g. ln,1,1/L")
    p.add_argument("--threshold", type=float, default=None,
                   help="also emit the thresholded divergence signature")

    p = sub.add_parser("regularize",
                       help="split a coupling series into factor and regular part")
    common(p, "regularize")
    p.add_argument("--infile", required=True,
                   help="JSON with coupling and coefficient expansions")
    p.add_argument("--lambdas", type=_float_list, default=(1e2, 1e3, 1e4),
                   help="regulator values to evaluate at")

    p = sub.add_parser("example", help="worked amplitude examples")
    common(p, "example")
    p.add_argument("--id", required=True,
                   help="5.1/electron, 5.3/photon, 5.6/vertex")
    p.add_argument("--p", type=_vector(4), default=(1.0, 0.0, 0.0, 0.0),
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

    p = sub.add_parser("coulomb", help="Coulomb kernel tables and phase signature")
    common(p, "coulomb")
    p.add_argument("--z", type=float, default=1.0, help="Coulomb strength")
    p.add_argument("--ell", type=int, default=0, help="partial wave")
    p.add_argument("--measure", type=_measure_pairs, default=(),
                   help="Yukawa terms beta:weight, comma separated")
    p.add_argument("--kmin", type=float, default=0.5)
    p.add_argument("--kmax", type=float, default=8.0)
    p.add_argument("--points", type=int, default=9)
    p.add_argument("--k-ref", type=float, default=1.0,
                   help="momentum for the phase signature")

    return parser


def _check_finite(args):
    """Refuse a non-finite number in any parsed flag (scalar, vector, list or
    measure pairs) before a handler computes or writes anything."""
    for dest, value in vars(args).items():
        if isinstance(value, (float, list, tuple)) and not np.isfinite(value).all():
            flag = "--" + dest.replace("_", "-")
            raise ValueError(f"{flag} must be finite, got {value}")


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        argv = _inject_config(argv)
    except ConfigError as exc:
        _emit_error("config", exc)
        return 2
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        _check_finite(args)
        # an overflow becomes a non-finite result, refused by the writer
        with np.errstate(all="ignore"):
            # looked up at call time, so a rebound cmd_* is the one that runs
            return globals()[f"cmd_{args.command}"](args)
    except NonConvergenceError as exc:
        _emit_error("non-convergence", exc)
        return 4
    except (ValueError, OSError, ArithmeticError) as exc:
        _emit_error("domain", exc)
        return 3


if __name__ == "__main__":
    sys.exit(main())

"""Checks of worker outputs against the oracles.

Each check returns a Verdict for one op:

- ``rel_err``: worst relative error of the op's checked values against the
  oracle (None when the op produced nothing checkable);
- ``false_conv``: the op reported success, yet some value misses the oracle
  by more than the relative tolerance the op requested;
- ``wrong``: a reason string when the output breaks an invariant that holds
  exactly: a finite value, the count of values, eigenvalues, series values,
  a unimodular factor, an admissibility verdict, a documented exit code.
  Any wrong op makes the run incorrect; ``run.py`` adds byte-identical CLI
  outputs.

Quadrature accuracy is measured, not gated.  Ball integrals report
``converged=True`` far outside their tolerance: the default absolute floor
``1e-14 max(1, L)^4`` swamps ``tol * |I|`` at large cutoffs, where the
one-panel error estimate is off by up to 60%, and on rare smaller rungs the
estimate misses by tens of times the tolerance too.  The Yukawa quadratures
lose relative accuracy on tiny values to their absolute floor of 1e-15.
These known defects land in ``trusted_frac`` instead of refusing the run.
"""

import json
import math
import os
from dataclasses import dataclass

import numpy as np

import oracles

# Relative tolerance of values the CLI computes without a quadrature
# (eigenvalues, series values, the reconstruction residual).
EXACT_TOL = 1e-12
S1_CLI_TOL = 1e-12  # s1's default quad_tol, which the CLI uses


@dataclass
class Verdict:
    rel_err: float = None
    false_conv: bool = False
    wrong: str = None


def _finite(errors, what):
    if all(math.isfinite(e) for e in errors):
        return None
    return f"{what}: non-finite value"


def _exact(rel, what):
    if rel > 10 * EXACT_TOL:
        return f"{what} off by {rel:.3e} relative"
    return None


def ladder_errors(kind, p_mag, ell, radii, values):
    """Relative error of each rung against the closed-form ball integral."""
    errors = []
    for radius, value in zip(radii, values):
        exact = oracles.ball_integral(kind, p_mag, ell, radius)
        errors.append(float(abs(value - exact) / abs(exact)))
    return errors


def check_ladder(op, out, failed):
    if "values" not in out:
        return Verdict()
    p_mag = math.sqrt(sum(c * c for c in op["p"]))
    errors = ladder_errors(op["kind"], p_mag, op["ell"], op["radii"], out["values"])
    false_conv = any(ok and rel > op["tol"] for rel, ok in zip(errors, out["converged"]))
    wrong = (_finite(errors, f"{op['kind']} ladder")
             or _exact(abs(out["factor_modulus"] - 1.0), "deviation factor modulus"))
    return Verdict(max(errors), false_conv and not failed, wrong)


def check_kernel(op, out, failed):
    if "re" not in out:
        return Verdict()
    got = np.asarray(out["re"]) + 1j * np.asarray(out["im"])
    if op["op"] == "apply":
        want, scales = oracles.apply_operator(op)
    else:
        want, scales = oracles.s1_values(op["z"], op["ell"], op["measure"], op["ks"])
    if got.shape != want.shape:
        return Verdict(wrong=f"{op['op']}: expected {want.size} values, got {got.size}")
    errors = [float(e) for e in abs(got - want) / scales]
    rel = max(errors)
    return Verdict(rel, rel > op["tol"] and not failed, _finite(errors, op["op"]))


def _flags(argv):
    out = {}
    for k, tok in enumerate(argv):
        if tok.startswith("--") and "=" in tok:
            key, value = tok[2:].split("=", 1)
            out[key] = value
        elif tok.startswith("--"):
            nxt = argv[k + 1] if k + 1 < len(argv) else None
            out[tok[2:]] = nxt if nxt is not None and not nxt.startswith("--") else True
    return out


def _floats(text):
    return [float(t) for t in text.split(",") if t.strip()]


def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


def _written(files, scratch, suffix):
    return os.path.join(scratch, next(p for p in files if p.endswith(suffix)))


def _check_spectral(flags, files, scratch):
    report = _read_json(_written(files, scratch, ".json"))
    want = oracles.dirac_eigenvalues(_floats(flags["q"]), float(flags["m"]))
    got = sorted(report["eigenvalues"])
    rel = max(abs(g - w) for g, w in zip(got, want)) / abs(want[-1])
    return [rel], EXACT_TOL, _exact(rel, "eigenvalues")


def _check_ladder_csv(flags, files, scratch):
    """Rungs of a ladder CSV; the op exited 0, so every rung converged."""
    gen, rows = None, []
    with open(_written(files, scratch, ".csv")) as fh:
        for line in fh:
            line = line.strip()
            if line.startswith("# generator:"):
                gen = json.loads(line[len("# generator:"):])
            elif line and not line.startswith(("#", "lambda")):
                rows.append([float(v) for v in line.split(",")])
    p_mag = math.sqrt(sum(c * c for c in gen["p"]))
    errors = ladder_errors(gen["integrand"], p_mag, gen["ell"], [r[0] for r in rows],
                           [r[1] for r in rows])
    return errors, gen["tol"], _finite(errors, "ladder csv")


def _check_regularize(flags, files, scratch):
    report = _read_json(_written(files, scratch, ".json"))
    series = _read_json(os.path.join(scratch, flags["infile"]))
    errors = []
    for ev in report["evaluations"]:
        raw, regular, residual = oracles.series_values(series, ev["lambda"])
        got_raw = complex(ev["raw"]["re"], ev["raw"]["im"])
        errors.append(abs(got_raw - raw) / abs(raw))
        errors.append(abs(ev["reconstruction_residual"] - residual) / abs(raw))
        for term, want in zip(ev["regular_terms"], regular):
            errors.append(abs(complex(term["re"], term["im"]) - want) / max(abs(want), 1.0))
    return errors, EXACT_TOL, _exact(max(errors), "series values")


def _check_example(flags, files, scratch):
    report = _read_json(_written(files, scratch, ".json"))
    passed = report["admissibility"]["passed"]
    expect = not (flags["id"] in ("vertex", "5.6") and int(flags.get("mu", 1)) == 4)
    wrong = None
    if passed != expect or (report["factor"] is None) == expect:
        wrong = (f"admissibility {passed}, factor "
                 f"{'missing' if report['factor'] is None else 'built'}; "
                 f"expected {'admissible' if expect else 'inadmissible'}")
    return [], None, wrong


def _check_coulomb(flags, files, scratch):
    z = float(flags.get("z", 1.0))
    ell = int(flags.get("ell", 0))
    measure = []
    if "measure" in flags:
        measure = [tuple(float(v) for v in t.split(":")) for t in flags["measure"].split(",")]
    with open(_written(files, scratch, "_s1.csv")) as fh:
        rows = np.array([[float(v) for v in line.split(",")] for line in list(fh)[1:]])
    want, scales = oracles.s1_values(z, ell, measure, rows[:, 0])
    errors = [float(e) for e in abs(rows[:, 2] + 1j * rows[:, 3] - want) / scales]
    return errors, S1_CLI_TOL, _finite(errors, "s1 table")


_CLI_CHECKS = {
    "spectral": _check_spectral,
    "ladder": _check_ladder_csv,
    "regularize": _check_regularize,
    "example": _check_example,
    "coulomb": _check_coulomb,
}


def check_cli(op, out, failed, scratch):
    """Verdict on one CLI op from the files it wrote into ``scratch``.  Exit
    codes 3 and 4 are documented failures; any other non-zero code, or an
    exception escaping main, means the program broke its own contract."""
    argv = " ".join(op["argv"])
    if "code" not in out:
        return Verdict(wrong=f"{argv}: exception escaped devfactor.cli.main")
    if out["code"] not in (0, 3, 4):
        return Verdict(wrong=f"{argv}: unexpected exit code {out['code']}")
    command = op["argv"][0]
    if out["code"] != 0 or command not in _CLI_CHECKS:
        return Verdict()
    errors, tol, wrong = _CLI_CHECKS[command](_flags(op["argv"]), out["files"], scratch)
    rel = max(errors) if errors else None
    return Verdict(rel, rel is not None and rel > tol, f"{argv}: {wrong}" if wrong else None)

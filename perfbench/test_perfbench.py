"""Tests of the benchmark itself: oracles, input generation, checks, tracing.

Run from the repository root:

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

import json
import math
import os
import shutil
import subprocess
import sys

import mpmath as mp
import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import oracles  # noqa: E402
import reference  # noqa: E402
import workloads  # noqa: E402
from devfactor import coulomb, quadrature  # noqa: E402


def _sphere_average_quadrature(kind, p, ell, radius):
    """Radial mpmath quadrature of the closed-form 3-sphere averages."""
    p = mp.mpf(p)
    ell = mp.mpf(ell)

    def radial(r):
        a = r * r + ell
        b = 2 * p * r
        if kind == "component":
            d = mp.sqrt(a * a - b * b)
            # x / (A - B x)^2 = (A / (A - B x)^2 - 1 / (A - B x)) / B
            avg = mp.pi * ((a / d - 1) * a / b ** 2 - (a - d) / b ** 2) / b
            return 4 * mp.pi * r ** 4 * avg
        avg = mp.pi / (2 * a * a) if b == 0 else mp.pi * (a / mp.sqrt(a * a - b * b) - 1) / b ** 2
        return 4 * mp.pi * r ** 3 * avg

    cuts = [0] + [mp.mpf(10) ** k for k in range(-1, 9) if 10.0 ** k < radius] + [mp.mpf(radius)]
    with mp.workdps(60):
        return mp.quad(radial, cuts)


@pytest.mark.parametrize("kind,p,ell", [
    ("shifted", 0.3, 1.09), ("shifted", 0.0, 0.7), ("shifted", 1.4, 2.5),
    ("component", 0.3, 1.09), ("component", 0.05, 0.2), ("component", 1.2, 1.5),
])
@pytest.mark.parametrize("radius", [0.5, 30.0, 1e4, 1e8])
def test_ball_closed_forms_match_sphere_average_quadrature(kind, p, ell, radius):
    exact = oracles.ball_integral(kind, p, ell, radius)
    quad = _sphere_average_quadrature(kind, p, ell, radius)
    assert abs(exact - quad) <= 1e-20 * abs(exact)


@pytest.mark.parametrize("kind", ["shifted", "component", "volume", "callable"])
@pytest.mark.parametrize("radius", [1.0, 10.0, 100.0])
def test_ball_oracle_agrees_with_code_where_code_is_correct(kind, radius):
    p = np.array([0.3, -0.4, 0.1, 0.2])
    ell = float(p @ p) + 0.8
    kwargs = {}
    if kind == "volume":
        f = quadrature.unit_integrand()
    elif kind == "shifted":
        f = quadrature.shifted_denominator_integrand(p, ell)
    elif kind == "component":
        f = quadrature.shifted_component_integrand(p, ell)
    else:
        f = quadrature.shifted_denominator_integrand(p, ell).__call__
        kwargs["axis"] = p
    res = quadrature.ball4_integrate(f, radius, tol=1e-10, **kwargs)
    exact = oracles.ball_integral(kind, float(np.linalg.norm(p)), ell, radius)
    assert res.converged
    assert abs(res.value - exact) <= 1e-12 * abs(exact)


@pytest.mark.parametrize("ell", range(5))
def test_legendre_q_matches_mpmath(ell):
    zs = [1 + 1e-6, 1.0001, 1.002, 1.3, 5.0, 51.0, 339.0, 5001.0]
    got = oracles.legendre_q(ell, zs)
    with mp.workdps(40):
        for z, q in zip(zs, got):
            want = mp.legenq(ell, 0, z, type=3).real
            assert abs(q - want) <= 2e-14 * abs(want)


def _small_potential_op(ell, z):
    nodes, weights = workloads._gauss_legendre_grid(8, 0.5, 4.0)
    return {"op": "apply", "z": z, "e": 0.7, "ell": ell,
            "measure": [[0.8, 0.5], [2.5, -0.3]], "nodes": nodes, "weights": weights,
            "f_re": [0.3 * j - 1.0 for j in range(8)], "f_im": [0.1 * j for j in range(8)]}


@pytest.mark.parametrize("ell", [0, 2, 4])
@pytest.mark.parametrize("z", [0.0, 0.7])
def test_kernel_oracle_agrees_with_apply_momentum_operator(ell, z):
    op = _small_potential_op(ell, z)
    want, scales = oracles.apply_operator(op)
    spec = coulomb.CoulombPotentialSpec(z=z, e=op["e"], ell=ell,
                                        measure=tuple(map(tuple, op["measure"])))
    got = coulomb.apply_momentum_operator(
        spec, np.array(op["f_re"]) + 1j * np.array(op["f_im"]),
        (np.array(op["nodes"]), np.array(op["weights"])), quad_tol=1e-12)
    assert np.all(abs(got - want) <= 1e-12 * scales)


def test_s1_oracle_agrees_with_code():
    spec = coulomb.CoulombPotentialSpec(z=-1.2, ell=2, measure=((1.5, 0.4),))
    ks = [0.3, 1.0, 4.0]
    want, scales = oracles.s1_values(spec.z, spec.ell, spec.measure, ks)
    got = np.array([coulomb.s1(spec, k) for k in ks])
    assert np.all(abs(got - want) <= 1e-12 * scales)


def test_series_oracle_residual_is_second_order():
    doc = {"coupling": 1e-3, "coefficients": [
        workloads._expansion_record({("0", 1): 0.05j, ("0", 0): 0.2 + 0j}),
        workloads._expansion_record({("0", 1): 0.02j, ("-1", 0): 0.4 + 0j}),
    ]}
    raw, regular, residual = oracles.series_values(doc, 1000.0)
    assert regular[0] == pytest.approx(0.2)
    assert regular[1] == pytest.approx(0.4e-3)
    assert 0 < residual < 1e-5


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic(workload):
    first = [workloads.op(workload, 7, i) for i in range(30)]
    again = [workloads.op(workload, 7, i) for i in range(30)]
    other = [workloads.op(workload, 8, i) for i in range(30)]
    assert json.dumps(first) == json.dumps(again)
    assert json.dumps(first) != json.dumps(other)
    assert workloads.warmup(workload, 7) == workloads.warmup(workload, 7)


def test_ladder_inputs_cover_the_specified_ranges():
    ops = [workloads.ladder_op(3, i) for i in range(len(workloads.ladder_strata()))]
    assert {o["kind"] for o in ops} == set(workloads.LADDER_KINDS)
    assert {o["tol"] for o in ops} == set(workloads.LADDER_TOLS)
    for o in ops:
        radii = o["radii"]
        assert 6 <= len(radii) <= 16
        assert math.log10(radii[-1] / radii[0]) >= 2.0 - 1e-12
        assert 1e3 <= radii[-1] <= 1e8
        p_sq = sum(c * c for c in o["p"])
        assert 0.05 - 1e-12 <= o["ell"] - p_sq <= 5.0 + 1e-12
        assert math.sqrt(p_sq) <= 1.5


def test_kernel_inputs_cover_the_specified_ranges():
    ops = [workloads.kernel_op(3, i) for i in range(200)]
    assert any(o["z"] == 0.0 for o in ops) and any(o["z"] != 0.0 for o in ops)
    assert {len(o["measure"]) for o in ops} == {1, 2, 3}
    assert {o["ell"] for o in ops} == set(range(5))
    assert {len(o["nodes"]) for o in ops if o["op"] == "apply"} == set(range(10, 41))
    assert {len(o["ks"]) for o in ops if o["op"] == "s1"} == set(range(20, 61))
    assert all(0.5 <= b <= 5.0 for o in ops for b, _ in o["measure"])


def test_cli_cycle_runs_every_subcommand_and_the_readme():
    cycle = workloads.cli_cycle(5)
    commands = {op["argv"][0] for op in cycle}
    assert commands == {"spectral", "ladder", "fit", "regularize", "example", "coulomb"}
    lines = [" ".join(op["argv"]) for op in cycle]
    for line in workloads.README_ARGV:
        assert line in lines
    mus = {op["argv"][op["argv"].index("--mu") + 1] for op in cycle if "--mu" in op["argv"]}
    assert mus == {"1", "2", "3", "4"}


def _exact_ladder(op):
    p_mag = math.sqrt(sum(c * c for c in op["p"]))
    return [float(oracles.ball_integral(op["kind"], p_mag, op["ell"], r)) for r in op["radii"]]


def test_checker_flags_planted_wrong_value_as_false_convergence():
    op = {"kind": "shifted", "p": [0.3, 0.0, 0.0, 0.0], "ell": 1.09, "tol": 1e-8,
          "radii": [1.0, 3.0, 10.0, 30.0, 100.0, 300.0], "basis": list(workloads.LOG_BASIS)}
    values = _exact_ladder(op)
    out = {"values": values, "converged": [True] * 6, "factor_modulus": 1.0}
    clean = checks.check_ladder(op, out, failed=False)
    assert not clean.false_conv and clean.wrong is None and clean.rel_err < 1e-14

    planted = dict(out, values=values[:5] + [values[5] * (1 + 1e-5)])
    verdict = checks.check_ladder(op, planted, failed=False)
    assert verdict.false_conv
    assert verdict.rel_err == pytest.approx(1e-5, rel=1e-3)

    # The same miss on a rung the program admits it did not converge is a
    # failure, not false convergence.
    honest = dict(planted, converged=[True] * 5 + [False])
    assert not checks.check_ladder(op, honest, failed=True).false_conv


def test_checker_refuses_broken_invariants(tmp_path):
    op = {"kind": "shifted", "p": [0.3, 0.0, 0.0, 0.0], "ell": 1.09, "tol": 1e-8,
          "radii": [1.0, 10.0], "basis": list(workloads.LOG_BASIS)}
    out = {"values": [float("nan"), 1.0], "converged": [True, True], "factor_modulus": 1.0}
    assert checks.check_ladder(op, out, failed=False).wrong
    out = {"values": _exact_ladder(op), "converged": [True, True], "factor_modulus": 1.001}
    assert checks.check_ladder(op, out, failed=False).wrong

    vertex = {"argv": ["example", "--id", "vertex", "--mu", "4", "--out", "v/"], "files": {}}
    (tmp_path / "v").mkdir()
    (tmp_path / "v" / "example_5.6.json").write_text(json.dumps(
        {"admissibility": {"passed": True}, "factor": {"kind": "deviation_factor"}}))
    out = {"code": 0, "files": {"v/example_5.6.json": ["", 0]}}
    assert "inadmissible" in checks.check_cli(vertex, out, False, str(tmp_path)).wrong
    assert "exit code" in checks.check_cli(vertex, {"code": 2}, True, str(tmp_path)).wrong


def test_checker_flags_planted_kernel_error():
    op = workloads.kernel_op(2, 1)
    want, _ = oracles.s1_values(op["z"], op["ell"], op["measure"], op["ks"])
    out = {"re": list(want.real), "im": list(want.imag)}
    assert not checks.check_kernel(op, out, failed=False).false_conv
    out["im"][3] *= 1 + 1e-6
    assert checks.check_kernel(op, out, failed=False).false_conv


def test_tracer_rebinds_every_caller_namespace():
    import spans

    tracer = spans.Tracer().install()
    assert {"devfactor.quadrature.cutoff_ladder", "devfactor.cli.cutoff_ladder",
            "devfactor.qed.cutoff_ladder"} <= set(tracer.bindings["quadrature.cutoff_ladder"])
    assert {"devfactor.quadrature.segment_integrate", "devfactor.coulomb.segment_integrate",
            "devfactor.qed.segment_integrate"} <= set(
                tracer.bindings["quadrature.segment_integrate"])
    assert "devfactor._kernels.reduce_axial" in tracer.bindings["kernels.reduce_axial"]

    import worker

    worker.run_ladder(workloads.ladder_warmup(1))
    layers = tracer.layer_metrics(1)
    assert layers["quadrature.cutoff_ladder.calls"] == 1
    assert layers["quadrature.ball4_integrate.calls"] == 8
    assert layers["kernels.reduce_axial.calls"] >= 8
    assert layers["quadrature.cutoff_ladder.redundancy"] > 1
    assert 0 < layers["quadrature.ball4_integrate.useful_ratio"] <= 1
    for label, total in tracer.seconds.items():
        assert 0 <= tracer.self_seconds[label] <= total + 1e-9


def test_scale_divides_out_the_local_reference_speed():
    nominal = reference.NOMINAL_MS
    # The host runs at nominal speed for 10 s, then at half speed.
    refs = [(0.01 * k, nominal if k < 1000 else 2 * nominal) for k in range(2000)]
    scale = reference.Scale(refs)
    assert scale(2.0, 5.0) == pytest.approx(5.0)
    assert scale(15.0, 10.0) == pytest.approx(5.0)
    # Beyond the last timing the nearest one is used.
    assert scale(100.0, 10.0) == pytest.approx(5.0)


def test_reference_does_not_call_devfactor():
    loaded = set(sys.modules)
    reference.work()
    assert not any(m.startswith("devfactor") for m in set(sys.modules) - loaded)
    assert reference.median_ms(5) > 0


def test_run_refuses_a_directory_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ladder", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""

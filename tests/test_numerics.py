"""Normal quantile, seeded streams, and the SPD solver."""

import ast
import json
import math
import os
import pathlib
import subprocess
import sys
import textwrap

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from chanceflow import (ConstraintSet, LinearIneq, NumericalError, normal_cdf, normal_quantile,
                        solve_spd, stream_rng)
from chanceflow.numerics import _cho_factor, _cho_solve, least_distance
from chanceflow.oracles import BruteForceConfig, brute_force_project, jacobian_active
from chanceflow.projection import project_pocs
from chanceflow.reaction_diffusion import RdGrid, rd_constraints, sample_rd_problem, simulate_rd


def erf_cdf(z: float) -> float:
    return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))


def bisect_quantile(p: float, lo: float = -40.0, hi: float = 40.0) -> float:
    """Independent reference inverse CDF: plain bisection on the erf-based CDF."""
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if erf_cdf(mid) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# --- quantile ---------------------------------------------------------------


def test_quantile_median_is_zero():
    assert normal_quantile(0.5) == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("p", [0.975, 0.95])
def test_quantile_matches_bisection_oracle(p):
    assert abs(normal_quantile(p) - bisect_quantile(p)) <= 1e-9


def test_quantile_known_two_sided_values():
    assert normal_quantile(0.975) == pytest.approx(1.959964, abs=1e-6)
    assert normal_quantile(0.95) == pytest.approx(1.644854, abs=1e-6)


@pytest.mark.parametrize("p", [-0.1, 0.0, 1.0, 1.1])
def test_quantile_rejects_out_of_range(p):
    with pytest.raises(ValueError):
        normal_quantile(p)


def test_quantile_cdf_roundtrip_to_1e12():
    # Includes both extreme tails and points either side of the rational
    # approximation's regime switch at p = 0.02425.
    grid = [1e-12, 1e-9, 1e-6, 0.01, 0.02, 0.025, 0.03, 0.2, 0.5, 0.8,
            0.975, 0.99, 1.0 - 1e-6, 1.0 - 1e-9, 1.0 - 1e-12]
    for p in grid:
        assert abs(normal_cdf(normal_quantile(p)) - p) <= 1e-12


def test_quantile_is_monotone_on_grid():
    ps = np.linspace(1e-6, 1.0 - 1e-6, 501)
    zs = [normal_quantile(p) for p in ps]
    assert all(a < b for a, b in zip(zs, zs[1:]))


@given(st.floats(min_value=0.01, max_value=0.99))
@settings(max_examples=200, deadline=None)
def test_quantile_antisymmetry(p):
    assert abs(normal_quantile(p) + normal_quantile(1.0 - p)) <= 1e-12


# --- seeded streams ---------------------------------------------------------


def test_same_stream_replays_identically():
    a = stream_rng(1234, 7).standard_normal(2)
    b = stream_rng(1234, 7).standard_normal(2)
    assert np.array_equal(a, b)


def test_distinct_streams_differ():
    a = stream_rng(1234, 0).standard_normal(8)
    b = stream_rng(1234, 1).standard_normal(8)
    c = stream_rng(1235, 0).standard_normal(8)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_std_normal_clt_bounds():
    n = 10**6
    draws = stream_rng(2026, 0).standard_normal(n)
    assert abs(draws.mean()) <= 4.0 / math.sqrt(n)
    assert abs(draws.var() - 1.0) <= 0.01


# --- SPD solve --------------------------------------------------------------


def test_solve_spd_identity():
    r = np.array([1.0, 2.0, 3.0])
    assert np.allclose(solve_spd(np.eye(3), r), r, atol=1e-14)


def test_solve_spd_scalar_multiple():
    y = solve_spd(2.0 * np.eye(2), np.array([4.0, 6.0]))
    assert np.allclose(y, [2.0, 3.0], atol=1e-14)


def test_solve_spd_random_instance_residual():
    rng = stream_rng(99, 0)
    m = rng.standard_normal((5, 5))
    a = m @ m.T + 0.5 * np.eye(5)
    r = rng.standard_normal(5)
    y = solve_spd(a, r)
    assert np.linalg.norm(a @ y - r) <= 1e-10 * (1.0 + np.linalg.norm(r))


def test_solve_spd_residual_bound_over_conditioned_ensemble():
    # 1000 instances with condition numbers spread log-uniformly up to 1e6.
    rng = stream_rng(7, 1)
    for k in range(1000):
        d = int(rng.integers(2, 9))
        cond = 10.0 ** rng.uniform(0.0, 6.0)
        q, _ = np.linalg.qr(rng.standard_normal((d, d)))
        eigs = np.geomspace(1.0 / cond, 1.0, d)
        a = (q * eigs) @ q.T
        a = 0.5 * (a + a.T)
        r = rng.standard_normal(d)
        y = solve_spd(a, r)
        resid = np.linalg.norm(a @ y - r)
        assert resid <= 1e-10 * (1.0 + np.linalg.norm(r)), (k, cond, resid)


def test_solve_spd_rejects_indefinite_matrix():
    a = np.array([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues 3 and -1
    with pytest.raises(NumericalError):
        solve_spd(a, np.array([1.0, 1.0]))


def test_solve_spd_rejects_non_finite():
    a = np.eye(2)
    a[0, 1] = np.nan
    with pytest.raises(NumericalError):
        solve_spd(a, np.array([1.0, 1.0]))


def test_solve_spd_rejects_shape_mismatch():
    with pytest.raises(ValueError):
        solve_spd(np.eye(3), np.array([1.0, 2.0]))


# --- the LAPACK Cholesky pair -------------------------------------------------


def scipy_solve_spd(a, r):
    """solve_spd's factor, solve and long-double refinement, written on
    SciPy's cho_factor/cho_solve wrappers: the reference for the direct
    LAPACK calls."""
    factor = scipy.linalg.cho_factor(a, check_finite=False)
    y = scipy.linalg.cho_solve(factor, r, check_finite=False)
    tol = 1e-10 * (1.0 + float(np.linalg.norm(r)))
    a_ext = np.asarray(a, dtype=np.longdouble)
    r_ext = np.asarray(r, dtype=np.longdouble)
    for _ in range(3):
        resid = r_ext - a_ext @ np.asarray(y, dtype=np.longdouble)
        if float(np.linalg.norm(np.asarray(resid, dtype=float))) <= tol:
            return y
        y = y + scipy.linalg.cho_solve(factor, np.asarray(resid, dtype=float),
                                       check_finite=False)
    return y


def spd_systems():
    """300 SPD systems with n = 1..80: Gram matrices of random rows plus a
    ridge, conditioned ensembles, and the Gauss-Newton Schur matrices
    J J^T + 1e-6 I of active reaction-diffusion faces at d = 640."""
    rng = stream_rng(17, 0)
    for k in range(150):
        n = 1 + k % 80
        m = rng.standard_normal((n, n + int(rng.integers(0, 5))))
        yield m @ m.T + 10.0 ** rng.uniform(-6.0, 0.0) * np.eye(n), rng.standard_normal(n)
    for k in range(75):
        n = 1 + (7 * k) % 80
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        a = (q * np.geomspace(10.0 ** -rng.uniform(0.0, 6.0), 1.0, n)) @ q.T
        yield 0.5 * (a + a.T), rng.standard_normal(n)
    grid = RdGrid(n_s=32, n_t=20, dt_phys=0.25)
    problem = sample_rd_problem(grid, stream_rng(17, 1))
    cs = rd_constraints(problem)
    field = simulate_rd(problem).ravel()
    for k in range(75):
        x = field + 10.0 ** rng.uniform(-6.0, -2.0) * rng.standard_normal(grid.d)
        n = 1 + (11 * k) % min(80, cs.n_faces)
        active = np.sort(rng.choice(cs.n_faces, size=n, replace=False))
        jac = jacobian_active(cs, x, active)
        yield jac @ jac.T + 1e-6 * np.eye(n), rng.standard_normal(n)


def test_cholesky_pair_is_bitwise_scipys_wrappers():
    systems = list(spd_systems())
    assert len(systems) == 300
    assert {len(a) for a, _ in systems} >= {1, 80}
    for k, (a, r) in enumerate(systems):
        want_factor, lower = scipy.linalg.cho_factor(a)
        factor = _cho_factor(a)
        assert not lower
        assert factor.tobytes() == want_factor.tobytes(), k
        want = scipy.linalg.cho_solve((want_factor, lower), r)
        assert _cho_solve(factor, r).tobytes() == want.tobytes(), k
        assert solve_spd(a, r).tobytes() == scipy_solve_spd(a, r).tobytes(), k


@pytest.mark.parametrize("a", [
    np.array([[1.0, 2.0], [2.0, 1.0]]),
    np.diag([1.0, 2.0, 0.0]),
    np.diag([4.0, 3.0, 2.0, 1.0, -1e-3]),
])
def test_cholesky_pair_rejects_a_matrix_that_is_not_positive_definite(a):
    with pytest.raises(scipy.linalg.LinAlgError):
        scipy.linalg.cho_factor(a)
    with pytest.raises(NumericalError):
        _cho_factor(a)
    with pytest.raises(NumericalError):
        solve_spd(a, np.ones(len(a)))


def test_solve_spd_of_an_empty_system_is_empty():
    y = solve_spd(np.zeros((0, 0)), np.zeros(0))
    assert y.shape == (0,) and y.dtype == float


def test_least_distance_moves_least_and_detects_inconsistent_rows():
    a = np.array([[2.0, 0.0]])
    assert np.array_equal(least_distance(a, np.array([1.0])), [0.0, 0.0])
    assert np.allclose(least_distance(a, np.array([-1.0])), [-0.5, 0.0], rtol=0.0, atol=1e-15)
    # x <= -1 and x >= 1: the NNLS residual vanishes, so no u exists.
    assert least_distance(np.array([[1.0], [-1.0]]), np.array([-1.0, -1.0])) is None


# --- numerics is the one place for linear algebra ------------------------------


def scipy_imports(path, package):
    """Line numbers of every import of a SciPy package (or a submodule) in a file."""
    lines = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            names = [node.module] + [f"{node.module}.{alias.name}" for alias in node.names]
        else:
            continue
        if any(n == package or n.startswith(package + ".") for n in names):
            lines.append(node.lineno)
    return lines


def test_only_numerics_imports_scipy_linalg():
    # Every linear solve lives in numerics, the one importer of scipy.linalg.
    # scipy.optimize holds NNLS, for numerics, and SLSQP, for the oracles.
    package = pathlib.Path(__file__).resolve().parents[1] / "src" / "chanceflow"
    modules = sorted(package.glob("*.py"))
    for scipy_package, owners in (("scipy.linalg", {"numerics.py"}),
                                  ("scipy.optimize", {"numerics.py", "oracles.py"})):
        for owner in owners:
            assert scipy_imports(package / owner, scipy_package), (owner, scipy_package)
        offenders = {p.name: scipy_imports(p, scipy_package) for p in modules
                     if p.name not in owners}
        assert not {name: lines for name, lines in offenders.items() if lines}, scipy_package


MIXTURE_CFG = """\
[experiment]
id = mix_small
seed = 4
samples = 4
[model]
kind = mixture
means = -2 0 ; 2 0
scales = 0.4
[constraint.1]
kind = halfspace
a = 1 0
b = -1
[constraint.2]
kind = band
a = 0 1
lo = -1
hi = 1
[sampler]
algorithm = ccfm repeated eci vanilla
steps = 10
[metrics]
reference_samples = 64
n_projections = 16
[output]
csv = mix_small.csv
"""

RD_CFG = """\
[experiment]
id = rd_small
seed = 2
samples = 2
[model]
kind = reaction_diffusion
n_s = 8
n_t = 4
dt_phys = 0.2
train_fields = 5
[sampler]
algorithm = ccfm
mode = pathwise
steps = 10
[output]
csv = rd_small.csv
"""

# Two halfspaces with non-orthogonal normals, both violated at X_POCS: their
# projection is one least-distance (NNLS) solve.
SKEW_SET = ((1.0, 0.2), 0.0), ((-0.3, 1.0), -0.1)
X_POCS = (1.0, 1.2)

RUN_PATH_SCRIPT = textwrap.dedent("""\
    import json, sys
    import numpy as np
    import chanceflow, chanceflow.cli
    from chanceflow import ConstraintSet, LinearIneq
    from chanceflow.oracles import BruteForceConfig, brute_force_project
    from chanceflow.projection import project_pocs

    mix, rd, out, skew, x = sys.argv[1], sys.argv[2], sys.argv[3], *map(json.loads, sys.argv[4:])
    codes = [chanceflow.cli.run_experiment(path, out_dir=out) for path in (mix, rd)]
    after_runs = "scipy.optimize" in sys.modules
    cs = ConstraintSet(tuple(LinearIneq(np.array(a), b) for a, b in skew))
    x = np.array(x)
    pocs = project_pocs(x, cs).x_out.tolist()
    after_pocs = "scipy.optimize" in sys.modules
    brute = brute_force_project(x, cs, BruteForceConfig(h=1e-2)).tolist()
    print(json.dumps({"codes": codes, "after_runs": after_runs, "after_pocs": after_pocs,
                      "pocs": pocs, "brute": brute}))
""")


def test_run_path_never_imports_scipy_optimize(tmp_path):
    # scipy.optimize (NNLS and SLSQP) is imported on the first solve that
    # needs it. Importing the package and CLI and running an orthogonal
    # mixture config and a reaction-diffusion config leave it unloaded; a
    # least-distance projection loads it and matches the in-process result,
    # as does the brute-force oracle's SLSQP polish.
    (tmp_path / "mix.cfg").write_text(MIXTURE_CFG, encoding="utf-8")
    (tmp_path / "rd.cfg").write_text(RD_CFG, encoding="utf-8")
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + path if path else src)
    result = subprocess.run(
        [sys.executable, "-c", RUN_PATH_SCRIPT, str(tmp_path / "mix.cfg"),
         str(tmp_path / "rd.cfg"), str(tmp_path), json.dumps(SKEW_SET), json.dumps(X_POCS)],
        env=env, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    out = json.loads(result.stdout.splitlines()[-1])
    assert out["codes"] == [0, 0]
    assert (tmp_path / "mix_small.csv").is_file() and (tmp_path / "rd_small.csv").is_file()
    assert not out["after_runs"]
    assert out["after_pocs"]
    cs = ConstraintSet(tuple(LinearIneq(np.array(a), b) for a, b in SKEW_SET))
    x = np.array(X_POCS)
    assert np.array_equal(out["pocs"], project_pocs(x, cs).x_out)
    assert np.array_equal(out["brute"], brute_force_project(x, cs, BruteForceConfig(h=1e-2)))

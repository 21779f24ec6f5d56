"""Config parsing, the experiment runner, CSV/SVG output, and exit codes."""

import configparser
import logging
import os
import textwrap
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from chanceflow import (ConfigError, FlowModel, LinearBand, SampleRecord, SamplerConfig,
                        Scheduler, selfcheck)
from chanceflow.cli import CSV_HEADER, ResultRow, main, run_experiment
from chanceflow.config import build_workbench, parse_config
from chanceflow.figures import emit_figure

SVG_NS = "{http://www.w3.org/2000/svg}"

SMOKE = """\
[experiment]
id = smoke
seed = 3
samples = 6

[model]
kind = mixture
means = -2 0; 2 0
scales = 0.4

[sampler]
algorithm = ccfm vanilla
steps = 12

[constraint.wall]
kind = halfspace
a = 1 0
b = 0

[metrics]
reference_samples = 32
n_projections = 16

[output]
csv = smoke.csv
figures = trajectory_2d violation_curve
figure_samples = 3
"""

# SMOKE with a keep-out ball, which ccfm reaches in pathwise mode only.
BALL_SMOKE = SMOKE.replace("steps = 12", "steps = 12\nmode = pathwise").replace(
    "[metrics]", "[constraint.ball]\nkind = min_distance\ncenter = 0 0\nradius = 0.5\n\n[metrics]")

# SMOKE under repeated with a second, non-orthogonal halfspace, so every
# per-step projection takes the least-distance solve.
TWO_WALLS = SMOKE.replace("algorithm = ccfm vanilla", "algorithm = repeated").replace(
    "[metrics]", "[constraint.slope]\nkind = halfspace\na = 1 1\nb = 1\n\n[metrics]")

# The smallest reaction-diffusion run: a 4 x 2 grid and two training fields.
RD_SMOKE = """\
[experiment]
id = rd_smoke
samples = 2

[model]
kind = reaction_diffusion
n_s = 4
n_t = 2
train_fields = 2

[sampler]
algorithm = ccfm
mode = pathwise
steps = 4
"""


# An empirical model and a reference batch, both read from files named
# relative to the config's directory.
EMPIRICAL = """\
[experiment]
id = emp
samples = 2

[model]
kind = empirical
path = atoms.txt

[sampler]
algorithm = repeated
steps = 4

[constraint.wall]
kind = halfspace
a = 1 0
b = 0.5

[metrics]
reference = ref.txt
n_projections = 8
"""


def write_config(tmp_path, text, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(textwrap.dedent(text), encoding="utf-8")
    return str(path)


def write_empirical(directory, text=EMPIRICAL):
    """Writes the atoms, a feasible 2-D reference and a 3-D one next to the
    config; returns the config path, the atoms and the 2-D reference."""
    atoms = np.random.default_rng(0).standard_normal((16, 2))
    reference = atoms[atoms[:, 0] <= 0.5]
    np.savetxt(directory / "atoms.txt", atoms)
    np.savetxt(directory / "ref.txt", reference)
    np.savetxt(directory / "ref3.txt", np.hstack([reference, reference[:, :1]]))
    return write_config(directory, text), atoms, reference


# --- parsing ----------------------------------------------------------------


def test_parse_fills_defaults(tmp_path):
    cfg = parse_config(write_config(tmp_path, """\
        [experiment]
        id = tiny
        [model]
        kind = mixture
        means = -1; 1
        scales = 0.5
        [sampler]
        algorithm = vanilla
        """))
    assert cfg.experiment_id == "tiny"
    (scfg,) = cfg.samplers
    assert scfg == SamplerConfig(algorithm="vanilla", n_steps=100, scheduler=Scheduler(0.5),
                                 seed=0, samples=100)
    assert cfg.csv_name == "results.csv"
    assert cfg.figures == ()


ROOT = Path(__file__).resolve().parents[1]
SHIPPED = sorted(ROOT.glob("configs/*.cfg")) + sorted(ROOT.glob("perfbench/configs/*.cfg"))


def test_shipped_and_benchmark_configs_are_found():
    names = {p.relative_to(ROOT).as_posix() for p in SHIPPED}
    assert {"configs/rd_ccfm.cfg", "perfbench/configs/mix8_threads.cfg"} <= names


@pytest.mark.parametrize("path", SHIPPED, ids=lambda p: p.relative_to(ROOT).as_posix())
def test_every_shipped_and_benchmark_config_parses(path):
    # A key the grammar retires must leave these files first: the benchmark
    # runs perfbench/configs as they are.
    raw = configparser.ConfigParser(interpolation=None)
    raw.read(path, encoding="utf-8")
    cfg = parse_config(str(path))
    assert [s.algorithm for s in cfg.samplers] == raw["sampler"]["algorithm"].split()


def _bad(case_id, old, new, base=SMOKE, match=None):
    return pytest.param(old, new, base, match, id=case_id)


# The ids are explicit, so removing a case renames no other; the numbered
# ones keep the names they had when the ids were list positions.
@pytest.mark.parametrize("old, new, base, match", [
    _bad("mutation0", "[experiment]", "[experiments]"),          # unknown section
    _bad("mutation1", "seed = 3", "speed = 3"),                  # unknown key
    _bad("mutation2", "algorithm = ccfm vanilla", "algorithm = ccfm annealing"),
    _bad("mutation3", "figures = trajectory_2d violation_curve", "figures = histogram"),
    _bad("mutation4", "a = 1 0", "a = one zero"),                # unparsable vector
    _bad("mutation5", "steps = 12", "steps = 0"),
    _bad("mutation6", "samples = 6", "samples = 0"),
    _bad("mutation7", "kind = mixture", "kind = parametric"),
    # The Gauss-Newton budgets are constants: their old keys are unknown,
    # even at the values they used to take.
    _bad("gn_iters_key", "steps = 12", "steps = 12\ngn_iters = 1", match="gn_iters"),
    _bad("final_budget_key", "steps = 12", "steps = 12\nfinal_budget = 30",
         match="final_budget"),
    _bad("mutation11", "steps = 12", "steps = 12\neci_events = -1"),
    _bad("mutation12", "figure_samples = 3", "figure_samples = 0"),
    _bad("mutation13", "n_projections = 16", "n_projections = 0"),
    _bad("mutation14", "reference_samples = 32", "reference_samples = 0"),
    _bad("mutation15", "samples = 2", "samples = 2\ntol = 1e-8", RD_SMOKE),  # RD uses delta
    _bad("mutation16", "seed = 3", "seed = 3\ntol = nan"),
    _bad("mutation17", "steps = 12", "steps = 12\nscheduler_n = inf"),
    _bad("mutation18", "steps = 12", "steps = 12\ngn_damping = 1e-6"),  # the ridge is no key
    _bad("mutation19", "b = 0", "b = nan"),
    _bad("mutation20", "id = smoke", "id = runs/smoke"),      # ids and csv names are file names
    _bad("mutation21", "csv = smoke.csv", "csv = runs/smoke.csv"),
    _bad("mutation22", "algorithm = ccfm vanilla", "algorithm = ccfm vanilla ccfm"),  # runs twice
])
def test_bad_configs_raise(tmp_path, old, new, base, match):
    assert old in base
    with pytest.raises(ConfigError, match=match):
        parse_config(write_config(tmp_path, base.replace(old, new)))


def test_constrained_algorithm_requires_a_constraint(tmp_path):
    text = SMOKE.replace("[constraint.wall]\nkind = halfspace\na = 1 0\nb = 0\n\n", "")
    assert "[constraint." not in text
    with pytest.raises(ConfigError):
        parse_config(write_config(tmp_path, text))


def test_quadratic_parses_to_the_band_of_its_square_root(tmp_path):
    text = SMOKE.replace("[metrics]", textwrap.dedent("""\
        [constraint.slab]
        kind = quadratic
        a = 0 2
        b = 2.25

        [metrics]"""))
    cfg = parse_config(write_config(tmp_path, text))
    _, slab = cfg.cs.members
    assert isinstance(slab, LinearBand)
    assert np.array_equal(slab.a, [0.0, 2.0])
    assert slab.lo == -1.5 and slab.hi == 1.5


def test_missing_file_raises():
    with pytest.raises(ConfigError):
        parse_config("/nonexistent/experiment.cfg")


# --- run_experiment ----------------------------------------------------------------


def test_malformed_config_exits_2_without_output(tmp_path):
    cfg = write_config(tmp_path, SMOKE.replace("kind = mixture", "kind = parametric"))
    out = tmp_path / "out"
    assert run_experiment(cfg, out_dir=str(out)) == 2
    assert not out.exists()


@pytest.mark.parametrize("base, old, new, named", [
    # checked by SamplerConfig
    (SMOKE, "steps = 12", "steps = 12\neci_events = -1", "eci_events"),
    (SMOKE, "scales = 0.4", "scales = -1", "scales"),            # by the mixture target
    (RD_SMOKE, "n_t = 2", "n_t = 2\nnu = 0", "nu > 0"),          # by RdProblem
    (RD_SMOKE, "n_t = 2", "n_t = 2\nrho = inf", "rho >= 0"),
    (RD_SMOKE, "samples = 2", "samples = 2\n[output]\nfigures = trajectory_2d",
     "trajectory_2d"),
    (BALL_SMOKE, "radius = 0.5", "radius = nan", "radius"),      # by MinDistance
    (TWO_WALLS, "b = 1", "b = inf", "bound b must be finite"),  # by LinearIneq
    (SMOKE, "steps = 12", "steps = 12\nstepper = heun", "stepper = 'heun'"),  # Euler only
], ids=["eci_events", "scales", "nu", "rho", "rd_trajectory_2d", "radius", "halfspace_b_inf",
        "stepper"])
def test_out_of_range_setting_exits_2_without_output(tmp_path, capsys, caplog,
                                                     base, old, new, named):
    assert old in base
    out = tmp_path / "out"
    with caplog.at_level(logging.ERROR, logger="chanceflow"):
        assert main(["run", write_config(tmp_path, base.replace(old, new)),
                     "--out-dir", str(out)]) == 2
    assert not out.exists()
    assert capsys.readouterr().out == ""
    assert named in caplog.text
    assert main(["run", write_config(tmp_path, base, name="ok.cfg"),
                 "--out-dir", str(out)]) == 0


def test_retired_gn_damping_key_exits_2_naming_it(tmp_path, capsys, caplog):
    # The Gauss-Newton ridge is a constant of the projection module, not a key.
    cfg = write_config(tmp_path, SMOKE.replace("steps = 12", "steps = 12\ngn_damping = 1e-6"))
    out = tmp_path / "out"
    with caplog.at_level(logging.ERROR, logger="chanceflow"):
        assert main(["run", cfg, "--out-dir", str(out)]) == 2
    assert not out.exists()
    assert capsys.readouterr().out == ""
    assert "unknown keys in [sampler]: ['gn_damping']" in caplog.text


@pytest.mark.parametrize("threads", ["0", "-1"])
def test_thread_count_below_one_exits_2_without_output(tmp_path, threads):
    out = tmp_path / "out"
    assert main(["run", write_config(tmp_path, SMOKE), "--threads", threads,
                 "--out-dir", str(out)]) == 2
    assert not out.exists()


def test_out_of_range_coords_exit_2_without_output(tmp_path):
    # coords 5 names a coordinate the 2-D model does not have.
    text = BALL_SMOKE.replace("radius = 0.5", "radius = 0.5\ncoords = 0 5")
    cfg = write_config(tmp_path, text)
    out = tmp_path / "out"
    assert main(["run", cfg, "--out-dir", str(out)]) == 2
    assert not out.exists()
    assert main(["run", write_config(tmp_path, text.replace("coords = 0 5", "coords = 1 0"),
                                     name="ok.cfg"), "--out-dir", str(out)]) == 0


def test_relative_paths_resolve_against_the_config_directory(tmp_path, monkeypatch):
    cfg_dir = tmp_path / "configs"
    cfg_dir.mkdir()
    path, atoms, reference = write_empirical(cfg_dir)
    monkeypatch.chdir(tmp_path)  # neither file is in the working directory
    bench = build_workbench(parse_config(path), 0)
    assert np.array_equal(bench.model.target.atoms, atoms)
    assert np.array_equal(bench.reference, reference)
    out = tmp_path / "out"
    assert main(["run", path, "--out-dir", str(out)]) == 0
    assert (out / "results.csv").exists()


@pytest.mark.parametrize("old, new", [
    ("a = 1 0", "a = 1 0 0"),                          # a 3-D wall on a 2-D model
    ("reference = ref.txt", "reference = ref3.txt"),   # a 3-D reference batch
    ("path = atoms.txt", "path = missing.txt"),        # no atoms file
], ids=["constraint_dim", "reference_dim", "missing_atoms"])
def test_mismatched_or_missing_input_exits_2_without_output(tmp_path, old, new):
    assert old in EMPIRICAL
    path, _, _ = write_empirical(tmp_path, EMPIRICAL.replace(old, new))
    out = tmp_path / "out"
    assert main(["run", path, "--out-dir", str(out)]) == 2
    assert not out.exists()
    assert main(["run", write_config(tmp_path, EMPIRICAL, name="ok.cfg"),
                 "--out-dir", str(out)]) == 0


def test_marginal_ccfm_with_min_distance_exits_2_without_output(tmp_path):
    # Only halfspaces and bands have a marginal chance reformulation, so the
    # default marginal mode cannot run ccfm on a keep-out ball.
    text = SMOKE.replace("[metrics]", textwrap.dedent("""\
        [constraint.ball]
        kind = min_distance
        center = 0 0
        radius = 0.5

        [metrics]"""))
    path = write_config(tmp_path, text)
    with pytest.raises(ConfigError, match="mode = pathwise"):
        parse_config(path)
    out = tmp_path / "out"
    assert main(["run", path, "--out-dir", str(out)]) == 2
    assert not out.exists()
    # Without ccfm nothing is tightened, so the same block is accepted.
    parse_config(write_config(tmp_path, text.replace("algorithm = ccfm vanilla",
                                                     "algorithm = repeated vanilla"),
                              name="repeated.cfg"))


def test_marginal_ccfm_on_reaction_diffusion_raises(tmp_path):
    # The reaction-diffusion mass law is a smooth member: pathwise only.
    text = """\
        [experiment]
        id = rd
        [model]
        kind = reaction_diffusion
        [sampler]
        algorithm = ccfm
        mode = {mode}
        """
    with pytest.raises(ConfigError, match="mode = pathwise"):
        parse_config(write_config(tmp_path, text.format(mode="marginal")))
    parse_config(write_config(tmp_path, text.format(mode="pathwise"), name="rd.cfg"))


def test_run_writes_csv_and_figures(tmp_path):
    cfg = write_config(tmp_path, SMOKE)
    out = tmp_path / "out"
    assert run_experiment(cfg, out_dir=str(out)) == 0
    lines = (out / "smoke.csv").read_text().splitlines()
    assert lines[0] == ",".join(CSV_HEADER)
    assert len(lines) == 3  # header + one row per algorithm
    for line in lines[1:]:
        cells = line.split(",")
        assert len(cells) == len(CSV_HEADER)
        assert cells[0] == "smoke"
        assert cells[-1] == ""  # wall_time stays empty
    ccfm = lines[1].split(",")
    assert ccfm[1] == "ccfm"
    assert float(ccfm[5]) == 1.0  # every constrained sample ends feasible
    names = sorted(p.name for p in out.iterdir())
    assert names == ["smoke.csv",
                     "smoke_ccfm_trajectory_2d.svg",
                     "smoke_ccfm_violation_curve.svg",
                     "smoke_vanilla_trajectory_2d.svg",
                     "smoke_vanilla_violation_curve.svg"]


def test_reruns_are_byte_identical(tmp_path):
    cfg = write_config(tmp_path, SMOKE)
    blobs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert run_experiment(cfg, out_dir=str(out)) == 0
        blobs.append({p.name: p.read_bytes() for p in out.iterdir()})
    assert blobs[0] == blobs[1]


def test_thread_count_does_not_change_output(tmp_path):
    cfg = write_config(tmp_path, SMOKE)
    out1, out4 = tmp_path / "t1", tmp_path / "t4"
    assert run_experiment(cfg, out_dir=str(out1), threads=1) == 0
    assert run_experiment(cfg, out_dir=str(out4), threads=4) == 0
    assert (out1 / "smoke.csv").read_bytes() == (out4 / "smoke.csv").read_bytes()


def test_seed_override_lands_in_the_seed_column(tmp_path):
    cfg = write_config(tmp_path, SMOKE)
    out = tmp_path / "out"
    assert run_experiment(cfg, seed=11, out_dir=str(out)) == 0
    for line in (out / "smoke.csv").read_text().splitlines()[1:]:
        assert line.split(",")[4] == "11"


def test_hopeless_reference_sampling_exits_3(tmp_path):
    cfg = write_config(tmp_path, SMOKE.replace("b = 0", "b = -50"))
    out = tmp_path / "out"
    assert run_experiment(cfg, out_dir=str(out)) == 3
    assert not (out / "smoke.csv").exists()


def test_unreachable_constraints_exit_3(tmp_path):
    # Two halfspaces with empty intersection: x <= -1 and x >= 2. Refinement
    # cannot converge, so every sample is flagged and the run reports failure.
    ref = tmp_path / "ref.txt"
    np.savetxt(ref, np.array([[-1.5], [-2.0], [-1.2], [-3.0]]))
    text = f"""\
    [experiment]
    id = clash
    samples = 2
    [model]
    kind = mixture
    means = -1; 1
    scales = 0.5
    [sampler]
    algorithm = ccfm
    steps = 8
    [constraint.lo]
    kind = halfspace
    a = 1
    b = -1
    [constraint.hi]
    kind = halfspace
    a = -1
    b = -2
    [metrics]
    reference = {ref}
    """
    out = tmp_path / "out"
    assert run_experiment(write_config(tmp_path, text), out_dir=str(out)) == 3
    assert (out / "results.csv").exists()  # diagnostics are still written


# --- CSV row formatting ------------------------------------------------------------


def test_result_row_rendering():
    row = ResultRow(experiment="e", algorithm="ccfm", steps=10, scheduler_n=0.5,
                    seed=3, feasibility_rate=1.0, sliced_w2=None, mmse=1.0 / 3.0,
                    smse=None, cv_ic=None, cv_cl=None)
    assert row.render() == "e,ccfm,10,0.5,3,1,,0.333333333,,,,"


def test_result_row_significant_digits():
    row = ResultRow(experiment="e", algorithm="ccfm", steps=1, scheduler_n=4.0,
                    seed=0, feasibility_rate=0.98, sliced_w2=123456789.123,
                    mmse=1.25e-13, smse=0.0, cv_ic=None, cv_cl=None)
    cells = row.render().split(",")
    assert cells[6] == "123456789"
    assert cells[7] == "1.25e-13"
    assert cells[8] == "0"


# --- figures ------------------------------------------------------------------------


def fake_record(states, violations=None):
    states = np.asarray(states, dtype=float)
    n = states.shape[0] - 1
    viol = np.zeros(n) if violations is None else np.asarray(violations, dtype=float)
    return SampleRecord(states=states, per_step_violation=viol,
                        projection_moves=np.zeros(n), wall_time=0.0)


def test_trajectory_svg_polyline_has_one_vertex_per_state(tmp_path):
    record = fake_record([[0.0, 0.0], [0.5, 0.1], [1.0, 0.4], [1.5, 1.0]])
    path = tmp_path / "traj.svg"
    emit_figure([record], "trajectory_2d", str(path))
    root = ET.parse(path).getroot()
    polylines = root.findall(f"{SVG_NS}polyline")
    assert len(polylines) == 1
    points = polylines[0].get("points").split()
    assert len(points) == 4


def test_empty_record_list_writes_nothing(tmp_path):
    path = tmp_path / "missing.svg"
    with pytest.raises(ValueError):
        emit_figure([], "trajectory_2d", str(path))
    assert not path.exists()


def test_trajectory_figure_needs_2d_states(tmp_path):
    record = fake_record([[0.0], [1.0]])
    with pytest.raises(ConfigError):
        emit_figure([record], "trajectory_2d", str(tmp_path / "x.svg"))


def test_unknown_figure_kind(tmp_path):
    record = fake_record([[0.0, 0.0], [1.0, 1.0]])
    with pytest.raises(ConfigError):
        emit_figure([record], "scatter", str(tmp_path / "x.svg"))


def test_violation_curve_embeds_exact_values(tmp_path):
    viol = [0.5, 0.25, 0.0]
    record = fake_record([[0.0, 0.0]] * 4, violations=viol)
    path = tmp_path / "viol.svg"
    emit_figure([record], "violation_curve", str(path))
    root = ET.parse(path).getroot()
    descs = [d.text for d in root.iter(f"{SVG_NS}desc")]
    assert descs == ["violations[0]: " + ",".join(repr(float(v)) for v in viol)]


# --- argparse front end -----------------------------------------------------------


def test_main_run_subcommand(tmp_path):
    cfg = write_config(tmp_path, SMOKE)
    out = tmp_path / "out"
    assert main(["run", cfg, "--out-dir", str(out), "--seed", "9"]) == 0
    assert (out / "smoke.csv").exists()


def test_main_reports_config_errors(tmp_path):
    assert main(["run", str(tmp_path / "missing.cfg")]) == 2


def test_main_verify_battery(capsys):
    assert main(["verify"]) == 0
    out = capsys.readouterr().out
    assert "all" in out and "checks passed" in out
    assert "[FAIL]" not in out


def test_verify_velocity_check_has_no_relative_slack(monkeypatch):
    # The closed-form velocity check bounds the error by 1e-12 absolute. With
    # NumPy's default rtol (1e-5) it would accept this 1e-9 error on
    # velocities of size 1.6-2.5.
    real = FlowModel.velocity
    monkeypatch.setattr(FlowModel, "velocity", lambda self, x, t: real(self, x, t) + 1e-9)
    with pytest.raises(AssertionError, match="velocity mismatch"):
        selfcheck.velocity_single_gaussian_closed_form()

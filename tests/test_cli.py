"""Command line: subcommands, exit codes, determinism.

Covers:
 - simulate on the bundled scenarios: outputs, metrics content, overrides
 - exit code 2 for usage/parse problems (including an unreadable scenario,
   a missing output directory, an --out-dir that is a file, and a
   --metrics-out naming the --out file, and an output file that is a
   directory, each checked before the run with one message in every command;
   an output the OS refuses while writing, in every command) and for
   overrides or sweep values the value types reject (including nan/inf and
   a finite step past one system base), 3 for numerical failure; a
   parameter type's flags are checked together, and --step-gw with
   --step-pu is refused by the parser
 - one error rule for every command: a ValueError raised inside any of
   them is one ``error:`` line and exit 2, and a divergence inside
   ``figure`` is one line and exit 3
 - a sweep or figure run that fails leaves the existing output file as it was
 - tune report values for the worked 0.2 Hz example, the clamped case and
   the unbounded energy estimate at k_i = 0, and exit code 2 for a target or
   disturbance the design cannot use
 - figure datasets: fig3 content and byte-identical reruns, the header,
   row count and nadir verdicts of each trajectory figure, fig5 against the
   mv sweeps it is built from, and fig8's droop gains and iDroop/VI power ratio
 - README's figure table and sweep usage line list the CLI's choices
 - the tau-t and alpha-b sweeps end to end, and fig9 built from the tau-t sweep
 - ``python -m gridfreq`` runs the same command line, and the parser built
   once per process gives a usage error and then a valid simulate the
   results each gives in a process of its own
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from gridfreq import cli
from gridfreq.cli import _FIGURE_BUILDERS, _SWEEP_NAMES, main
from gridfreq.model import gb_reference_params, pu_disturbance
from gridfreq.simulate import MONOTONE_TOL, TRAJECTORY_CSV_HEADER, IntegrationError
from gridfreq.tuning import design_droop_from_target, mv_min_exact

ROOT = Path(__file__).resolve().parent.parent
SCENARIO_DIR = ROOT / "scenarios"


def _metrics_value(metrics_text, key):
    for line in metrics_text.splitlines():
        if line.startswith(key + " ="):
            return line.split("=", 1)[1].strip()
    raise KeyError(key)


# ---------------------------------------------------------------- simulate


def test_simulate_idroop_scenario(tmp_path, capsys):
    out = tmp_path / "traj.csv"
    rc = main(["simulate", str(SCENARIO_DIR / "gb-idroop.scn"), "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == TRAJECTORY_CSV_HEADER
    assert len(lines) == 1 + 30001
    metrics = (tmp_path / "traj.metrics.txt").read_text()
    assert _metrics_value(metrics, "monotone") == "true"
    ss_hz = float(_metrics_value(metrics, "steady_state_deviation_hz"))
    assert ss_hz == pytest.approx(-0.2109, abs=2e-4)
    assert "wrote" in capsys.readouterr().out


def test_simulate_nostorage_has_nadir(tmp_path):
    out = tmp_path / "t.csv"
    rc = main(["simulate", str(SCENARIO_DIR / "gb-nostorage.scn"), "--out", str(out)])
    assert rc == 0
    metrics = (tmp_path / "t.metrics.txt").read_text()
    assert _metrics_value(metrics, "monotone") == "false"
    nadir = float(_metrics_value(metrics, "nadir_deviation_pu"))
    ss = float(_metrics_value(metrics, "steady_state_deviation_pu"))
    assert nadir < ss < 0


def test_simulate_equilibrium(tmp_path):
    out = tmp_path / "eq.csv"
    rc = main(["simulate", str(SCENARIO_DIR / "gb-equilibrium.scn"), "--out", str(out)])
    assert rc == 0
    rows = out.read_text().splitlines()[1:]
    assert all(float(r.split(",")[1]) == 0.0 for r in rows)


def test_simulate_flag_overrides_file(tmp_path):
    """Flags beat file values: doubling the step doubles the final deviation."""
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    scenario = str(SCENARIO_DIR / "gb-idroop.scn")
    assert main(["simulate", scenario, "--out", str(out1)]) == 0
    assert main(["simulate", scenario, "--out", str(out2), "--step-gw", "3.6"]) == 0
    ss1 = float(_metrics_value((tmp_path / "a.metrics.txt").read_text(), "steady_state_deviation_pu"))
    ss2 = float(_metrics_value((tmp_path / "b.metrics.txt").read_text(), "steady_state_deviation_pu"))
    assert ss2 == pytest.approx(2 * ss1, rel=1e-9)


def test_simulate_deadband_flag(tmp_path):
    """--deadband-mhz converts at the 60 Hz boundary and deepens the final value."""
    out = tmp_path / "db.csv"
    rc = main(
        ["simulate", str(SCENARIO_DIR / "gb-idroop.scn"), "--out", str(out), "--deadband-mhz", "36"]
    )
    assert rc == 0
    metrics = (tmp_path / "db.metrics.txt").read_text()
    ss = float(_metrics_value(metrics, "steady_state_deviation_pu"))
    # quasi-steady value with the offset turbine law: -(dp + a_g*w_db)/16
    assert ss == pytest.approx(-(0.05625 + 15 * 0.0006) / 16.0, rel=1e-3)


def test_simulate_missing_file(tmp_path, capsys):
    rc = main(["simulate", str(tmp_path / "nope.scn"), "--out", str(tmp_path / "o.csv")])
    assert rc == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["directory", "not_utf8"])
def test_simulate_unreadable_scenario_is_usage_error(tmp_path, capsys, kind):
    """A directory or a non-UTF-8 file given as the scenario is a usage error, not a traceback."""
    if kind == "directory":
        scenario = SCENARIO_DIR
    else:
        scenario = tmp_path / "binary.scn"
        scenario.write_bytes(b"[grid]\ninertia_h = 2.0\n\xff\xfe\x00\x81\n")
    assert main(["simulate", str(scenario), "--out", str(tmp_path / "o.csv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    if kind == "not_utf8":
        assert "binary.scn:3" in err and "UTF-8" in err


@pytest.mark.parametrize("out", ["nodir/x.csv", "."])
def test_simulate_unwritable_out_is_usage_error(tmp_path, capsys, out):
    """--out in a missing directory, or naming a directory, is refused before the run, not after it."""
    assert main(["simulate", str(SCENARIO_DIR / "gb-idroop.scn"), "--out", str(tmp_path / out)]) == 2
    assert "not a file in an existing directory" in capsys.readouterr().err
    assert not (tmp_path / "nodir").exists()


@pytest.mark.parametrize("metrics_out", ["y.csv", "./y.csv"], ids=["same_spelling", "other_spelling"])
def test_simulate_metrics_out_naming_out_is_usage_error(tmp_path, capsys, monkeypatch, metrics_out):
    """--metrics-out naming the --out file, however spelled, is refused before the run
    instead of overwriting the trajectory with the metrics."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "simulate", lambda scenario: pytest.fail("integrated"))
    argv = ["simulate", str(SCENARIO_DIR / "gb-idroop.scn"), "--out", "y.csv", "--metrics-out", metrics_out]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: --metrics-out {metrics_out!r} names the --out file\n"
    assert captured.out == "" and not (tmp_path / "y.csv").exists()


def test_simulate_parse_error_is_line_anchored(tmp_path, capsys):
    bad = tmp_path / "bad.scn"
    bad.write_text("[grid]\ninertia_h = 2.0\nfoo = 1\n")
    rc = main(["simulate", str(bad), "--out", str(tmp_path / "o.csv")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "bad.scn:3" in err and "foo" in err


def test_simulate_numerical_failure(tmp_path, capsys):
    rc = main(
        [
            "simulate",
            str(SCENARIO_DIR / "gb-idroop.scn"),
            "--out",
            str(tmp_path / "o.csv"),
            "--dt",
            "2.0",
            "--horizon",
            "400",
        ]
    )
    assert rc == 3
    assert "diverged" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags",
    [
        ["--dt", "-1"],
        ["--dt", "100"],
        ["--horizon", "0"],
        ["--horizon", "inf"],
        ["--inertia-h", "-1"],
        ["--inertia-h", "nan"],
        ["--deadband-mhz", "-5"],
        ["--step-pu", "nan"],
        ["--horizon", "1e9"],
        ["--step-gw", "1e306"],
        ["--inertia-h", "1e-320"],
    ],
)
def test_simulate_rejected_override_is_usage_error(tmp_path, capsys, flags):
    """An override the value types reject is a usage error, not a crash or a divergence
    (a finite step past one system base was run into the divergence limit, exit 3, and
    an inertia whose reciprocal overflows the loop's coefficients was too)."""
    argv = ["simulate", str(SCENARIO_DIR / "gb-idroop.scn"), "--out", str(tmp_path / "o.csv")]
    assert main(argv + flags) == 2
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "o.csv").exists()


@pytest.mark.parametrize(
    "flags, rows, rc",
    [
        (["--dt", "50", "--horizon", "100", "--step-pu", "0"], 3, 0),  # two steps, at rest
        (["--dt", "2e-6", "--horizon", "0.003"], 1501, 0),
        # the file's 1.8 GW step: the pair is accepted and RK4 at 50 s diverges
        (["--dt", "50", "--horizon", "100"], None, 3),
    ],
    ids=["two_steps_at_rest", "fine_step_short_horizon", "two_steps_diverge"],
)
def test_simulate_override_pair_checked_together(tmp_path, capsys, flags, rows, rc):
    """--dt and --horizon are applied in one step: a pair valid together is not checked
    against the 30 s file's horizon (dt <= horizon, horizon/dt <= MAX_SAMPLES)."""
    out = tmp_path / "o.csv"
    assert main(["simulate", str(SCENARIO_DIR / "gb-idroop.scn"), "--out", str(out)] + flags) == rc
    err = capsys.readouterr().err
    assert "need" not in err
    if rows is not None:
        assert len(out.read_text().splitlines()) == 1 + rows
    else:
        assert "diverged" in err


def test_step_gw_with_step_pu_is_usage_error(tmp_path, capsys, monkeypatch):
    """The parser refuses both disturbance flags together, before the scenario is read
    or any run: nothing is written."""
    monkeypatch.setattr(cli, "load_scenario", lambda path: pytest.fail("read the scenario"))
    monkeypatch.setattr(cli, "simulate", lambda scenario: pytest.fail("integrated"))
    argv = ["simulate", str(SCENARIO_DIR / "gb-idroop.scn"), "--out", str(tmp_path / "o.csv")]
    assert main(argv + ["--step-gw", "1", "--step-pu", "0.1"]) == 2
    captured = capsys.readouterr()
    assert captured.err.endswith("error: argument --step-pu: not allowed with argument --step-gw\n")
    assert captured.out == "" and list(tmp_path.iterdir()) == []


def _raise(exc):
    def raiser(*args, **kwargs):
        raise exc

    return raiser


@pytest.mark.parametrize(
    "argv, name",
    [
        (["simulate", str(SCENARIO_DIR / "gb-idroop.scn"), "--out", "o.csv"], "simulate"),
        (["tune", "--target-hz", "0.2"], "design_droop_from_target"),
        (["sweep", "tau-t"], "sweep"),
        (["figure", "fig3"], "mv_min_exact"),
    ],
    ids=["simulate", "tune", "sweep", "figure"],
)
def test_value_error_in_any_command_is_one_usage_line(tmp_path, capsys, monkeypatch, argv, name):
    """A ValueError raised anywhere inside a command is one ``error:`` line and exit 2,
    whichever command raises it."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, name, _raise(ValueError("bad value")))
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: bad value\n" and captured.out == ""


def test_figure_divergence_is_numerical_failure(tmp_path, capsys, monkeypatch):
    """A divergence inside ``figure`` is one ``error:`` line and exit 3, not a traceback."""
    monkeypatch.setattr(cli, "capacity_curve", _raise(IntegrationError(last_valid_time=8.0)))
    assert main(["figure", "fig8", "--out-dir", str(tmp_path)]) == 3
    captured = capsys.readouterr()
    assert captured.err == "error: integration diverged; last valid time 8 s\n" and captured.out == ""


# -------------------------------------------------------------------- tune


def test_tune_worked_example(capsys):
    rc = main(["tune", "--target-hz", "0.2"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "alpha_b = 1.875 pu" in out
    assert "m_v_min from target (linear rule) = 59.37 pu*s" in out
    assert "linear at alpha_b" not in out  # the same linear rule at the same alpha_b
    assert "nu = 16.875 pu, tau_i = 1 s" in out
    assert "e_b_max/delta_p = 37.5 s" in out


def test_tune_clamps_loose_target(capsys):
    rc = main(["tune", "--target-hz", "0.5"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "alpha_b = 0 pu  (clamped to zero)" in out
    assert "m_v_min from target (linear rule) = 55.62 pu*s" in out


def test_tune_without_secondary_has_unbounded_energy(capsys):
    assert main(["tune", "--target-hz", "0.2", "--k-i", "0"]) == 0
    out = capsys.readouterr().out
    assert out.endswith("energy capacity estimate e_b_max/delta_p = unbounded (k_i = 0)\n")


def test_tune_zero_target_is_usage_error(capsys):
    rc = main(["tune", "--target-hz", "0"])
    assert rc == 2
    assert "nonzero" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags",
    [
        ["--target-hz", "nan"],
        ["--target-hz", "inf"],
        ["--target-hz", "0.2", "--delta-p-gw", "nan"],
        ["--target-hz", "0.2", "--delta-p-gw", "inf"],
        ["--target-hz", "1e-320"],  # finite, but the droop gain overflows
    ],
)
def test_tune_rejected_value_is_usage_error(capsys, flags):
    """A design input that is not finite, or yields a non-finite design, is a usage error.
    The overflowing droop gain names the target it came from, not a controller field."""
    assert main(["tune"] + flags) == 2
    captured = capsys.readouterr()
    assert "error:" in captured.err and captured.out == ""
    if flags == ["--target-hz", "1e-320"]:
        assert "delta_omega_target" in captured.err and "nu " not in captured.err, captured.err


# ------------------------------------------------------------------ figure


def test_figure_fig3_content_and_determinism(tmp_path, capsys):
    d1 = tmp_path / "run1"
    d2 = tmp_path / "run2"
    assert main(["figure", "fig3", "--out-dir", str(d1)]) == 0
    assert main(["figure", "fig3", "--out-dir", str(d2)]) == 0
    b1 = (d1 / "fig3.csv").read_bytes()
    b2 = (d2 / "fig3.csv").read_bytes()
    assert b1 == b2, "figure regeneration must be byte-identical"
    lines = b1.decode().splitlines()
    assert lines[0] == "alpha_b,mv_min_exact,mv_min_linear"
    assert len(lines) == 1 + 61  # alpha_b in [0, 15] step 0.25
    first = lines[1].split(",")
    assert float(first[1]) == pytest.approx(57.6039, rel=1e-4)
    assert float(first[2]) == pytest.approx(55.62, rel=1e-9)


def test_figure_fig2_trajectories(tmp_path):
    """The two-inertia dataset: decimated to 10 ms, deeper dip at lower H."""
    assert main(["figure", "fig2", "--out-dir", str(tmp_path)]) == 0
    lines = (tmp_path / "fig2.csv").read_text().splitlines()
    assert lines[0] == "t,omega_hz_h4p06,omega_hz_h2p19"
    assert len(lines) == 1 + 3001  # 30 s at 10 ms plus t = 0
    rows = [list(map(float, r.split(","))) for r in lines[1:]]
    low_h_nadir = min(r[2] for r in rows)
    high_h_nadir = min(r[1] for r in rows)
    assert low_h_nadir < high_h_nadir < 0


# header of each trajectory figure, and the omega columns that recover above
# their running minimum by more than MONOTONE_TOL (the ones with a nadir)
TRAJECTORY_FIGURES = {
    "fig4": (
        "t,omega_pu_mv0,omega_pu_mv15,omega_pu_mv35,omega_pu_mv_min,omega_pu_mv100,omega_pu_mv150",
        {"omega_pu_mv0", "omega_pu_mv15", "omega_pu_mv35"},
    ),
    "fig7": (
        "t,omega_pu_nostorage,omega_pu_vi,p_m_pu_vi,p_b_norm_vi,e_b_norm_vi,"
        "omega_pu_idroop,p_m_pu_idroop,p_b_norm_idroop,e_b_norm_idroop",
        {"omega_pu_nostorage"},
    ),
    "fig10": (
        "t,omega_pu_taut0p25,omega_pu_taut0p5,omega_pu_taut1p0,omega_pu_taut1p5,omega_pu_taut2p0,omega_pu_taut3p0",
        {"omega_pu_taut1p5", "omega_pu_taut2p0", "omega_pu_taut3p0"},
    ),
    "fig11": ("t,omega_pu_vi,omega_pu_idroop", set()),
}


@pytest.mark.parametrize("fig", list(TRAJECTORY_FIGURES))
def test_figure_trajectory_datasets(tmp_path, fig):
    """Header, 10 ms rows, and which runs show a nadir: VI only from m_v_min on
    (fig4), the tuned iDroop only while the turbine is no slower than tau_i = 1 s
    (fig10), neither nadir-free tuning in fig7 nor with a dead-band (fig11)."""
    assert main(["figure", fig, "--out-dir", str(tmp_path)]) == 0
    header, with_nadir = TRAJECTORY_FIGURES[fig]
    lines = (tmp_path / f"{fig}.csv").read_text().splitlines()
    assert lines[0] == header
    assert len(lines) == 1 + 3001  # 30 s at 10 ms plus t = 0
    data = np.array([[float(c) for c in row.split(",")] for row in lines[1:]])
    cols = dict(zip(header.split(","), data.T))
    recovery = {name: np.max(x - np.minimum.accumulate(x)) for name, x in cols.items() if name.startswith("omega")}
    assert {name for name, r in recovery.items() if r > MONOTONE_TOL} == with_nadir
    grid = gb_reference_params()
    delta_p = pu_disturbance(1.8, grid)
    if fig == "fig7":  # the VI power peak is the first post-step sample, m_v/(2H + m_v) per unit step
        m_v = mv_min_exact(grid, 0.0)
        assert cols["p_b_norm_vi"][0] == pytest.approx(m_v / (2 * grid.inertia_h + m_v), abs=1e-12)
    if fig == "fig11":  # the no-dead-band minimum moved by the static shift w_db*alpha_g/sigma
        sigma = grid.load_damping_alpha_l + grid.gen_inv_droop_alpha_g
        expected = -delta_p / sigma - 0.0006 * grid.gen_inv_droop_alpha_g / sigma
        # boundary VI still approaches its minimum from above at 30 s (9.8e-9 pu short)
        assert cols["omega_pu_idroop"].min() == pytest.approx(expected, abs=1e-9)
        assert cols["omega_pu_vi"].min() == pytest.approx(expected, abs=2e-8)


def _csv_columns(path):
    """Header names and, per name, the column's cells as text."""
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    return dict(zip(header, zip(*(row.split(",") for row in lines[1:]))))


def test_figure_fig8_capacity_rows(tmp_path):
    """21 deviation targets; alpha_b is the droop designed for each, and the iDroop/VI
    storage power ratio rises strictly as the target tightens, from 0.6190 at alpha_b =
    0 to 0.8419 at alpha_b = 15."""
    assert main(["figure", "fig8", "--out-dir", str(tmp_path)]) == 0
    cols = _csv_columns(tmp_path / "fig8.csv")
    assert len(cols["delta_omega_pu"]) == 21
    grid = gb_reference_params()
    delta_p = pu_disturbance(1.8, grid)
    designed = [design_droop_from_target(delta_p, float(d), grid.gen_inv_droop_alpha_g) for d in cols["delta_omega_pu"]]
    assert list(cols["alpha_b"]) == [f"{a:.12g}" for a in designed]
    idroop = np.array(cols["p_b_max_norm_idroop_tuned"], dtype=float)
    vi = np.array(cols["p_b_max_norm_vi_min"], dtype=float)
    ratio = idroop / vi  # rows run from the tightest target to the loosest
    assert np.all(np.diff(ratio) < 0)
    assert designed[0] == pytest.approx(15.0) and ratio[0] == pytest.approx(0.8419, abs=1e-3)
    assert designed[-1] == pytest.approx(0.0) and ratio[-1] == pytest.approx(0.6190, abs=1e-3)


def test_figure_fig5_matches_mv_sweeps(tmp_path):
    """151 m_v rows; each alpha_b pair of columns is the mv sweep at that alpha_b, cell
    for cell, and the max deviation never rises with m_v."""
    assert main(["figure", "fig5", "--out-dir", str(tmp_path)]) == 0
    fig5 = _csv_columns(tmp_path / "fig5.csv")
    assert len(fig5["m_v"]) == 151
    for alpha_b in (0, 5, 10):
        out_dir = tmp_path / f"ab{alpha_b}"
        assert main(["sweep", "mv", "--alpha-b", str(alpha_b), "--out-dir", str(out_dir)]) == 0
        swept = _csv_columns(out_dir / "mv.csv")
        assert fig5["m_v"] == swept["m_v"]
        assert fig5[f"p_b_max_norm_ab{alpha_b}"] == swept["p_b_max_norm"]
        maxdev = fig5[f"max_deviation_pu_ab{alpha_b}"]
        assert list(maxdev) == [f"{abs(float(nadir)):.12g}" for nadir in swept["nadir_deviation"]]
        assert np.all(np.diff(np.array(maxdev, dtype=float)) <= 0)


def test_figure_unknown_id(tmp_path, capsys):
    assert main(["figure", "fig6", "--out-dir", str(tmp_path)]) == 2


def test_readme_lists_the_figure_ids_and_sweep_kinds():
    """README's figure table and `gridfreq sweep {...}` usage line name the CLI's choices, in order."""
    readme = (ROOT / "README.md").read_text()
    assert re.findall(r"^\| (fig\d+) +\|", readme, re.M) == list(_FIGURE_BUILDERS)
    assert re.findall(r"^gridfreq sweep \{([^}]*)\}", readme, re.M) == [",".join(_SWEEP_NAMES)]


# ------------------------------------------------------------------- sweep


def test_sweep_tau_t(tmp_path):
    """The tau-t sweep, and fig9 built from the same sweep: |nadir| per row."""
    rc = main(["sweep", "tau-t", "--out-dir", str(tmp_path)])
    assert rc == 0
    lines = (tmp_path / "tau_t.csv").read_text().splitlines()
    assert lines[0].startswith("tau_t,nadir_deviation,")
    assert len(lines) == 1 + 56  # 0.25 .. 3.0 step 0.05
    assert main(["figure", "fig9", "--out-dir", str(tmp_path)]) == 0
    fig9 = (tmp_path / "fig9.csv").read_text().splitlines()
    assert fig9[0] == "tau_t,max_deviation_pu"
    assert len(fig9) == len(lines)
    for sweep_row, fig_row in zip(lines[1:], fig9[1:]):
        tau_t, nadir = sweep_row.split(",")[:2]
        assert fig_row == f"{tau_t},{abs(float(nadir)):.12g}"


def test_sweep_alpha_b(tmp_path):
    """The alpha-b sweep retunes VI to its nadir-free boundary at every gain: 61 rows,
    all monotone, none with an error."""
    assert main(["sweep", "alpha-b", "--out-dir", str(tmp_path)]) == 0
    cols = _csv_columns(tmp_path / "alpha_b.csv")
    assert len(cols["alpha_b"]) == 61  # 0 .. 15 step 0.25
    assert set(cols["monotone"]) == {"true"} and set(cols["error"]) == {""}


@pytest.mark.parametrize(
    "flags",
    [["mv", "--alpha-b", "-1"], ["mv", "--alpha-b", "nan"], ["tau-t", "--step-gw", "inf"], ["tau-t", "--step-gw", "1e306"]],
)
def test_sweep_rejected_value_is_usage_error(tmp_path, capsys, flags):
    """A value the value types reject is a usage error before any point runs (a finite
    step past one system base ran every point into the divergence limit, 56 error rows)."""
    assert main(["sweep"] + flags + ["--out-dir", str(tmp_path)]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["alpha-b", "tau-t"])
def test_sweep_alpha_b_flag_is_for_mv_only(tmp_path, capsys, monkeypatch, kind):
    """--alpha-b sets the mv sweep's storage droop; with another kind it is one usage
    line before any run, not a flag that is silently ignored."""
    monkeypatch.setattr("gridfreq.cli.sweep", lambda *a, **k: pytest.fail("ran a sweep"))
    assert main(["sweep", kind, "--alpha-b", "5", "--out-dir", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: --alpha-b applies to the mv sweep only, not {kind}\n" and captured.out == ""
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [["sweep", "mv"], ["figure", "fig3"], ["figure", "fig8"]], ids="-".join)
@pytest.mark.parametrize("where", ["file", "under_file"])
def test_out_dir_that_is_a_file_is_usage_error(tmp_path, capsys, monkeypatch, argv, where):
    """An --out-dir that is an existing file, or lies under one, is refused before any
    run: nothing is simulated and nothing is written."""
    blocker = tmp_path / "blocker"
    blocker.write_text("keep\n")
    out_dir = blocker if where == "file" else blocker / "sub"
    monkeypatch.setattr("gridfreq.cli.sweep", lambda *a, **k: pytest.fail("ran a sweep"))
    monkeypatch.setattr("gridfreq.cli.capacity_curve", lambda *a, **k: pytest.fail("ran a capacity curve"))
    assert main(argv + ["--out-dir", str(out_dir)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: cannot write to {str(out_dir)!r}: ") and captured.out == ""
    assert blocker.read_text() == "keep\n"


@pytest.mark.parametrize(
    "argv, name",
    [(["sweep", "tau-t"], "tau_t.csv"), (["figure", "fig3"], "fig3.csv"), (["figure", "fig8"], "fig8.csv")],
    ids=["sweep-tau-t", "figure-fig3", "figure-fig8"],
)
def test_output_file_that_is_a_directory_is_usage_error(tmp_path, capsys, monkeypatch, argv, name):
    """An output file that is a directory is one usage error line before any run, with
    the message ``simulate`` gives for the same path, not an IsADirectoryError
    traceback after it."""
    (tmp_path / name).mkdir()
    monkeypatch.setattr("gridfreq.cli.sweep", lambda *a, **k: pytest.fail("ran a sweep"))
    monkeypatch.setattr("gridfreq.cli.capacity_curve", lambda *a, **k: pytest.fail("ran a capacity curve"))
    assert main(argv + ["--out-dir", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    expected = f"error: cannot write {str(tmp_path / name)!r}: not a file in an existing directory\n"
    assert captured.err == expected and captured.out == ""


@pytest.mark.parametrize(
    "argv, name, target, rc, exc",
    [
        (["sweep", "tau-t"], "tau_t.csv", "sweep", 2, ValueError("bad value")),
        (["figure", "fig8"], "fig8.csv", "capacity_curve", 3, IntegrationError(last_valid_time=8.0)),
    ],
    ids=["sweep-tau-t", "figure-fig8"],
)
def test_failed_run_keeps_the_existing_output(tmp_path, capsys, monkeypatch, argv, name, target, rc, exc):
    """A run that raises leaves an output file from an earlier run byte for byte as it
    was: no command opens its output before the run ends."""
    old = tmp_path / name
    old.write_bytes(b"earlier,run\n1,2\n")
    monkeypatch.setattr(cli, target, _raise(exc))
    assert main(argv + ["--out-dir", str(tmp_path)]) == rc
    captured = capsys.readouterr()
    assert captured.err == f"error: {exc}\n" and captured.out == ""
    assert old.read_bytes() == b"earlier,run\n1,2\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs the /dev/full device")
@pytest.mark.parametrize(
    "argv, name",
    [
        (["simulate", str(SCENARIO_DIR / "gb-idroop.scn"), "--horizon", "1", "--out"], "o.csv"),
        (
            ["simulate", str(SCENARIO_DIR / "gb-idroop.scn"), "--horizon", "1", "--out", "o.csv", "--metrics-out"],
            "m.txt",
        ),
        (["sweep", "tau-t", "--out-dir"], "tau_t.csv"),
        (["figure", "fig3", "--out-dir"], "fig3.csv"),
    ],
    ids=["simulate-out", "simulate-metrics-out", "sweep-tau-t", "figure-fig3"],
)
def test_output_the_os_refuses_while_writing_is_usage_error(tmp_path, capsys, monkeypatch, argv, name):
    """An output that opens but whose write or close fails, here a link to /dev/full,
    is one usage error line and exit 2, not an OSError traceback and exit 1."""
    monkeypatch.chdir(tmp_path)  # simulate's --out o.csv lands here
    full = tmp_path / name
    full.symlink_to("/dev/full")
    assert main(argv + [str(full if argv[0] == "simulate" else tmp_path)]) == 2
    assert capsys.readouterr().err == f"error: cannot write {str(full)!r}: No space left on device\n"


@pytest.mark.parametrize("flag", ["--out", "--metrics-out"])
@pytest.mark.parametrize("kind", ["dangling_link", "name_too_long"])
def test_simulate_output_the_file_system_refuses_is_usage_error(tmp_path, capsys, flag, kind):
    """An output path that passes the directory checks but cannot be opened (a link into a
    missing directory), or that the checks themselves cannot stat (a name longer than the
    file system allows), is one usage error line, not a traceback."""
    if kind == "dangling_link":
        bad = tmp_path / "link.csv"
        bad.symlink_to(tmp_path / "missing" / "x.csv")
    else:
        bad = tmp_path / ("x" * 300 + ".csv")
    paths = {"--out": str(tmp_path / "o.csv"), "--metrics-out": str(tmp_path / "m.txt"), flag: str(bad)}
    argv = ["simulate", str(SCENARIO_DIR / "gb-idroop.scn"), "--horizon", "1"]
    assert main(argv + [arg for item in paths.items() for arg in item]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {str(bad)!r}: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_sweep_unknown_kind():
    assert main(["sweep", "bogus"]) == 2


def test_no_command_is_usage_error():
    assert main([]) == 2


def test_python_m_gridfreq(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "gridfreq", "figure", "--help"],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: gridfreq figure")


def test_parser_reuse_matches_separate_processes(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # usage text wraps at the terminal width
    out = tmp_path / "traj.csv"
    scenario = str(SCENARIO_DIR / "gb-idroop.scn")
    calls = (
        ["simulate", scenario, "--out", str(out), "--dt", "fast"],
        ["simulate", scenario, "--out", str(out), "--horizon", "2"],
    )
    separate = []
    for argv in calls:
        proc = subprocess.run(
            [sys.executable, "-m", "gridfreq", *argv],
            env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
            capture_output=True,
            text=True,
            timeout=60,
        )
        separate.append((proc.returncode, proc.stdout, proc.stderr, out.exists() and out.read_bytes()))
    out.unlink()
    in_process = []
    for argv in calls:
        rc = main(argv)
        captured = capsys.readouterr()
        in_process.append((rc, captured.out, captured.err, out.exists() and out.read_bytes()))
    assert [r[0] for r in in_process] == [2, 0]
    assert in_process == separate

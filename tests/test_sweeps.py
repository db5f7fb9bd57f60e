"""Sweep engine and capacity curves.

Covers:
 - sweep mechanics: ordering, retune rules, per-point failure capture (and
   its CSV row: empty metric cells and the error text), rejection of swept
   names that are not dataclass fields
 - the saturation shape of the virtual-inertia sweep (steep below the
   boundary, flat above, ratio >= 100x)
 - turbine-time-constant robustness of the tuned lag droop (flat for
   tau_T <= tau_i, rising beyond)
 - dead-band comparison: nadir-free tunings stay monotone and the final
   deviation shifts by at most w_db * a_g / sigma (+10% margin)
 - sweep points of the benchmark's four shapes and capacity curves of the
   three strategies never read the trajectory's time column, nor sample its
   theta, p_m and x_c rows
 - capacity curves: alpha_b = 0 start, lag droop beating virtual inertia
   on power, energy matching alpha_b / k_i; a capacity point's traced
   memory, with the energy run's window holding only the state rows
 - ten warm sweep points, and ten warm capacity points, in a fresh interpreter
   fault in no memory they freed
"""

import io
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import gridfreq
from gridfreq import (
    Disturbance,
    Droop,
    IDroop,
    NoStorage,
    Scenario,
    SimOptions,
    SweepSpec,
    VirtualInertia,
    capacity_curve,
    extract_metrics,
    gb_reference_params,
    mv_min_exact,
    simulate,
    sweep,
    vi_min_retune,
    write_sweep_csv,
)

GB = gb_reference_params()
DP = 0.05625
FROZEN = SimOptions(dt=1e-3, horizon=30.0, freeze_secondary=True)


def _base(controller, grid=GB, sim=FROZEN):
    return Scenario(grid=grid, controller=controller, disturbance=Disturbance(step_pu=DP), sim=sim)


# ---------------------------------------------------------------- mechanics


def test_sweep_rows_follow_input_order():
    spec = SweepSpec(
        base=_base(VirtualInertia(m_v=0.0, alpha_b=0.0)),
        parameter="controller.m_v",
        values=[50.0, 0.0, 100.0],
    )
    points = sweep(spec)
    assert [p.value for p in points] == [50.0, 0.0, 100.0]
    assert all(p.metrics is not None for p in points)


def test_sweep_records_per_point_failures():
    """A diverging point is captured in its row; the sweep continues."""
    spec = SweepSpec(
        base=_base(IDroop.nadir_tuned(GB, 0.0), sim=SimOptions(dt=1e-3, horizon=40.0, freeze_secondary=True)),
        parameter="sim.dt",
        values=[1e-3, 2.0, 1e-2],  # dt = 2 s is far outside RK4 stability
    )
    points = sweep(spec)
    assert points[0].error is None and points[0].metrics is not None
    assert points[1].error is not None and points[1].metrics is None
    assert points[2].error is None


def test_sweep_csv_row_of_a_diverging_point():
    """A point that diverges (RK4 at dt = 2 s) is written as its value, empty metric
    cells and the error text."""
    spec = SweepSpec(
        base=_base(IDroop.nadir_tuned(GB, 0.0), sim=SimOptions(dt=2.0, horizon=400.0, freeze_secondary=True)),
        parameter="controller.alpha_b",
        values=[0.0],
    )
    buf = io.StringIO()
    write_sweep_csv(sweep(spec), buf, value_name="alpha_b")
    header, row = buf.getvalue().splitlines()
    cells = row.split(",")
    assert len(cells) == len(header.split(","))
    assert cells[0] == "0" and all(cell == "" for cell in cells[1:-1])
    assert cells[-1] == "integration diverged; last valid time 8 s"


def test_sweep_rejects_bad_paths():
    with pytest.raises(ValueError):
        SweepSpec(base=_base(NoStorage()), parameter="controller", values=[1.0])
    with pytest.raises(ValueError):
        SweepSpec(base=_base(NoStorage()), parameter="nonsense.m_v", values=[1.0])
    with pytest.raises(ValueError):
        SweepSpec(base=_base(NoStorage()), parameter="controller.m_v", values=[])
    spec = SweepSpec(base=_base(NoStorage()), parameter="controller.m_v", values=[1.0])
    with pytest.raises(ValueError):
        sweep(spec)  # NoStorage has no m_v field
    # attributes that are not dataclass fields are not sweepable either
    for controller, name in ((NoStorage(), "alpha_b"), (Droop(alpha_b=1.0), "realization")):
        spec = SweepSpec(base=_base(controller), parameter=f"controller.{name}", values=[1.0])
        with pytest.raises(ValueError, match="has no field"):
            sweep(spec)


def test_retune_rules():
    sc = _base(VirtualInertia(m_v=0.0, alpha_b=2.0))
    retuned = vi_min_retune(sc)
    assert retuned.controller.m_v == pytest.approx(mv_min_exact(GB, 2.0), rel=1e-13)


def test_sweep_csv_layout():
    spec = SweepSpec(
        base=_base(VirtualInertia(m_v=0.0, alpha_b=0.0), sim=SimOptions(dt=1e-2, horizon=10.0, freeze_secondary=True)),
        parameter="controller.m_v",
        values=[0.0, 60.0],
    )
    buf = io.StringIO()
    write_sweep_csv(sweep(spec), buf, value_name="m_v")
    lines = buf.getvalue().splitlines()
    assert lines[0].startswith("m_v,nadir_deviation,")
    assert lines[0].endswith(",error")
    assert len(lines) == 3


# ---------------------------------------------------------------- shape: m_v


@pytest.mark.parametrize("alpha_b", [0.0, 5.0, 10.0])
def test_mv_saturation(alpha_b):
    """Max deviation is >= 100x more sensitive to m_v below the boundary.

    The below-boundary slope is probed in the sensitive region (25..45% of
    the boundary inertia); the above-boundary probes use a 60 s horizon so
    the slow large-inertia responses are fully settled and the flatness of
    the true maximum deviation is what gets measured.
    """
    mv_crit = mv_min_exact(GB, alpha_b)
    values = [0.25 * mv_crit, 0.45 * mv_crit, mv_crit + 20.0, mv_crit + 40.0]
    spec = SweepSpec(
        base=_base(
            VirtualInertia(m_v=0.0, alpha_b=alpha_b),
            sim=SimOptions(dt=1e-3, horizon=60.0, freeze_secondary=True),
        ),
        parameter="controller.m_v",
        values=values,
    )
    pts = sweep(spec)
    dev = [abs(p.metrics.nadir_deviation) for p in pts]
    slope_below = abs(dev[1] - dev[0]) / (values[1] - values[0])
    slope_above = abs(dev[3] - dev[2]) / 20.0
    print(f"\n  alpha_b={alpha_b}: slope below {slope_below:.3e}, above {slope_above:.3e}")
    assert slope_below >= 100.0 * slope_above


# ------------------------------------------------------------- shape: tau_T


def test_turbine_robustness_asymmetry():
    """Tuned lag droop: flat max deviation for tau_T <= tau_i, rising beyond."""
    controller = IDroop.nadir_tuned(GB, 0.0)  # tau_i = 1 s fixed
    spec = SweepSpec(
        base=_base(controller),
        parameter="grid.turbine_tau",
        values=[0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0],
    )
    pts = sweep(spec)
    dev = [abs(p.metrics.nadir_deviation) for p in pts]
    flat = dev[:4]
    assert max(flat) - min(flat) <= 1e-5
    rising = dev[3:]
    assert all(b > a for a, b in zip(rising, rising[1:]))
    print(f"\n  max deviation over tau_T: {['%.6e' % d for d in dev]}")


# ---------------------------------------------------------- dead-band shape


def test_deadband_shift_bound():
    """Final-deviation shift <= w_db * a_g / sigma * 1.1; monotone preserved."""
    w_db = 0.0006
    grid_db = gb_reference_params(deadband_omega_db=w_db)
    sigma = 1.0 + 15.0 + 0.0
    bound = w_db * 15.0 / sigma * 1.1
    for controller in (
        VirtualInertia(m_v=mv_min_exact(GB, 0.0), alpha_b=0.0),
        IDroop.nadir_tuned(GB, 0.0),
    ):
        plain = simulate(_base(controller))
        withdb = simulate(_base(controller, grid=grid_db))
        shift = abs(withdb.omega[-1]) - abs(plain.omega[-1])
        print(f"\n  {type(controller).__name__}: shift {shift:.4e} (bound {bound:.4e})")
        assert 0.0 <= shift <= bound
        assert extract_metrics(withdb, monotone_tol=1e-5).monotone


# ------------------------------------------------------------ capacity curve


def test_capacity_curves():
    sigma_free = DP / 15.0  # deviation the generators reach on their own
    # the first three targets size alpha_b to 3, 2 and 1.5 pu
    targets = [DP / 18.0, DP / 17.0, DP / 16.5, round(sigma_free, 10), 0.0039]
    curves = {
        strategy: capacity_curve(GB, strategy, targets, DP)
        for strategy in ("droop", "vi_min", "idroop_tuned")
    }
    for pts in curves.values():
        assert [p.feasible for p in pts] == [True] * len(targets)

    # targets at and beyond the alpha_b = 0 start carry no storage droop
    for pts in curves.values():
        assert pts[3].alpha_b == pytest.approx(0.0, abs=1e-9)
        assert pts[4].alpha_b == 0.0
        assert pts[4].p_b_max_norm == pytest.approx(pts[3].p_b_max_norm, rel=1e-6)

    # the lag droop needs less power capacity than boundary virtual inertia
    for a, b in zip(curves["idroop_tuned"], curves["vi_min"]):
        assert a.p_b_max_norm < b.p_b_max_norm

    # energy requirement tracks alpha_b / k_i for non-negligible alpha_b
    # (tight targets only: the 1200 s energy run captures 1 - e^(-1200/tau_s)
    # of the limit, tau_s = (a_l + a_g + alpha_b) / k_i the slow-mode time
    # constant, which stays within 5% only up to alpha_b ~ 4)
    for pts in (curves["idroop_tuned"], curves["vi_min"]):
        for p in pts[:3]:
            assert p.alpha_b > 1.0
            expected = p.alpha_b / GB.secondary_gain_k_i
            assert p.e_b_max_norm == pytest.approx(expected, rel=0.05), p


def _bench_shape_results():
    """A point of each benchmark sweep shape and a capacity curve of each strategy."""
    base = Scenario(GB, VirtualInertia(m_v=0.0, alpha_b=4.0), Disturbance(step_pu=DP), FROZEN)
    specs = [
        SweepSpec(base=base, parameter="controller.m_v", values=[40.0]),
        SweepSpec(
            base=_base(VirtualInertia(m_v=0.0, alpha_b=0.0)), parameter="controller.alpha_b", values=[6.0], retune=vi_min_retune
        ),
        SweepSpec(base=_base(Droop(alpha_b=0.0)), parameter="controller.alpha_b", values=[6.0]),
        SweepSpec(base=_base(IDroop.nadir_tuned(GB, 2.0)), parameter="grid.turbine_tau", values=[2.5]),
    ]
    return [repr(sweep(spec)) for spec in specs] + [
        repr(capacity_curve(GB, strategy, [2.5e-3], DP)) for strategy in ("droop", "vi_min", "idroop_tuned")
    ]


def test_sweeps_and_capacity_curves_never_read_the_time_column(monkeypatch):
    """A sweep point reduces its trajectory without its time column, which is built only
    on a read: with ``Trajectory.t`` raising, a point of each benchmark sweep shape and
    a capacity curve of each strategy complete, equal to the unpatched results."""
    want = _bench_shape_results()
    monkeypatch.setattr(sys.modules["gridfreq.simulate"].Trajectory, "t", property(lambda traj: pytest.fail("read t")))
    with pytest.raises(pytest.fail.Exception):
        simulate(_base(VirtualInertia(m_v=0.0, alpha_b=4.0))).t
    assert _bench_shape_results() == want


def test_sweeps_and_capacity_curves_never_sample_the_deferred_rows(monkeypatch):
    """theta, p_m and x_c, which no metric reads, are sampled only on their first read,
    and no sweep point or capacity curve reads them: with ``Trajectory.theta``, ``.p_m``
    and ``.x_c`` raising, a point of each benchmark sweep shape and a capacity curve of
    each strategy complete, equal to the unpatched results."""
    want = _bench_shape_results()
    trajectory = sys.modules["gridfreq.simulate"].Trajectory
    for name in ("theta", "p_m", "x_c"):
        monkeypatch.setattr(trajectory, name, property(lambda traj, name=name: pytest.fail(f"read {name}")))
    traj = simulate(_base(Droop(alpha_b=1.0)))
    with pytest.raises(pytest.fail.Exception):
        traj.p_m
    assert _bench_shape_results() == want


def test_capacity_point_working_memory_is_small():
    """A capacity point reduces its two runs to their maxima in one window of the
    sampler: no trajectory of the 1200 s energy run is built."""
    capacity_curve(GB, "idroop_tuned", [0.003], DP)  # the first call builds lazy tables
    tracemalloc.start()
    try:
        capacity_curve(GB, "idroop_tuned", [0.003], DP)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    print(f"\n  traced peak of one capacity point: {peak / 1e6:.2f} MB")
    assert peak < 5e6


def test_capacity_point_window_holds_only_the_rows_it_reads():
    """The 1200 s energy run's window holds the five states alone, not p_b and omega_dot
    too: a warm capacity point's traced peak is 2.90 MB, against 3.95 MB with seven rows."""
    capacity_curve(GB, "droop", [2.5e-3], DP)
    tracemalloc.start()
    try:
        capacity_curve(GB, "droop", [2.5e-3], DP)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3.4e6


# Thirteen calls in a fresh interpreter, as the benchmark worker runs them, from the
# ``points`` the probe is formatted with: three warm it up, and it prints the minor page
# faults the other ten took.
FAULT_PROBE = """
import resource
from gridfreq import (Disturbance, Droop, Scenario, SimOptions, SweepSpec, capacity_curve,
                      gb_reference_params, sweep)

{points}
for point in points[:3]:
    point()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for point in points[3:]:
    point()
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""

# One-value sweep points, 30 s at 1 ms.
SWEEP_POINTS = """
base = Scenario(gb_reference_params(), Droop(alpha_b=0.0), Disturbance(step_pu=0.05625),
                SimOptions(dt=1e-3, horizon=30.0, freeze_secondary=True))
points = [lambda v=1.5 * k: sweep(SweepSpec(base=base, parameter="controller.alpha_b", values=[v]))
          for k in range(13)]
"""

# Single-target capacity points, the benchmark's: a 30 s run at 1 ms and a 1200 s run at
# 10 ms each, cycling the three strategies over fig8's target range.
CAPACITY_POINTS = """
strategies = ("droop", "vi_min", "idroop_tuned")
points = [lambda k=k: capacity_curve(gb_reference_params(), strategies[k % 3], [1.875e-3 + 1.5e-4 * k], 0.05625)
          for k in range(13)]
"""


def _faults(tmp_path, points):
    """Minor page faults of ten warm points of ``points`` in a fresh interpreter."""
    env = {**os.environ, "PYTHONPATH": str(Path(gridfreq.__file__).resolve().parents[1])}
    probe = tmp_path / "probe.py"
    probe.write_text(FAULT_PROBE.format(points=points), encoding="utf-8")
    proc = subprocess.run([sys.executable, str(probe)], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return int(proc.stdout)


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="minor page faults are counted on Linux")
def test_sweep_points_do_not_fault_pages_in(tmp_path):
    """Warm sweep points reuse the allocator's pages.  A point whose freed memory is
    trimmed from the heap faults it in again at the next one, ~560 minor faults per
    point; ten warm points take a handful.  The probe runs as a script in a fresh
    interpreter, as the benchmark worker does: the test run's own allocations have moved
    the allocator's thresholds, and in this process the three-array trajectory that takes
    ~5600 faults in a fresh one read 0."""
    faults = _faults(tmp_path, SWEEP_POINTS)
    print(f"\n  minor page faults over ten warm sweep points: {faults}")
    assert faults <= 64


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="minor page faults are counted on Linux")
def test_capacity_points_do_not_fault_pages_in(tmp_path):
    """Warm capacity points reuse the allocator's pages too.  Each run's first chunk
    fills its whole window in one product (1 + 256 * 256 columns of 5 rows, 2.6 MB, on
    the 1200 s run); ten warm points take a handful of minor faults, not one per window
    page."""
    faults = _faults(tmp_path, CAPACITY_POINTS)
    print(f"\n  minor page faults over ten warm capacity points: {faults}")
    assert faults <= 64


def test_capacity_curve_flags_zero_target():
    pts = capacity_curve(GB, "droop", [0.0, 0.003], DP)
    assert not pts[0].feasible
    assert pts[1].feasible


def test_capacity_curve_validation():
    with pytest.raises(ValueError):
        capacity_curve(GB, "bogus", [0.003], DP)
    with pytest.raises(ValueError):
        capacity_curve(gb_reference_params(secondary_gain_k_i=0.0), "droop", [0.003], DP)

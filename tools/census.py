"""Byte-identity census of gridfreq's outputs: one ``sha256 name`` line per output.

Run it on two source trees and diff what it prints; every line the same means
every output is byte for byte the same::

    PYTHONPATH=src python tools/census.py > after.txt
    PYTHONPATH=/path/to/other/checkout/src python tools/census.py > before.txt
    diff before.txt after.txt

The census covers:

- ``gridfreq simulate`` on each bundled scenario (``scenarios/*.scn``, read
  from this checkout), as-is and with ``--step-gw 2.3 --deadband-mhz 20``,
  through ``cli.main``: the trajectory CSV, the metrics file and the exit code
  with stdout and stderr, the temporary output directory replaced by
  ``<out>``;
- every ``gridfreq figure`` id and every ``gridfreq sweep`` kind: the CSV and
  the exit code with stdout and stderr, the same way;
- a seeded set of runs on random GB-like grids: every trajectory row, read in
  field order and in reverse; the metrics at tolerances 0 and 1e-6; both
  storage maxima; a trajectory CSV for every tenth run; and the last valid
  time of each run that diverges.  Floats are hashed by ``hex`` and rows by
  their bytes, so -0.0 and 0.0 differ.  ``capacity_curve`` for every strategy
  at four targets closes it.

It needs numpy and the package only, and runs in seconds.
"""

from __future__ import annotations

import hashlib
import io
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace
from pathlib import Path

import numpy as np

from gridfreq import cli
from gridfreq.controllers import Droop, IDroop, NoStorage, VirtualInertia
from gridfreq.model import Disturbance, Scenario, SimOptions, gb_reference_params
from gridfreq.simulate import METRIC_FIELDS, IntegrationError, _storage_maxima, extract_metrics, simulate, write_trajectory_csv
from gridfreq.sweeps import capacity_curve
from gridfreq.tuning import mv_min_exact

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"
ROW_NAMES = ("theta", "omega", "p_m", "e_b", "x_c", "p_b", "omega_dot")
SEEDS = (2031, 2032)


def emit(name: str, data: bytes) -> None:
    print(hashlib.sha256(data).hexdigest(), name)


def run_cli(name: str, argv: list[str], out_dir: str) -> None:
    """Run ``cli.main(argv)`` and emit its exit code with what it printed."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        code = cli.main(argv)
    text = f"exit {code}\n{stdout.getvalue()}\n{stderr.getvalue()}".replace(out_dir, "<out>")
    emit(f"{name}/stdout", text.encode())


def emit_file(name: str, path: Path) -> None:
    emit(name, path.read_bytes() if path.exists() else b"<missing>")


def census_commands() -> None:
    with tempfile.TemporaryDirectory() as out_dir:
        for path in sorted(SCENARIO_DIR.glob("*.scn")):
            for variant, extra in (("as-is", []), ("step-2.3-db-20", ["--step-gw", "2.3", "--deadband-mhz", "20"])):
                name = f"simulate/{path.stem}/{variant}"
                csv = Path(out_dir) / f"{path.stem}-{variant}.csv"
                run_cli(name, ["simulate", str(path), "--out", str(csv), *extra], out_dir)
                emit_file(f"{name}/csv", csv)
                emit_file(f"{name}/metrics", csv.with_suffix(".metrics.txt"))
        for fig in cli._FIGURE_BUILDERS:
            run_cli(f"figure/{fig}", ["figure", fig, "--out-dir", out_dir], out_dir)
            emit_file(f"figure/{fig}/csv", Path(out_dir) / f"{fig}.csv")
        for kind, (stem, _) in cli._SWEEP_NAMES.items():
            run_cli(f"sweep/{kind}", ["sweep", kind, "--out-dir", out_dir], out_dir)
            emit_file(f"sweep/{kind}/csv", Path(out_dir) / f"{stem}.csv")


def random_runs(rng: np.random.RandomState):
    """(name, scenario) of the seeded set: 40 random grids x 5 laws x {RK4 frozen, exact
    frozen, RK4 with k_i}, 40 dead-band runs and 12 RK4 runs at steps of 0.5-2.5 s."""
    for g in range(40):
        grid = gb_reference_params(
            inertia_h=rng.uniform(1.0, 6.0),
            turbine_tau=rng.uniform(0.25, 3.0),
            load_damping_alpha_l=rng.uniform(0.0, 2.0),
            gen_inv_droop_alpha_g=rng.uniform(5.0, 30.0),
            secondary_gain_k_i=rng.uniform(0.02, 0.2),
        )
        alpha_b = rng.uniform(0.0, 15.0)
        laws = (
            NoStorage(),
            Droop(alpha_b=alpha_b),
            VirtualInertia(m_v=max(0.0, mv_min_exact(grid, alpha_b)), alpha_b=alpha_b),
            IDroop.nadir_tuned(grid, alpha_b),
            IDroop(nu=alpha_b + rng.uniform(1.0, 30.0), tau_i=rng.uniform(0.25, 3.0), alpha_b=alpha_b),
        )
        disturbance = Disturbance(step_pu=rng.choice([-1.0, 1.0]) * rng.uniform(0.01, 0.1), step_time=rng.uniform(0.0, 2.0))
        sim = SimOptions(dt=1e-2, horizon=rng.uniform(5.0, 60.0), freeze_secondary=True)
        for j, law in enumerate(laws):
            for path, opts in (("rk4", sim), ("exact", replace(sim, exact=True)), ("rk4-ki", replace(sim, freeze_secondary=False))):
                yield f"grid{g}/law{j}/{path}", Scenario(grid, law, disturbance, opts)
        db = gb_reference_params(deadband_omega_db=rng.uniform(2e-4, 2e-3), secondary_gain_k_i=grid.secondary_gain_k_i)
        yield f"grid{g}/deadband", Scenario(db, laws[rng.randint(5)], disturbance, replace(sim, freeze_secondary=False))
        if g % 10 < 3:
            opts = SimOptions(dt=rng.uniform(0.5, 2.5), horizon=400.0, freeze_secondary=True)
            yield f"grid{g}/coarse", Scenario(rng.choice([grid, db]), laws[rng.randint(5)], disturbance, opts)


def census_runs() -> None:
    for seed in SEEDS:
        for i, (name, sc) in enumerate(random_runs(np.random.RandomState(seed))):
            name = f"seed{seed}/{name}"
            try:
                traj = simulate(sc)
            except IntegrationError as exc:
                emit(f"{name}/diverged", float(exc.last_valid_time).hex().encode())
                continue
            emit(f"{name}/rows", b"".join(getattr(traj, row).tobytes() for row in ROW_NAMES))
            traj = simulate(sc)
            emit(f"{name}/rows-reversed", b"".join(getattr(traj, row).tobytes() for row in ROW_NAMES[::-1]))
            for tol in (0.0, 1e-6):
                metrics = extract_metrics(simulate(sc), tol)
                values = [getattr(metrics, f) for f in METRIC_FIELDS]
                emit(f"{name}/metrics-{tol:g}", repr([v.hex() if isinstance(v, float) else v for v in values]).encode())
            emit(f"{name}/maxima", repr([_storage_maxima(sc, q).hex() for q in ("p_b", "e_b")]).encode())
            if i % 10 == 0:
                stream = io.StringIO()
                write_trajectory_csv(simulate(sc), stream)
                emit(f"{name}/csv", stream.getvalue().encode())
    grid = gb_reference_params()
    targets = [1.875e-3, 2.5e-3, 3.125e-3, 3.75e-3]
    for strategy in ("droop", "vi_min", "idroop_tuned"):
        points = capacity_curve(grid, strategy, targets, 0.05625)
        emit(f"capacity/{strategy}", repr([(p.alpha_b.hex(), p.p_b_max_norm.hex(), p.e_b_max_norm.hex()) for p in points]).encode())


def main() -> int:
    census_commands()
    census_runs()
    return 0


if __name__ == "__main__":
    sys.exit(main())

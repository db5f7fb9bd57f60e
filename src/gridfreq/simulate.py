"""Fixed-step integrator for the closed frequency-control loop.

Every storage law is integrated through one realization of the generic law
c(s) = -(m_v s + nu) + g / (tau_i s + 1), whose coefficients come from
:attr:`~gridfreq.controllers.StorageController.realization`.  Dynamics (all
per-unit, time in seconds):

    d theta / dt = omega
    (2H + m_v) d omega / dt = p_m - p_L(t) - alpha_l * omega + x_c - nu * omega
    tau_T d p_m / dt = -p_m + phi(omega) - k_i * theta
    d e_b / dt = p_b = x_c - nu * omega - m_v * d omega / dt
    tau_i d x_c / dt = -x_c + g * omega

where phi is the governor response with an optional dead-band
(:func:`deadband_response`), and p_L is a step of ``step_pu`` at
``step_time``.  The derivative term of the law is realized by inertia
augmentation: m_v moves into the swing equation, and the recorded storage
output is reconstructed from the algebraic omega_dot.  This is identical
to the ideal law and avoids numerical differentiation.

Two fixed-step methods sample the loop (default dt 1 ms): RK4, the
default, and ``SimOptions.exact``.  Over x = (theta, omega, p_m, e_b, x_c,
p_L), with the held imbalance as a state (Van Loan, 1978), the loop without
a dead-band is linear, dx/dt = A x, and either method is one fixed step
matrix: x_{k+1} = Phi x_k with Phi = R(A dt), R(m) = I + m + m^2/2 + m^3/6
+ m^4/24, for RK4, and Phi = expm(A dt) (a scaled and squared Taylor
series, Higham 2005) for ``exact``.  One sampler propagates both through
powers of Phi, so RK4 keeps its truncation error and stability region at
the cost of the exact path.  The smallest closed-loop time constant in the
parameter ranges of interest is ~0.27 s, far inside RK4's accuracy and
stability region.

A governor dead-band is the only nonlinearity, and it is continuous and
piecewise linear: phi = -alpha_g omega + alpha_g clip(omega, -omega_db,
omega_db).  Below, inside and above the band the loop is affine, with its
own matrix M_r, and an RK4 step whose four stage omegas stay in one region
is x <- R(M_r dt) x.  So with a dead-band RK4 runs piecewise-affine, region
by region through the powers of each region's step matrix, and at each band
crossing, a step whose stages leave the region, takes one RK4 step over A
plus the dead-band's correction, without event detection.  ``exact`` has
no such form and then leaves RK4 in charge.

The sampler works in blocks of 256 steps and chunks of blocks.  Block i of
a chunk starts at Phi^(256 i) z, from a per-region table of those powers.
A second per-region table holds, for j = 1 .. 256, the state rows of Phi^j
and the outputs c Phi^j, with c the rows of A that give p_b and omega_dot,
so one matrix product of the block starts with it writes every sample of
the chunk, states and outputs alike, with no pass after it.  The largest
chunk is the largest power of two blocks a run holds.  A linear run never
crosses a band, so it starts at the largest chunk and takes two products
(one if its blocks are a power of two): a 30 s run at 1 ms 64 + 54 blocks,
a 1200 s run at 10 ms 256 + 213.  A dead-band run starts at one block,
doubles while the RK4 stages stay in the region, up to the largest chunk,
and starts again at one block after each band crossing, so it discards at
most one chunk per crossing.

One sampler has two consumers, and each steps a run once, by one rule:
the pass samples what it must, records every linear chunk, and each
consumer samples what it reads from that record.  The chunk loop is one
generator that writes each chunk into the buffer it is given and yields
each accepted run of samples.  A linear chunk samples only the states of
its last two blocks, where the next chunk starts, and omega where the
divergence test needs it, and records its block starts, sample table and
columns.  Omega is needed only where a bound fails: every |omega| of a
block is at most reach . |h| for its start h, with reach_m = max_j
|(Phi^j)[1, m]| from the region's table.  A chunk whose blocks all bound
below half the divergence limit cannot diverge; any other samples omega and
scans it, for both consumers, so a run raises at the same last valid time.
Each row of a chunk is one product of the chunk's block starts with the
row's table (:func:`_sample_rows`), so its bits do not depend on which
other rows are sampled, or when.  :func:`simulate` gives the generator the
trajectory's block, so every sample is written in place, and the
:class:`Trajectory` keeps the record and samples each row on its first
read.  :func:`_storage_maxima`, which sizes storage for capacity curves,
gives it a window as wide as the largest chunk, samples p_b or e_b alone
from each run's chunk before the window moves, and keeps only its running
maximum, so the maxima are the trajectory's, bit for bit.  The bound holds
inside each region of a dead-band run too, as its samples are powers of
that region's Phi; such a run samples every row in its pass and records no
chunk, since the rows that screen a step's region read every state, and
each band crossing step keeps a check of its own.  The number of states
comes from A alone: a block has a row per state of A but the held p_L, and
two for the outputs, and only :func:`_assemble` knows what the states are.

Every path holds the imbalance at its step-start value within each step,
exact for the piecewise-constant input; a ``step_time`` that is not a
multiple of dt effectively snaps to the next sample instant.

Samples record, per step k: state, the storage output p_b, and the
algebraic omega_dot, both evaluated at the sample instant t_k = k dt with
the disturbance already applied for t >= step_time.  The first sample is
the pre-disturbance equilibrium state (all zeros), and a zero-magnitude
disturbance reproduces the all-zero trajectory exactly.

A run is one block, a row per state and the outputs p_b and omega_dot,
allocated once, and each sampled array of the :class:`Trajectory` is one
row.  The metrics read omega, e_b, p_b and omega_dot; theta, p_m and x_c
are read by the CSV writer and the trajectory figures, never by a sweep or
capacity curve.  A diverging run raises from :func:`simulate`, and a run
that samples nothing has every row zero.  The time column is no row:
``Trajectory.t`` builds k dt on its first read, which no sweep or capacity
curve makes.  The one block is for glibc's allocator: it raises its mmap
threshold to the largest block freed and its trim threshold to twice that.
With three arrays, the largest 1.2 MB, a 30 s / 1 ms sweep point freed
~2.5 MB, over the 2.4 MB trim threshold, so the heap was trimmed and its
pages faulted in again at the next point (560 minor faults per point).  The
1.69 MB block raises the trim threshold to 3.4 MB, and the pages are reused
(0 faults).  The block is not zero-filled: the sampler writes every column
of a row it samples from the step's first sample on, and only the columns
before it are zeroed (every column when nothing is sampled).

:func:`extract_metrics` reduces a trajectory with whole-array min, max,
argmin and argmax, bit for bit what the running-extreme scans of the
metrics' definitions give; a scan runs only over a prefix that moves
against the step before its extreme.  It reads no time column: a time is
k dt for the sample k it picks, the bits of t[k].

CSV cells (:func:`write_trajectory_csv`, :func:`write_csv_rows`) are byte
for byte what Python's ``"%.12g" %`` prints, formatted in numpy 1024 rows
at a time.  A cell's 12 digits are round(|v| 10^(11 - e)) for its decimal
exponent e, which a table indexed by the float's binary exponent gives.
One product |v| 10^(11 - e) is within 2.3e-4 of that, so only cells within
1e-3 of a rounding tie are scaled again, by a double-double power of ten,
exactly enough to know the rounding digit.  The text is gathered as
fixed-width words from tables and stripped of padding.  Values within 1e-9
of a tie, non-finite values and magnitudes outside [2^-933, 1e12) go to
``%``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import cache, cached_property
from typing import Iterator, Sequence, TextIO

import numpy as np

from .model import GridParams, Scenario, require_bound

__all__ = [
    "IntegrationError",
    "Trajectory",
    "Metrics",
    "METRIC_FIELDS",
    "deadband_response",
    "simulate",
    "extract_metrics",
    "write_trajectory_csv",
    "write_csv_rows",
    "format_metrics",
]

# A |omega| beyond this is treated as divergence; the deviations of interest
# are O(1e-3) pu.
_DIVERGENCE_LIMIT = 1e6

# Default tolerance separating a true nadir from integrator jitter: a
# response is monotone while its recovery above the running minimum stays
# within this bound.
MONOTONE_TOL = 1e-6

# Relative depth within which a sample counts as the nadir when timing it.
_NADIR_RTOL = 1e-12

TRAJECTORY_CSV_HEADER = "t,omega_pu,omega_hz,p_m_pu,p_b_pu,e_b_pu_s,theta_pu_s"
# Rows formatted per write: few Python-level calls, little text in memory.
_CSV_CHUNK = 1024
# Decimal exponents of the cells formatted in numpy, after rounding: |v| in [2^-933, 1e12).
_E_MIN, _E_MAX = -281, 12

# Samples per block, from Phi^j - I for j <= _BLOCK; a chunk of blocks is one product.
_BLOCK = 256


class IntegrationError(RuntimeError):
    """The state left the finite range; carries the last valid time."""

    def __init__(self, last_valid_time: float):
        super().__init__(f"integration diverged; last valid time {last_valid_time:.6g} s")
        self.last_valid_time = last_valid_time


def deadband_response(omega: float, omega_db: float, alpha_g: float) -> float:
    """Governor droop response with a +-omega_db dead-band.

    Continuous piecewise-linear: -alpha_g (omega + omega_db) below the band,
    zero inside, -alpha_g (omega - omega_db) above.  omega_db = 0 reduces to
    the plain -alpha_g * omega.
    """
    require_bound("omega_db", omega_db)
    if omega_db == 0.0:
        return -alpha_g * omega
    if omega <= -omega_db:
        return -alpha_g * (omega + omega_db)
    if omega >= omega_db:
        return -alpha_g * (omega - omega_db)
    return 0.0


def _sample_rows(chunks: Sequence[tuple], q: int) -> None:
    """Sample row q of each recorded chunk (heads, table, chunk) in place: the product of
    the chunk's block starts with the row's table, the same bits whenever it is taken.
    A chunk's last block may run past sample n and overflow on an unstable step."""
    with np.errstate(over="ignore", invalid="ignore"):
        for heads, table, chunk in chunks:
            np.matmul(heads, table[q], out=chunk[q])


def _row(q: int) -> cached_property:
    """Row q of a trajectory's samples, sampled from its recorded chunks on its first read."""

    def read(traj: Trajectory) -> np.ndarray:
        _sample_rows(traj.chunks, q)
        return traj.samples[q]

    return cached_property(read)


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Uniformly sampled closed-loop response.

    ``samples`` is an (s + 2, n_samples) view of one block for the s states
    of the loop: the states theta, omega, p_m, e_b, x_c in that order, then
    p_b and omega_dot as the last two rows, each read as the attribute of
    that name; sample 0 is the pre-disturbance equilibrium.  ``p_b`` and
    ``omega_dot`` are evaluated at the sample instants (disturbance active for
    t >= step_time), sampled with the states from the same tables, never from
    the stored states.  The block is allocated once per run so that repeated
    runs reuse the allocator's pages, and not zero-filled: only the samples
    before the step are zeroed.

    ``chunks`` is the record of the run's one pass: (block starts, sample
    table, columns) of each linear chunk.  The first read of a row samples it
    from that record (:func:`_sample_rows`), the same bits as sampling it in
    the pass.  It is empty when every row is final: a dead-band run samples
    them all in its pass, and a run that samples nothing has only zeros.  The
    time column ``t`` is no row: it is k dt, built on its first read.  A
    trajectory is equal only to itself.
    """

    scenario: Scenario
    samples: np.ndarray
    chunks: tuple = ()

    theta = _row(0)
    omega = _row(1)
    p_m = _row(2)
    e_b = _row(3)
    x_c = _row(4)
    p_b = _row(-2)
    omega_dot = _row(-1)

    @property
    def dt(self) -> float:
        """The sampling step, ``scenario.sim.dt``: the step the sampler took."""
        return self.scenario.sim.dt

    @property
    def n_samples(self) -> int:
        return self.samples.shape[1]

    @cached_property
    def t(self) -> np.ndarray:
        """Sample times k dt, k = 0 .. n_samples - 1; sample k's time is also ``k * dt``, bit for bit."""
        return np.multiply(np.arange(self.n_samples), float(self.dt))


@dataclass(frozen=True)
class Metrics:
    """Transient metrics and normalized storage capacity requirements.

    nadir_deviation         most negative omega [pu]
    nadir_time              first time omega is within 1e-12 (relative) of
                            the deepest deviation [s]
    rocof_initial           omega_dot at the first post-disturbance sample [pu/s]
    rocof_max_abs           max |omega_dot| [pu/s]
    steady_state_deviation  omega at the end of the horizon [pu]
    settling_time           first time after which omega stays within the
                            settling band of its final value [s]
    p_b_max_norm            max p_b / step_pu (signed, per the capacity definition)
    p_b_max_abs_norm        max |p_b| / |step_pu|
    e_b_max_norm            max e_b / step_pu [s]
    monotone                no nadir: omega never recovers above its running
                            minimum by more than the tolerance
    zero_disturbance        step_pu was 0; normalized capacities reported as 0
    """

    nadir_deviation: float
    nadir_time: float
    rocof_initial: float
    rocof_max_abs: float
    steady_state_deviation: float
    settling_time: float
    p_b_max_norm: float
    p_b_max_abs_norm: float
    e_b_max_norm: float
    monotone: bool
    zero_disturbance: bool


METRIC_FIELDS = tuple(f.name for f in fields(Metrics))


def _assemble(scenario: Scenario, k_i: float) -> np.ndarray:
    """A of dx/dt = A x, x = (theta, omega, p_m, e_b, x_c, p_L), with the governor on its
    slope outside the dead-band, phi = -alpha_g omega: the module docstring's equations
    evaluated at the unit states, the rows of I.  p_L is held, so its row is zero."""
    g = scenario.grid
    m_v, nu, gain, tau_i = scenario.controller.realization
    th, om, pm, _eb, xc, p_l = np.eye(6)
    s = xc - nu * om
    om_dot = (pm - p_l - g.load_damping_alpha_l * om + s) / (2.0 * g.inertia_h + m_v)
    pm_dot = (-g.gen_inv_droop_alpha_g * om - pm - k_i * th) / g.turbine_tau
    return np.array([om, om_dot, pm_dot, s - m_v * om_dot, (gain * om - xc) / tau_i, np.zeros(6)])


def _expm1(m: np.ndarray) -> np.ndarray:
    """exp(m) - I, never adding I, so a near-identity step keeps its digits: the Taylor
    series of m / 2^s, x = ||m / 2^s||_1 < 1/2, squared s times as 2E + E^2.  The series
    ends before its first term x^d / d! below 2^-60 x^3, at order 18 at the latest.  Each
    nonzero entry of the result is led by m, m^2 or m^3 (theta reaches x_c through p_m
    and omega), so the terms left out are ~2^-60 of that lead or less, and the bits are
    those of the series to order 18."""
    norm = np.linalg.norm(m, 1)
    s = max(0, int(np.frexp(norm)[1]) + 1)
    x = norm / 2.0**s
    d, term = 2, x * x / 2.0  # term = x^d / d!
    while d < 19 and term > 2.0**-60 * x**3:
        d += 1
        term *= x / d
    eye = e = np.eye(len(m))
    m = m / 2.0**s
    for j in range(d - 1, 1, -1):
        e = eye + m @ e / j
    e = m @ e
    for _ in range(s):
        e = 2.0 * e + e @ e
    return e


def _rk4_step1(m: np.ndarray) -> np.ndarray:
    """R(m) - I for RK4's step x <- R(A dt) x on a linear loop, R(m) = I + m + m^2/2 +
    m^3/6 + m^4/24, in Horner form without adding I (digits kept as in :func:`_expm1`)."""
    eye = np.eye(len(m))
    return m @ (eye + m @ (eye / 2.0 + m @ (eye / 6.0 + m / 24.0)))


def _powers(p: np.ndarray, count: int) -> np.ndarray:
    """P_1 .. P_count for P_j = Phi^j - I, from p = P_1 by doubling: Phi^(i+j) - I =
    P_i + P_j + P_i P_j.  Each doubling fills P_(k+1) .. P_2k of one table in place,
    as (P_i + P_k) + P_i P_k, with the k products P_i P_k as one matrix product."""
    powers = np.empty((1 << max(count - 1, 0).bit_length(), *p.shape))
    powers[0] = p
    flat = powers.reshape(-1, p.shape[1])  # P_1 .. P_k stacked row-wise
    k = 1
    while k < count:
        np.add(powers[:k], powers[k - 1], out=powers[k : 2 * k])
        powers[k : 2 * k] += (flat[: len(p) * k] @ powers[k - 1]).reshape(k, *p.shape)
        k *= 2
    return powers[:count]


def _stage_rows(m: np.ndarray) -> np.ndarray:
    """For the step matrix m = M dt of an affine loop: the rows giving the omegas of
    RK4's four stages of one step from (x, p_L)."""
    half = m / 2.0
    third = half + half @ half  # stages: x, (I + m/2) x, (I + m/2 + m^2/4) x, (I + m + m^2/2 + m^3/4) x
    return np.array([np.zeros(len(m)), half[1], third[1], m[1] + m[1] @ third]) + np.eye(len(m))[1]


def _sample_table(p: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The (s + 2, s + 1, _BLOCK) table of a block's samples from its start (x, p_L), for
    s states, from p = P_1 .. P_256, P_j = Phi^j - I, and the output rows c of A: rows
    0 .. s - 1 are the state rows of Phi^j = P_j + I, the last two the outputs (p_b,
    omega_dot) c Phi^j as c + c P_j."""
    s = p.shape[1] - 1
    table = np.empty((s + 2, s + 1, _BLOCK))
    table[:s] = p[:, :s].transpose(1, 2, 0)
    np.matmul(out[:, :s], table[:s].reshape(s, -1), out=table[s:].reshape(2, -1))  # c P_j: its p_L row is 0
    table[s:] += out[:, :, None]
    table[range(s), range(s)] += 1.0
    return table


def _crossing_step(a: np.ndarray, z: np.ndarray, dt: float, grid: GridParams) -> np.ndarray:
    """One RK4 step of z = (x, p_L) over A with the governor's dead-band put back,
    phi(omega) in place of A's -alpha_g omega: the step whose stages cross a band edge."""
    a_g = grid.gen_inv_droop_alpha_g

    def f(z):
        dz = a @ z
        dz[2] += (deadband_response(z[1], grid.deadband_omega_db, a_g) + a_g * z[1]) / grid.turbine_tau
        return dz

    k1 = f(z)
    k2 = f(z + 0.5 * dt * k1)
    k3 = f(z + 0.5 * dt * k2)
    k4 = f(z + dt * k3)
    return z + dt / 6.0 * (k1 + 2.0 * (k2 + k3) + k4)


def _first_sample(step_time: float, dt: float, n: int) -> int:
    """The first k <= n with k dt >= step_time (n + 1 if none), as np.searchsorted finds
    it in t = arange(n + 1) dt: the first sample with the imbalance on."""
    k = min(math.ceil(step_time / dt), n + 1)
    while k > 0 and (k - 1) * dt >= step_time:
        k -= 1
    while k <= n and k * dt < step_time:
        k += 1
    return k


def _plan(scenario: Scenario) -> tuple[np.ndarray, int, int]:
    """A of the scenario's loop (secondary frozen if ``scenario.sim`` says so), the step
    count n, and k_on, the :func:`_first_sample` of the step.  Raises ``ValueError`` if
    A is not finite: an inertia or time constant so small, or a gain so large, that a
    coefficient overflows."""
    opts = scenario.sim
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        a = _assemble(scenario, 0.0 if opts.freeze_secondary else scenario.grid.secondary_gain_k_i)
    if not np.isfinite(a).all():
        raise ValueError(
            "the loop's coefficients are not finite: an inertia or time constant is too small, or a gain too large"
        )
    n = int(round(opts.horizon / opts.dt))
    return a, n, _first_sample(scenario.disturbance.step_time, opts.dt, n)


def _most_blocks(steps: int) -> int:
    """The largest chunk, in blocks, of a run of ``steps`` steps: the largest power of two
    not above its blocks, so a linear run, which starts there, takes at most two chunks,
    and a dead-band run's chunks of 1, 2, 4, ... blocks stop doubling there."""
    return 1 << max((-(-steps // _BLOCK)).bit_length() - 1, 0)


def _sample_runs(
    scenario: Scenario, a: np.ndarray, k_on: int, n: int, buf: np.ndarray, chunks: list
) -> Iterator[np.ndarray]:
    """Sample the loop of ``a`` from sample k_on, the zero state with the imbalance just
    switched on, to sample n, chunk by chunk into the rows of ``buf``: the states, as
    many as ``a`` has but the held p_L, then the outputs p_b and omega_dot, as many of
    the two as ``buf`` has rows for.

    Column 0 of ``buf`` holds sample k_on, which the sampler writes, its outputs as
    0.0 + d_p A[[3, 1], -1] (never -0.0).  With n - k_on + _BLOCK columns every sample
    stays in place.  A window of 1 + _most_blocks(n - k_on) _BLOCK columns also does:
    before a chunk that would overrun it, the chunk's first sample moves to column 0.
    After each accepted run of samples, and the band crossing behind it, yields the
    view of ``buf`` from the sample before the run to its last one, valid until the
    next sample is taken (column 0 alone if k_on = n).  Raises
    :class:`IntegrationError` as :func:`simulate` documents.

    A run without a dead-band takes chunks of the largest size, _most_blocks(n - k_on)
    blocks, so at most two.  With one, chunks start at one block, double up to that
    size, and start again at one block after each band crossing.

    A linear chunk samples only what the pass must: the states of its last two blocks,
    where the next chunk starts, and omega, for the divergence test, where the block
    bound, reach . |h| for a block's start h with the reach of the chunk's region,
    reaches half the divergence limit; elsewhere no sample can diverge.  It appends
    (heads, table, chunk) to ``chunks`` before its run is yielded: its block starts, one
    product of the stacked powers Phi^(_BLOCK i) - I with its start, its region's sample
    table and its columns of ``buf``.  Every other row is left to the consumer, which
    samples it from that record with :func:`_sample_rows`.  A dead-band run samples
    every row in its pass, since its stage screen reads every state, records no chunk,
    and checks each band crossing step on its own.
    """
    grid, dt, d_p = scenario.grid, scenario.sim.dt, scenario.disturbance.step_pu
    w_db = grid.deadband_omega_db
    step1 = _expm1 if scenario.sim.exact and not w_db else _rk4_step1
    states = len(a) - 1  # p_L is held: d_p from k_on on, never stored
    out = a[[3, 1]]  # p_b and omega_dot of (x, p_L)
    # Region r is -1 below the band, 0 inside it, +1 above it (the one region without
    # a band), closed at the edges since phi is continuous there.
    bounds = {-1: (-np.inf, -w_db), 0: (-w_db, w_db), 1: (w_db, np.inf)}
    most = _most_blocks(n - k_on)
    regions = {}  # r -> (sample table, Phi^(_BLOCK i) - I, stage rows, omega's reach)
    z = np.array([0.0] * states + [d_p])
    buf[:states, 0] = 0.0
    np.add(0.0, d_p * out[: len(buf) - states, -1], out=buf[states:, 0])
    if k_on == n:
        yield buf[:, :1]
    k, i, c = k_on, 0, 1 if w_db else most  # sample k sits in column i
    # An unstable step overflows, and a NaN stage reads as leaving the region; the
    # divergence checks on the accepted samples and on the crossing step report both.
    with np.errstate(over="ignore", invalid="ignore"):
        while k < n:
            r = int(buf[1, i] >= w_db) - int(buf[1, i] <= -w_db) if w_db else 1
            if r not in regions:
                m = a.copy()
                if w_db and r:  # phi = -alpha_g (omega - r omega_db); the offset rides on p_L = d_p
                    m[2, -1] += r * grid.gen_inv_droop_alpha_g * w_db / (grid.turbine_tau * d_p)
                elif w_db:  # inside the band the governor is idle
                    m[2, 1] = 0.0
                m *= dt
                powers = _powers(step1(m), _BLOCK)
                starts = np.concatenate([np.zeros((1, *a.shape)), _powers(powers[-1], most - 1)])
                table = _sample_table(powers, out)
                reach = np.abs(table[1]).max(axis=1)  # max_j |(Phi^j)[1, m]|
                regions[r] = table, starts, _stage_rows(m) if w_db else None, reach
            table, starts, stages, reach = regions[r]
            # A chunk of c blocks: block i starts at Phi^(_BLOCK i) z, and one product
            # takes every block's samples of a row from its start.
            c = min(c, -(-(n - k) // _BLOCK))
            if i + 1 + c * _BLOCK > buf.shape[1]:  # a window: the chunk starts again at column 0
                buf[:, 0] = buf[:, i]
                i = 0
            z[:states] = buf[:states, i]
            heads = (starts[:c].reshape(-1, len(z)) @ z).reshape(c, len(z)) + z  # one gemv, the fastest form
            chunk = buf[:, i + 1 : i + 1 + c * _BLOCK].reshape(len(buf), c, _BLOCK)
            # Every |omega| of block b is at most reach . |h_b|, for its start h_b.  Below
            # half the limit, rounding included, no sample of the chunk diverges, and omega
            # is neither sampled nor scanned.  A chunk that fails the test (a NaN or inf
            # start does) samples omega and scans it.
            scan = not (np.abs(heads) @ reach < _DIVERGENCE_LIMIT / 2).all()
            if w_db:
                np.matmul(heads, table[: len(buf)], out=chunk)
            else:
                chunks.append((heads, table, chunk))
                if scan:
                    _sample_rows(chunks[-1:], 1)
                # The states of the last two blocks, from which the next chunk starts: two
                # rows, because a one-row product goes through gemv and rounds otherwise.
                np.matmul(heads[-2:], table[:states], out=chunk[:states, -2:])
            size = j = min(c * _BLOCK, n - k)
            if w_db:  # keep the samples up to the first step whose stages leave the region
                lo, hi = bounds[r]
                stage_om = stages[:, :-1] @ buf[:states, i : i + j] + d_p * stages[:, -1:]
                left = ~((lo <= stage_om.min(axis=0)) & (stage_om.max(axis=0) <= hi))
                if left.any():
                    j = int(left.argmax())
            # min and max fail both bounds on a NaN; the first bad sample is sought only then.
            om = buf[1, i + 1 : i + 1 + j]
            if scan and j and not (-_DIVERGENCE_LIMIT < om.min() and om.max() < _DIVERGENCE_LIMIT):
                bad = int((~(np.abs(om) < _DIVERGENCE_LIMIT)).argmax())
                raise IntegrationError(last_valid_time=(k + bad) * dt)
            first = i
            k, i, c = k + j, i + j, min(2 * c, most)
            if j < size:  # a band crossing: one RK4 step over A, then chunks start again at 1 block
                z[:states] = buf[:states, i]
                z[:states] = _crossing_step(a, z, dt, grid)[:states]
                buf[:, i + 1] = np.concatenate([z[:states], out @ z])[: len(buf)]
                if not abs(z[1]) < _DIVERGENCE_LIMIT:
                    raise IntegrationError(last_valid_time=k * dt)
                k, i, c = k + 1, i + 1, 1
            yield buf[:, first : i + 1]


def simulate(scenario: Scenario) -> Trajectory:
    """Sample the closed loop over the scenario's horizon by RK4, or exactly when
    ``scenario.sim.exact`` is set.

    Without a dead-band the loop is linear, and either method is one fixed
    matrix per step, sampled through its powers in blocks of ``_BLOCK``
    steps, one matrix product per chunk of blocks: a chunk of the largest
    power of two blocks in the run, then one of the rest.  With one, RK4
    runs piecewise-affine, region by region through the powers of each
    region's step matrix, with one RK4 step over A at each band crossing
    (whatever ``exact`` says), in chunks of 1, 2, 4, ... blocks that start
    again at one block after each crossing.
    The run is stepped once into one block, a row per state of A and two
    for the outputs.  The pass samples what it must and records every
    linear chunk, and each sampled array is one contiguous row of the
    block, sampled from that record on its first read; the time column is
    built on its first read.  Raises :class:`IntegrationError` if omega
    leaves the finite range (with RK4, reachable with a step size outside
    its stability region): the pass samples and scans omega wherever a
    chunk's block bound does not rule that out.  Raises ``ValueError`` if
    the loop's coefficients are not finite.
    """
    a, n, k_on = _plan(scenario)
    # One block, a row per state and two for p_b and omega_dot: one allocation lifts
    # glibc's trim threshold above a sweep point's churn (560 -> 0 page faults per point).
    # The last chunk's last block may run past n.  Only the columns before k_on are zeroed.
    block = np.empty((len(a) + 1, n + _BLOCK))
    sampled = bool(scenario.disturbance.step_pu) and k_on <= n
    block[:, : k_on if sampled else n + 1] = 0.0
    chunks = []  # (block starts, table, columns) of each linear chunk
    for _ in _sample_runs(scenario, a, k_on, n, block[:, k_on:], chunks) if sampled else ():
        pass
    return Trajectory(scenario, block[:, : n + 1], tuple(chunks))


def _storage_maxima(scenario: Scenario, quantity: str) -> float:
    """``p_b_max_norm`` or ``e_b_max_norm``, as ``quantity`` is "p_b" or "e_b", of
    ``extract_metrics(simulate(scenario))``, bit for bit, without a trajectory: the
    same samples of the quantity's row, taken by the same products in a window of the
    largest chunk and reduced run by run.  The pass samples what it must, and the
    quantity's row is sampled from the run's recorded chunk right after the run is
    yielded, before the window moves.  The window holds the rows up to the quantity's:
    the states the chunks start from, and p_b for p_b alone."""
    a, n, k_on = _plan(scenario)
    row = {"p_b": len(a) - 1, "e_b": 3}[quantity]  # p_b is the first row past the states
    d_p = scenario.disturbance.step_pu
    if d_p == 0:
        return 0.0
    window = np.empty((max(row + 1, len(a) - 1), 1 + _most_blocks(n - k_on) * _BLOCK))
    peak = 0.0 if k_on else -np.inf  # the zero samples before the step count
    chunks = []
    for run in _sample_runs(scenario, a, k_on, n, window, chunks) if k_on <= n else ():
        _sample_rows(chunks[-1:], row)  # the chunk of this run; none on a dead-band run
        peak = max(peak, run[row].max())
    return float(peak / d_p)


def _largest_abs(v: np.ndarray, v_max: float) -> float:
    """max |v|, from v's max, already taken, and its min alone, never -0.0."""
    return max(abs(float(v_max)), abs(float(v.min())))


def _monotone(omega: np.ndarray, k_min: int, tol: float) -> bool:
    """max(omega - np.minimum.accumulate(omega)) <= tol, given k_min, the first argmin
    of omega, settled as early as it exactly can be.

    From k_min on the running minimum is omega[k_min], and rounded subtraction
    is monotone, so the largest rise there is max(omega[k_min:]) - omega[k_min].
    Before it every rise is 0 up to the sample before omega's first rise.  From
    there the running minimum is at least omega[k_min], so no rise is above
    max(head) - omega[k_min] for the samples ``head`` from there to k_min;
    within the tolerance, that settles it.  Otherwise the head is scanned in
    blocks of doubling size, carrying its running minimum, up to the first
    block with a rise above the tolerance."""
    low = omega[k_min]
    if not omega[k_min:].max() - low <= tol:
        return False
    head = omega[: k_min + 1]
    up = head[1:] > head[:-1]
    if not up.any():
        return True
    head = head[int(up.argmax()) :]
    if head.max() - low <= tol:
        return True
    floor, start, size = np.inf, 0, 4 * _BLOCK
    while start < len(head):
        block = head[start : start + size]
        rise = np.minimum.accumulate(block)
        np.minimum(rise, floor, out=rise)
        floor = rise[-1]
        if not np.subtract(block, rise, out=rise).max() <= tol:
            return False
        start, size = start + size, 2 * size
    return True


def extract_metrics(traj: Trajectory, monotone_tol: float = MONOTONE_TOL) -> Metrics:
    """Reduce a trajectory to its transient and capacity metrics.

    ``monotone_tol`` separates a true nadir from integrator jitter: the
    response counts as monotone while its recovery above the running
    minimum stays within this bound; it must be >= 0 (ValueError otherwise,
    NaN included).

    Every field comes from whole-array reductions (min, max, argmin, argmax)
    and equals, bit for bit, the running-extreme and last-index formulas of
    its definition.  The monotone verdict is read off the first global
    extreme (:func:`_monotone`): exact, since rounded subtraction is
    monotone.  The last sample outside the settling band is the first of a
    reversed view of the test, and max |v| is the larger of |max v| and
    |min v|.  Times are k dt of the sample k found, ``traj.t[k]`` bit for
    bit, and the first sample at or after the step is :func:`_first_sample`,
    so the time column is never read.
    """
    require_bound("monotone_tol", monotone_tol)
    n_samples, dt = traj.n_samples, float(traj.dt)
    if n_samples == 0:
        raise ValueError("empty trajectory")
    omega = traj.omega
    d_p = traj.scenario.disturbance.step_pu

    # The first sample within the printed 12 digits of the minimum: on a plateau
    # settled to rounding, argmin alone would pick a sample by last-bit noise.
    k_min = int(np.argmin(omega))
    nadir = float(omega[k_min])
    k_nadir = int(np.argmax(omega[: k_min + 1] <= nadir + _NADIR_RTOL * abs(nadir)))
    final = float(omega[-1])

    k_on = min(_first_sample(traj.scenario.disturbance.step_time, dt, n_samples - 1), n_samples - 1)
    rocof_initial = float(traj.omega_dot[k_on])
    rocof_max_abs = _largest_abs(traj.omega_dot, traj.omega_dot.max())

    band = traj.scenario.sim.settling_band * abs(final)
    dev = np.subtract(omega, final)
    outside = np.abs(dev, out=dev) > band
    k_back = int(np.argmax(outside[::-1]))  # from the last sample back
    if not outside[-1 - k_back]:
        settling_time = 0.0
    else:
        settling_time = min(n_samples - k_back, n_samples - 1) * dt

    # Monotone means no recovery from an interior extreme: the response never
    # rises above its running minimum (falls below its running maximum, for a
    # negative step) by more than the tolerance.  A per-step test would let a
    # slow dip-and-recovery pass as jitter at small dt.  A fall is a rise of
    # -omega, exactly: negation rounds nothing.
    if d_p > 0:
        monotone = _monotone(omega, k_min, monotone_tol)
    elif d_p < 0:
        monotone = _monotone(-omega, int(np.argmax(omega)), monotone_tol)
    else:
        monotone = True

    if d_p == 0:
        p_b_max_norm = p_b_max_abs_norm = e_b_max_norm = 0.0
        zero_disturbance = True
    else:
        p_b_max = np.max(traj.p_b)
        p_b_max_norm = float(p_b_max / d_p)
        p_b_max_abs_norm = _largest_abs(traj.p_b, p_b_max) / abs(d_p)
        e_b_max_norm = float(np.max(traj.e_b) / d_p)
        zero_disturbance = False

    return Metrics(
        nadir_deviation=nadir,
        nadir_time=k_nadir * dt,
        rocof_initial=rocof_initial,
        rocof_max_abs=rocof_max_abs,
        steady_state_deviation=final,
        settling_time=settling_time,
        p_b_max_norm=p_b_max_norm,
        p_b_max_abs_norm=p_b_max_abs_norm,
        e_b_max_norm=e_b_max_norm,
        monotone=monotone,
        zero_disturbance=zero_disturbance,
    )


@cache
def _cell_tables() -> tuple[np.ndarray, ...]:
    """Tables for :func:`_csv_rows`, built on first use from exact integers.

    Rows 0 .. E - 1 are the decimal exponents e in [_E_MIN, _E_MAX]; row E is
    zero and row E + 1 a cell left to ``%``, both laid out as e = 0.  Per row:
    10^(11 - e) as a double, then in ``dd`` its two Dekker halves and the low
    part it rounds off, and 10^(e + 1) rounded (zero's is 5e-324, which moves
    subnormals on to row E + 1).  NaN marks the rows whose cells go to ``%``,
    e = 12 among them: a cell keeps that row only through a carry.

    ``first[b]``: the row of floor((b - 1023) log10 2), e or one below it, for
    the biased binary exponent b of |v|.  ``cells[4 row + 2 last + sign]``: a
    cell's 32 bytes with the sign and a fixed cell's "0.", "0.0", ... below 1,
    and "e+XX" or "e-XXX" in exponent form, then "," or, in the row's last
    column, a newline.  ``words[1000 (5 rest + c) + g]``: the 3-digit group g,
    with a point after its digit c - 1, all before the point if c = 4 and all
    after it (or no point) if c = 0; its trailing zeros print if a later digit
    is nonzero (``rest``) or they precede the point.  ``base[j, row]``: 1000 c
    for group j.  Words are read as native integers from their bytes, so they
    store back as the same bytes.
    """
    e = np.arange(_E_MIN, _E_MAX + 1).tolist()
    scale = [10 ** max(11 - k, 0) for k in e]
    hi = np.array([float(s) for s in scale[:-1]] + [np.nan, 0.0, np.nan])
    lo = np.array([float(s - int(h)) for s, h in zip(scale, hi[:-3].tolist())] + [np.nan, 0.0, np.nan])
    above = np.array([float(10**k) if k >= 0 else 1 / 10**-k for k in e[1:]] + [np.nan, 5e-324, np.nan])
    split = hi * 134217729.0  # 2^27 + 1
    hi_hi = split - (split - hi)
    est = np.floor(np.arange(-1023, 1025) * 0.30102999566398120).astype(np.intp) - _E_MIN
    first = np.where((est >= 0) & (est < len(e) - 1), est, len(e) + 1)
    first[0] = len(e)

    e = np.array(e + [0, 0])
    fixed = (e >= -4) & (e < 12)
    heads = [b"0." + b"0" * (-k - 1) if f and k < 0 else b"" for k, f in zip(e.tolist(), fixed.tolist())]
    exps = [b"" if f else b"e%+03d" % k for k, f in zip(e.tolist(), fixed.tolist())]
    cells = b"".join(
        (sign + h).ljust(24, b"\0") + (x + end).ljust(8, b"\0")
        for h, x in zip(heads, exps)
        for end in (b",", b"\n")
        for sign in (b"", b"-")
    )

    rest, c, g, k = np.ix_(np.arange(2), np.arange(5), np.arange(1000), np.arange(4))
    last = np.where(g % 10, 3, np.where(g % 100, 2, np.where(g, 1, 0)))
    count = np.where(rest, 3, np.maximum(last, np.minimum(c, 3)))
    dot = np.where((c > 0) & (c < 4), c - 1, 3)
    src = k - (k > dot)  # digit written at byte k, one back after the point
    digit = 48 + np.choose(np.minimum(src, 2), [g // 100, g // 10 % 10, g % 10])
    point = np.where(rest | (count > dot + 1), ord("."), 0)
    words = np.where(k == dot + 1, point, np.where(src < count, digit, 0)).astype(np.uint8)
    at = np.where(fixed, np.where(e < 0, -1, e), 0)  # digit the point follows; -1: the lead holds it
    base = 1000 * (np.clip(at - 3 * np.arange(4)[:, None], -1, 3) + 1)
    dd = np.stack([hi_hi, hi - hi_hi, lo], axis=1)
    return hi, above, first, dd, np.frombuffer(cells, "V32"), words.view(np.uint32).ravel(), base


@cache
def _last_column(n_cols: int) -> np.ndarray:
    """2 at each row's last cell, else 0, over _CSV_CHUNK rows of n_cols cells: the
    ``last`` term of a ``cells`` index, for any chunk of up to _CSV_CHUNK rows."""
    return np.tile(np.arange(n_cols) == n_cols - 1, _CSV_CHUNK) * 2


def _round12(v: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """For each value: its row of :func:`_cell_tables` (its decimal exponent e, zero,
    or ``%``), its 12 significant digits as one float integer q (0 for zero and ``%``),
    and the indices of the cells ``%`` must print.

    q = round(|v| 10^(11 - e)), half up.  One product p = |v| hi[e] is within
    2.3e-4 of |v| 10^(11 - e): two roundings of at most 2^-53 relative, below
    1e12.  So rint(p) is q for every cell but those within 1e-3 of a rounding
    tie.  Those alone are scaled again by a Dekker product against the
    double-double power of ten, to ~1e-16, and the ones still within 1e-9 of a
    tie (which ``%`` breaks to even on the exact binary value) go to ``%``,
    with non-finite values and magnitudes outside [2^-933, 1e12).
    """
    hi, above, first, dd = _cell_tables()[:4]
    a = np.abs(v)
    with np.errstate(over="ignore", invalid="ignore"):  # rows left to %: NaN, inf - inf, overflow
        i = first.take(a.view(np.int64) >> 52)
        i += a >= above.take(i)
        p = a * hi.take(i)
        q = np.rint(p)
        near = np.flatnonzero(~(np.abs(p - q) < 0.499))  # ties and NaN rows too
        if near.size:
            # |v| 10^(11 - e) = p + t, with p's rounding error exact by Dekker's product and t adding the low part.
            an, pn = a[near], p[near]
            h_hi, h_lo, lo = dd[i[near]].T
            split = an * 134217729.0
            a_hi = split - (split - an)
            a_lo = an - a_hi
            t = ((a_hi * h_hi - pn) + a_hi * h_lo + a_lo * h_hi) + a_lo * h_lo + an * lo
            qn = np.floor(pn)
            frac = (pn - qn) + t
            q[near] = qn + (frac >= 0.5)
            near = near[~(np.abs(frac - 0.5) >= 1e-9)]  # now the cells left to %
            q[near] = 0.0
            i[near] = len(hi) - 1
    carry = q == 1e12  # rounded up to 10^(e + 1)
    if carry.any():
        q[carry] = 1e11
        i += carry
    return i, q, near


def _cell_words(cols: Sequence) -> np.ndarray:
    """The cells of equal-length numeric columns, row by row, as 32 zero-padded bytes each
    (see :func:`_csv_rows`)."""
    cells, words, base = _cell_tables()[4:]
    n_rows, n_cols = len(cols[0]), len(cols)
    v = np.empty((n_rows, n_cols))
    for j, col in enumerate(cols):
        v[:, j] = col
    v = v.ravel()
    i, q, slow = _round12(v)
    out = np.empty((len(v), 4), np.uint64)
    lt = i * 4
    lt += (v.view(np.uint64) >> 63).view(np.int64)  # the sign bit
    lt += _last_column(n_cols)[: len(v)]
    cells.take(lt, out=out.view("V32").ravel())  # the lead and tail words, digits zeroed
    # The 12 digits in four groups of three, most significant first; q keeps the digits after.
    q = q.astype(np.intp)
    for j, unit in enumerate((10**9, 10**6, 1000)):
        g = q // unit
        q -= g * unit
        g += base[j].take(i)
        g += (q > 0) * 5000  # a later digit is nonzero, so g's trailing zeros print
        out.view(np.uint32)[:, 2 + j] = words.take(g)
    q += base[3].take(i)
    out.view(np.uint32)[:, 5] = words.take(q)
    if slow.size:
        text = np.array(["%.12g" % x for x in v[slow].tolist()], "S24")
        out.view(np.uint8).reshape(-1, 32)[slow, :24] = text.view(np.uint8).reshape(-1, 24)
    return out


def _csv_rows(cols: Sequence) -> str:
    """CSV rows of equal-length numeric columns, each cell exactly what ``"%.12g" % cell`` prints.

    A cell's digits and exponent come from :func:`_round12`.  Its text is 32
    bytes: an 8-byte word with the sign and a "0.000" prefix, four 4-byte
    words of three digits and a possible point, and an 8-byte word with
    "e+XX" and the separator, zero-padded.  One gather from :func:`_cell_tables`
    writes the first and last word, one per group the digit words; one
    ``translate`` drops the padding.  Cells left to ``%`` write its text over
    the first 24 bytes.
    """
    return _cell_words(cols).tobytes().translate(None, b"\0").decode("ascii")


def write_csv_rows(columns: Sequence, stream: TextIO) -> None:
    """Write equal-length numeric columns as CSV rows, each cell as ``"%.12g" % cell``."""
    for k in range(0, len(columns[0]), _CSV_CHUNK):
        stream.write(_csv_rows([c[k : k + _CSV_CHUNK] for c in columns]))


def write_trajectory_csv(traj: Trajectory, stream: TextIO) -> None:
    """Write the trajectory in the fixed CSV layout (one row per sample)."""
    f_nom = traj.scenario.grid.nominal_freq
    stream.write(TRAJECTORY_CSV_HEADER + "\n")
    for k in range(0, traj.n_samples, _CSV_CHUNK):
        rows = slice(k, k + _CSV_CHUNK)
        om = traj.omega[rows]
        cols = (traj.t[rows], om, om * f_nom, traj.p_m[rows], traj.p_b[rows], traj.e_b[rows], traj.theta[rows])
        stream.write(_csv_rows(cols))


def format_metrics(metrics: Metrics, nominal_freq: float) -> str:
    """Plain-text metrics summary (pu values plus Hz equivalents)."""
    lines = [
        f"nadir_deviation_pu = {metrics.nadir_deviation:.12g}",
        f"nadir_deviation_hz = {metrics.nadir_deviation * nominal_freq:.12g}",
        f"nadir_time_s = {metrics.nadir_time:.12g}",
        f"rocof_initial_pu_per_s = {metrics.rocof_initial:.12g}",
        f"rocof_initial_hz_per_s = {metrics.rocof_initial * nominal_freq:.12g}",
        f"rocof_max_abs_pu_per_s = {metrics.rocof_max_abs:.12g}",
        f"steady_state_deviation_pu = {metrics.steady_state_deviation:.12g}",
        f"steady_state_deviation_hz = {metrics.steady_state_deviation * nominal_freq:.12g}",
        f"settling_time_s = {metrics.settling_time:.12g}",
        f"p_b_max_norm = {metrics.p_b_max_norm:.12g}",
        f"p_b_max_abs_norm = {metrics.p_b_max_abs_norm:.12g}",
        f"e_b_max_norm_s = {metrics.e_b_max_norm:.12g}",
        f"monotone = {str(metrics.monotone).lower()}",
        f"zero_disturbance = {str(metrics.zero_disturbance).lower()}",
    ]
    return "\n".join(lines) + "\n"

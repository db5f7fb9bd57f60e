"""Scenario file format: parsing, defaults, diagnostics, round trips.

Covers:
 - defaults (empty text is a valid equilibrium scenario)
 - full parses for every controller type
 - GW -> pu conversion against the file's own power base
 - line-anchored rejection of unknown sections/keys, duplicates, bad
   values, malformed section headers, repeated sections, empty values, and
   domain-invariant violations, each on the offending key's line
   (every bounded key, written out, with its exact message, and a step past
   one system base)
 - parse -> serialize -> parse identity for every controller type and the
   bundled files, and the canonical text of one bundled file
"""

from pathlib import Path

import pytest

from gridfreq import (
    Droop,
    IDroop,
    NoStorage,
    Scenario,
    ScenarioParseError,
    StorageController,
    VirtualInertia,
    gb_reference_params,
    load_scenario,
    parse_scenario,
    serialize_scenario,
)

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


def test_empty_text_gives_defaults():
    sc = parse_scenario("")
    assert isinstance(sc.controller, NoStorage)
    assert sc.grid.inertia_h == 2.19
    assert sc.disturbance.step_pu == 0.0
    assert sc.sim.dt == 1e-3 and sc.sim.horizon == 30.0 and not sc.sim.freeze_secondary


def test_full_parse():
    text = """
    # storage on the nadir-elimination tuning
    [grid]
    inertia_h = 4.06
    deadband_omega_db = 0.0006

    [controller]
    type = idroop
    nu = 16.875
    tau_i = 1.0
    alpha_b = 1.875

    [disturbance]
    step_pu = 0.05625
    step_time = 2.0

    [sim]
    dt = 0.002
    horizon = 40.0
    settling_band = 0.02
    freeze_secondary = true
    exact = yes
    """
    sc = parse_scenario(text)
    assert sc.grid.inertia_h == 4.06
    assert sc.grid.deadband_omega_db == 0.0006
    assert sc.controller == IDroop(nu=16.875, tau_i=1.0, alpha_b=1.875)
    assert sc.disturbance.step_pu == 0.05625
    assert sc.disturbance.step_time == 2.0
    assert sc.sim.dt == 0.002 and sc.sim.horizon == 40.0
    assert sc.sim.settling_band == 0.02 and sc.sim.freeze_secondary and sc.sim.exact


@pytest.mark.parametrize(
    "snippet, expected",
    [
        ("type = none", NoStorage()),
        ("type = droop\nalpha_b = 2.5", Droop(alpha_b=2.5)),
        ("type = virtual_inertia\nm_v = 57.6\nalpha_b = 1.0", VirtualInertia(m_v=57.6, alpha_b=1.0)),
        ("type = idroop\nnu = 15.0\ntau_i = 1.0\nalpha_b = 0.0", IDroop(nu=15.0, tau_i=1.0)),
    ],
)
def test_controller_variants(snippet, expected):
    sc = parse_scenario(f"[controller]\n{snippet}\n")
    assert sc.controller == expected


def test_step_gw_uses_file_base():
    sc = parse_scenario("[grid]\nbase_power = 10.0\n\n[disturbance]\nstep_gw = 1.8\n")
    assert sc.disturbance.step_pu == pytest.approx(0.18, rel=1e-12)


# ------------------------------------------------------------- diagnostics


def _error_of(text):
    with pytest.raises(ScenarioParseError) as excinfo:
        parse_scenario(text, source="case.scn")
    return excinfo.value


def test_unknown_section():
    err = _error_of("[grid]\ninertia_h = 2.0\n[turbines]\nx = 1\n")
    assert err.line == 3
    assert "unknown section" in str(err)
    assert str(err).startswith("case.scn:3:")


def test_unknown_key_is_line_anchored():
    err = _error_of("[grid]\ninertia_h = 2.0\nfoo = 1\n")
    assert err.line == 3
    assert "unknown key 'foo'" in str(err)


def test_wrong_key_for_controller_type():
    err = _error_of("[controller]\ntype = droop\nm_v = 3.0\n")
    assert "unknown key 'm_v'" in str(err)


def test_duplicate_key():
    err = _error_of("[grid]\ninertia_h = 2.0\ninertia_h = 3.0\n")
    assert err.line == 3
    assert "duplicate key" in str(err)


def test_malformed_line():
    err = _error_of("[grid]\ninertia_h\n")
    assert err.line == 2
    assert "key = value" in str(err)


@pytest.mark.parametrize(
    "text, line, message",
    [
        ("[grid\ninertia_h = 2.0\n", 1, "malformed section header: '[grid'"),
        ("[sim]\ndt = 0.01\n[sim]\n", 3, "duplicate section [sim]"),
        ("[grid]\ninertia_h =\n", 2, "expected 'key = value', got 'inertia_h ='"),
    ],
    ids=["unclosed_header", "repeated_section", "empty_value"],
)
def test_malformed_structure_reported_on_its_line(text, line, message):
    err = _error_of(text)
    assert err.line == line
    assert str(err) == f"case.scn:{line}: {message}"


def test_key_outside_section():
    err = _error_of("inertia_h = 2.0\n")
    assert err.line == 1


def test_bad_number_and_bool():
    err = _error_of("[grid]\ninertia_h = fast\n")
    assert err.line == 2 and "not a number" in str(err)
    err = _error_of("[sim]\nfreeze_secondary = maybe\n")
    assert "not a boolean" in str(err)


def test_both_step_units_rejected():
    err = _error_of("[disturbance]\nstep_pu = 0.05\nstep_gw = 1.8\n")
    assert "not both" in str(err)


def test_domain_invariants_surface_with_line():
    err = _error_of("[grid]\ninertia_h = -1.0\n")
    assert err.line == 2
    assert "inertia_h" in str(err)
    # non-finite values parse as floats but are rejected in every section,
    # on the line of the key that holds them
    for text, line, name in (
        ("[grid]\ninertia_h = nan\n", 2, "inertia_h"),
        ("[grid]\nbase_power = 32.0\ninertia_h = nan\n", 3, "inertia_h"),
        ("[controller]\ntype = droop\nalpha_b = inf\n", 3, "alpha_b"),
        ("[disturbance]\nstep_gw = nan\n", 2, "step_pu"),
        ("[sim]\nhorizon = inf\n", 2, "horizon"),
        ("[sim]\ndt = 0.001\nhorizon = inf\n", 3, "horizon"),
        # joint checks name no single key and cite the section's first key line
        ("[sim]\ndt = 1e-9\nhorizon = 1e6\n", 2, "samples"),
    ):
        err = _error_of(text)
        assert err.line == line and name in str(err), text


def test_step_past_one_system_base_reported_on_its_line():
    """A finite step beyond one system base, as step_gw or step_pu, is refused on the
    line of its key, with the bound's message."""
    for key, value, got in (("step_gw", "1e306", "3.125e+304"), ("step_pu", "-1.5", "-1.5")):
        err = _error_of(f"[disturbance]\nstep_time = 1.0\n{key} = {value}\n")
        assert str(err) == f"case.scn:3: step_pu must be within one system base, [-1, 1] pu, got {got}"
        assert err.line == 3


# Every bounded dataclass key: (scenario text with ``{}`` for the key's bad value,
# bound, message prefix).  No key is its section's first, so the line reported is
# the key's own.
BOUNDED_KEYS = [
    ("[grid]\nsecondary_gain_k_i = 0.05\nbase_power = {}", ">", ""),
    ("[grid]\nbase_power = 32.0\nnominal_freq = {}", ">", ""),
    ("[grid]\nbase_power = 32.0\ninertia_h = {}", ">", ""),
    ("[grid]\nbase_power = 32.0\nturbine_tau = {}", ">", ""),
    ("[grid]\nbase_power = 32.0\ngen_inv_droop_alpha_g = {}", ">", ""),
    ("[grid]\nbase_power = 32.0\nload_damping_alpha_l = {}", ">=", ""),
    ("[grid]\nbase_power = 32.0\nsecondary_gain_k_i = {}", ">=", ""),
    ("[grid]\nbase_power = 32.0\ndeadband_omega_db = {}", ">=", ""),
    ("[disturbance]\nstep_pu = 0.05\nstep_time = {}", ">=", ""),
    ("[controller]\ntype = droop\nalpha_b = {}", ">=", "bad controller: "),
    ("[controller]\ntype = virtual_inertia\nalpha_b = 1.0\nm_v = {}", ">=", "bad controller: "),
    ("[controller]\ntype = virtual_inertia\nm_v = 10.0\nalpha_b = {}", ">=", "bad controller: "),
    ("[controller]\ntype = idroop\ntau_i = 1.0\nnu = {}", ">", "bad controller: "),
    ("[controller]\ntype = idroop\nnu = 16.0\ntau_i = {}\nalpha_b = 1.0", ">", "bad controller: "),
    ("[controller]\ntype = idroop\nnu = 16.0\ntau_i = 1.0\nalpha_b = {}", ">=", "bad controller: "),
]


def _bad_line(template):
    """(line number, key) of the ``{}`` line."""
    lines = template.split("\n")
    line = next(i for i, text in enumerate(lines, start=1) if text.endswith("{}"))
    return line, lines[line - 1].split(" = ")[0]


def _case_id(template):
    section, second = template.split("\n")[:2]
    kind = [second.split(" = ")[1]] if second.startswith("type = ") else []
    return ".".join([section.strip("[]"), *kind, _bad_line(template)[1]])


@pytest.mark.parametrize("template, bound, prefix", BOUNDED_KEYS, ids=[_case_id(t) for t, _, _ in BOUNDED_KEYS])
def test_bounded_key_reported_on_its_line(template, bound, prefix):
    line, key = _bad_line(template)
    err = _error_of(template.format("-1.5") + "\n")
    assert str(err) == f"case.scn:{line}: {prefix}{key} must be {bound} 0, got -1.5"
    assert err.line == line


def test_unknown_controller_type():
    err = _error_of("[controller]\ntype = pid\n")
    assert "unknown controller type" in str(err)


def test_controller_gains_without_type():
    """Gains without a type line name the missing type and the registered types."""
    err = _error_of("[controller]\n# droop gain\nalpha_b = 1.0\nnu = 2.0\n")
    assert err.line == 3
    assert "no 'type' line" in str(err)
    assert "['droop', 'idroop', 'none', 'virtual_inertia']" in str(err)
    # an empty section is still the no-storage default
    assert isinstance(parse_scenario("[controller]\n").controller, NoStorage)


# -------------------------------------------------------------- round trip


@pytest.mark.parametrize(
    "controller",
    [
        "type = none",
        "type = droop\n    alpha_b = 2.5",
        "type = virtual_inertia\n    m_v = 57.603866769659334\n    alpha_b = 0.0",
        "type = idroop\n    nu = 16.875\n    tau_i = 1.0\n    alpha_b = 1.875",
    ],
    ids=["none", "droop", "virtual_inertia", "idroop"],
)
def test_round_trip_identity(controller):
    text = f"""
    [controller]
    {controller}

    [disturbance]
    step_gw = 1.8
    """
    first = parse_scenario(text)
    second = parse_scenario(serialize_scenario(first))
    assert first == second
    # serialization is a fixed point
    assert serialize_scenario(first) == serialize_scenario(second)


@pytest.mark.parametrize(
    "name",
    ["gb-nostorage.scn", "gb-idroop.scn", "gb-vi-deadband.scn", "gb-equilibrium.scn"],
)
def test_bundled_scenarios_round_trip(name):
    path = SCENARIO_DIR / name
    first = load_scenario(path)
    second = parse_scenario(serialize_scenario(first), source=name)
    assert first == second


def test_serialize_rejects_unregistered_controller():
    class Custom(StorageController):
        alpha_b = 0.0

    with pytest.raises(TypeError, match="unsupported controller type: Custom"):
        serialize_scenario(Scenario(gb_reference_params(), Custom()))


def test_bundled_scenario_canonical_text():
    """The canonical form lists every field in dataclass order, in pu."""
    assert serialize_scenario(load_scenario(SCENARIO_DIR / "gb-vi-deadband.scn")) == (
        "[grid]\n"
        "base_power = 32.0\n"
        "nominal_freq = 60.0\n"
        "inertia_h = 2.19\n"
        "turbine_tau = 1.0\n"
        "load_damping_alpha_l = 1.0\n"
        "gen_inv_droop_alpha_g = 15.0\n"
        "secondary_gain_k_i = 0.05\n"
        "deadband_omega_db = 0.0006\n"
        "\n"
        "[controller]\n"
        "type = virtual_inertia\n"
        "m_v = 57.603866769659334\n"
        "alpha_b = 0.0\n"
        "\n"
        "[disturbance]\n"
        "step_pu = 0.05625\n"
        "step_time = 0.0\n"
        "\n"
        "[sim]\n"
        "dt = 0.001\n"
        "horizon = 30.0\n"
        "settling_band = 0.05\n"
        "freeze_secondary = true\n"
        "exact = false\n"
    )

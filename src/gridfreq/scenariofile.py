"""Scenario files: a small sectioned key = value format.

Example (``#`` starts a comment, blank lines are ignored)::

    [grid]
    inertia_h = 2.19          # s
    deadband_omega_db = 0.0   # pu; 0.0006 is a 36 mHz dead-band on 60 Hz

    [controller]
    type = idroop             # none | droop | virtual_inertia | idroop
    nu = 15.0
    tau_i = 1.0
    alpha_b = 0.0

    [disturbance]
    step_gw = 1.8             # or step_pu; positive = generation loss
    step_time = 0.0

    [sim]
    dt = 0.001
    horizon = 30.0
    freeze_secondary = true

The parameter dataclasses are the schema: the keys of ``[grid]``,
``[disturbance]``, ``[sim]`` and of each controller type are the fields of
:class:`GridParams`, :class:`Disturbance`, :class:`SimOptions` and the
controller class, and a field whose default is a bool takes a boolean
(``true``/``false``, ``yes``/``no``, ``1``/``0``).  ``step_gw`` is the one
alias: it sets ``step_pu`` on the file's own ``base_power``.

Every key is optional: omitted grid values fall back to the Great Britain
reference set, the controller defaults to none (a ``[controller]`` section
with keys needs its ``type`` line), the disturbance to zero
magnitude, and the simulation options to their defaults.  Unknown sections
or keys, duplicate keys, and malformed values are rejected with a
line-anchored diagnostic; a value the dataclass rejects is reported on the
line of the offending key (a joint check, such as ``dt <= horizon``, on the
section's first key line).  ``serialize_scenario`` writes the canonical form
(pu magnitudes, full float precision) and round-trips through
``parse_scenario`` to an identical scenario.
"""

from __future__ import annotations

from dataclasses import fields
from pathlib import Path
from typing import Callable, Optional, Union

from .controllers import Droop, IDroop, NoStorage, VirtualInertia
from .model import Disturbance, GridParams, Scenario, SimOptions, gb_reference_params, pu_disturbance

__all__ = ["ScenarioParseError", "parse_scenario", "load_scenario", "serialize_scenario"]

# The only place the controller type names appear.
_CONTROLLERS = {"none": NoStorage, "droop": Droop, "virtual_inertia": VirtualInertia, "idroop": IDroop}
_SECTIONS = ("grid", "controller", "disturbance", "sim")

_Entries = dict[str, tuple[str, int]]  # key -> (raw value, line number)


class ScenarioParseError(ValueError):
    """Scenario file rejected; message carries ``source:line``."""

    def __init__(self, source: str, line: int, message: str):
        super().__init__(f"{source}:{line}: {message}")
        self.source = source
        self.line = line


def _parse_float(raw: str, source: str, line: int, key: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise ScenarioParseError(source, line, f"value for {key!r} is not a number: {raw!r}") from None


def _parse_bool(raw: str, source: str, line: int, key: str) -> bool:
    lowered = raw.lower()
    if lowered in ("true", "yes", "1"):
        return True
    if lowered in ("false", "no", "0"):
        return False
    raise ScenarioParseError(source, line, f"value for {key!r} is not a boolean: {raw!r}")


def _read_sections(text: str, source: str) -> dict[str, _Entries]:
    sections: dict[str, _Entries] = {}
    current: Union[str, None] = None
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        stripped = raw_line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if stripped.startswith("["):
            if not stripped.endswith("]"):
                raise ScenarioParseError(source, lineno, f"malformed section header: {raw_line.strip()!r}")
            name = stripped[1:-1].strip()
            if name not in _SECTIONS:
                raise ScenarioParseError(source, lineno, f"unknown section [{name}]; expected one of {list(_SECTIONS)}")
            if name in sections:
                raise ScenarioParseError(source, lineno, f"duplicate section [{name}]")
            sections[name] = {}
            current = name
            continue
        if current is None:
            raise ScenarioParseError(source, lineno, "key outside any [section]")
        if "=" not in stripped:
            raise ScenarioParseError(source, lineno, f"expected 'key = value', got {raw_line.strip()!r}")
        key, _, value = stripped.partition("=")
        key = key.strip()
        value = value.strip()
        if not key or not value:
            raise ScenarioParseError(source, lineno, f"expected 'key = value', got {raw_line.strip()!r}")
        if key in sections[current]:
            raise ScenarioParseError(source, lineno, f"duplicate key {key!r} in [{current}]")
        sections[current][key] = (value, lineno)
    return sections


def _build(
    cls: type,
    entries: _Entries,
    section: str,
    source: str,
    make: Optional[Callable] = None,
    fallback_line: int = 0,
    prefix: str = "",
    aliases: tuple[str, ...] = (),
):
    """Build dataclass ``cls`` (through ``make``, default ``cls``) from a section.

    The section's keys are the fields of ``cls``; ``aliases`` names keys the
    caller has already mapped onto a field.  A rejected value is reported on
    the line of the key its message starts with, else on ``fallback_line``
    or the section's first key line.
    """
    defaults = {f.name: f.default for f in fields(cls)}
    for key, (_raw, lineno) in entries.items():
        if key not in defaults:
            expected = sorted([*defaults, *aliases])
            raise ScenarioParseError(source, lineno, f"unknown key {key!r} in [{section}]; expected one of {expected}")
    kwargs = {
        key: (_parse_bool if isinstance(defaults[key], bool) else _parse_float)(raw, source, lineno, key)
        for key, (raw, lineno) in entries.items()
    }
    try:
        return (make or cls)(**kwargs)
    except (TypeError, ValueError) as exc:
        message = str(exc)
        named = entries.get(message.split(" ", 1)[0])
        lineno = named[1] if named else fallback_line or min(line for _, line in entries.values())
        raise ScenarioParseError(source, lineno, prefix + message) from None


def parse_scenario(text: str, source: str = "<string>") -> Scenario:
    """Parse scenario text; unspecified values take the reference defaults."""
    sections = _read_sections(text, source)
    grid = _build(GridParams, sections.get("grid", {}), "grid", source, make=gb_reference_params)

    ctrl_entries = dict(sections.get("controller", {}))
    if ctrl_entries and "type" not in ctrl_entries:
        raise ScenarioParseError(
            source,
            min(line for _, line in ctrl_entries.values()),
            f"[controller] has no 'type' line; expected type = one of {sorted(_CONTROLLERS)}",
        )
    ctrl_type_raw, ctrl_line = ctrl_entries.pop("type", ("none", 0))
    ctrl_cls = _CONTROLLERS.get(ctrl_type_raw.lower())
    if ctrl_cls is None:
        raise ScenarioParseError(
            source, ctrl_line, f"unknown controller type {ctrl_type_raw!r}; expected one of {sorted(_CONTROLLERS)}"
        )
    controller = _build(
        ctrl_cls, ctrl_entries, "controller", source, fallback_line=ctrl_line, prefix="bad controller: "
    )

    dist_entries = dict(sections.get("disturbance", {}))
    if "step_gw" in dist_entries:
        raw, lineno = dist_entries.pop("step_gw")
        if "step_pu" in dist_entries:
            raise ScenarioParseError(source, lineno, "give step_pu or step_gw, not both")
        step_pu = pu_disturbance(_parse_float(raw, source, lineno, "step_gw"), grid)
        dist_entries["step_pu"] = (repr(step_pu), lineno)
    disturbance = _build(Disturbance, dist_entries, "disturbance", source, aliases=("step_gw",))

    sim = _build(SimOptions, sections.get("sim", {}), "sim", source)
    return Scenario(grid=grid, controller=controller, disturbance=disturbance, sim=sim)


def load_scenario(path: Union[str, Path]) -> Scenario:
    """Read and parse a scenario file."""
    path = Path(path)
    data = path.read_bytes()
    try:
        text = data.decode()
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise ScenarioParseError(str(path), line, f"not UTF-8 text: byte {data[exc.start]:#04x}") from None
    return parse_scenario(text, source=str(path))


def serialize_scenario(scenario: Scenario) -> str:
    """Canonical text form; parses back to an identical scenario."""
    ctrl = scenario.controller
    ctrl_type = next((name for name, cls in _CONTROLLERS.items() if isinstance(ctrl, cls)), None)
    if ctrl_type is None:
        raise TypeError(f"unsupported controller type: {type(ctrl).__name__}")
    lines: list[str] = []
    for section, obj, cls in (
        ("grid", scenario.grid, GridParams),
        ("controller", ctrl, _CONTROLLERS[ctrl_type]),
        ("disturbance", scenario.disturbance, Disturbance),
        ("sim", scenario.sim, SimOptions),
    ):
        lines += ["", f"[{section}]"]
        if section == "controller":
            lines.append(f"type = {ctrl_type}")
        for f in fields(cls):
            value = getattr(obj, f.name)
            lines.append(f"{f.name} = {str(value).lower() if isinstance(value, bool) else repr(value)}")
    return "\n".join(lines[1:]) + "\n"

"""Scenario descriptions: strict JSON loading and state/ensemble builders.

A scenario fixes the mass, the Gaussian packets of the prepared state,
the momentum grid, the spacetime box for scans and traces, and
optionally a final measurement block (time T plus the outcome grid).
The packet, grid, box and final blocks take exactly the fields of
PacketSpec, GridSpec, Box and FinalSpec.  Unknown fields are rejected
everywhere so a typo in a physics parameter cannot pass silently.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, fields
from importlib import resources
from pathlib import Path
from typing import get_type_hints

import numpy as np

from .conditional import OutcomeEnsemble, make_outcome_ensemble
from .errors import DomainError, ScenarioError
from .states import (
    GridSpec, SpectralState, _edge_envelope, _packet_reach, _require_in_range,
    make_gaussian_packet, superpose,
)
from .trajectories import Box

BUNDLED_NAMES = ("single_rest", "single_boosted", "s1_negative_density", "s1_conditional")

_NAME_RE = re.compile(r"[A-Za-z0-9._-]+")


@dataclass(frozen=True)
class PacketSpec:
    """One Gaussian packet and its complex superposition coefficient."""

    p_center: float
    p_width: float
    x_center: float
    coeff_re: float
    coeff_im: float

    @property
    def coeff(self) -> complex:
        return complex(self.coeff_re, self.coeff_im)


@dataclass(frozen=True)
class FinalSpec:
    """Final Newton-Wigner measurement block."""

    T: float
    q_lo: float
    q_hi: float
    n_q: int


def _field_types(cls) -> dict:
    """A dataclass's field names and resolved types, in declaration order: a block's schema."""
    hints = get_type_hints(cls)
    return {f.name: hints[f.name] for f in fields(cls)}


_PACKET, _GRID, _BOX, _FINAL = map(_field_types, (PacketSpec, GridSpec, Box, FinalSpec))


@dataclass(frozen=True)
class Scenario:
    name: str
    mass: float
    packets: tuple
    grid: GridSpec
    box: Box
    final: FinalSpec | None


def _take(mapping: dict, context: str, required: dict, optional: dict | None = None):
    """Pull typed fields out of a dict, rejecting unknown keys."""
    optional = optional or {}
    unknown = set(mapping) - set(required) - set(optional)
    if unknown:
        raise ScenarioError(f"unknown field(s) {sorted(unknown)} in {context}")
    out = {}
    for key, typ in required.items():
        if key not in mapping:
            raise ScenarioError(f"missing field {key!r} in {context}")
        out[key] = _coerce(mapping[key], typ, f"{context}.{key}")
    for key, typ in optional.items():
        if key in mapping:
            out[key] = _coerce(mapping[key], typ, f"{context}.{key}")
    return out


def _coerce(value, typ, context: str):
    if typ is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ScenarioError(f"{context} must be a number")
        value = float(value)
        if not np.isfinite(value):
            raise ScenarioError(f"{context} must be finite")
        return value
    if typ is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ScenarioError(f"{context} must be an integer")
        return value
    if typ is str:
        if not isinstance(value, str):
            raise ScenarioError(f"{context} must be a string")
        return value
    if typ is list:
        if not isinstance(value, list):
            raise ScenarioError(f"{context} must be a list")
        return value
    if typ is dict:
        if not isinstance(value, dict):
            raise ScenarioError(f"{context} must be an object")
        return value
    raise AssertionError(f"unhandled type {typ}")


def scenario_from_dict(raw: dict, context: str = "scenario") -> Scenario:
    """Validate a raw scenario mapping into a Scenario."""
    top = _take(
        raw,
        context,
        required={"name": str, "mass": float, "packets": list, "grid": dict, "box": dict},
        optional={"final": dict},
    )
    name = top["name"]
    if not name or not _NAME_RE.fullmatch(name):
        raise ScenarioError("scenario name must be nonempty and filesystem-safe")
    if not top["mass"] > 0:
        raise ScenarioError("mass must be positive")
    if not top["packets"]:
        raise ScenarioError("scenario needs at least one packet")

    packets = []
    for i, entry in enumerate(top["packets"]):
        where = f"{context}.packets[{i}]"
        spec = _take(_coerce(entry, dict, where), where, _PACKET)
        if not spec["p_width"] > 0:
            raise ScenarioError(f"packets[{i}].p_width must be positive")
        packets.append(PacketSpec(**spec))

    g = _take(top["grid"], f"{context}.grid", _GRID)
    if not g["p_min"] < g["p_max"]:
        raise ScenarioError("grid.p_min must be below grid.p_max")
    if g["panels"] < 1 or g["nodes_per_panel"] < 2:
        raise ScenarioError("grid needs at least 1 panel and 2 nodes per panel")
    # the Gauss-Legendre rule is numpy's leggauss algorithm, ported; numpy tests it only
    # up to degree 100, and its companion matrix grows as n^2
    if g["nodes_per_panel"] > 100:
        raise ScenarioError(f"{context}.grid.nodes_per_panel must be at most 100")
    grid = GridSpec(**g)
    if grid.n_nodes < 16:
        raise ScenarioError("grid must carry at least 16 nodes")

    b = _take(top["box"], f"{context}.box", _BOX)
    if not (b["t_lo"] < b["t_hi"] and b["x_lo"] < b["x_hi"]):
        raise ScenarioError("box must have positive extent on both axes")
    box = Box(**b)

    final = None
    if "final" in top:
        f = _take(top["final"], f"{context}.final", _FINAL)
        if not f["q_lo"] < f["q_hi"]:
            raise ScenarioError("final.q_lo must be below final.q_hi")
        if f["n_q"] < 2:
            raise ScenarioError("final.n_q must be at least 2")
        final = FinalSpec(**f)

    # the kernel's range rule on each packet's reach, whose union is the built state's
    bound = grid.resolvable_range
    spans = [("box", [box.t_lo, box.t_lo, box.t_hi, box.t_hi], [box.x_lo, box.x_hi] * 2)]
    if final is not None:
        spans.append(("final outcome", final.T, [final.q_lo, final.q_hi]))
    for i, pk in enumerate(packets):
        for what, t, x in spans:
            try:
                _require_in_range(_packet_reach(pk.x_center, pk.p_width), bound, t, x)
            except DomainError as err:
                raise ScenarioError(f"packets[{i}]: {what} reach {err}") from err

    return Scenario(
        name=name, mass=top["mass"], packets=tuple(packets), grid=grid, box=box, final=final
    )


def load_scenario(source) -> Scenario:
    """Load a scenario from a file path or a bundled scenario name."""
    path = Path(source)
    if path.exists():
        text = path.read_text(encoding="utf-8")
        context = str(path)
    elif str(source) in BUNDLED_NAMES:
        text = (
            resources.files("kgflow").joinpath(f"data/{source}.json").read_text("utf-8")
        )
        context = f"bundled scenario {source!r}"
    else:
        raise ScenarioError(
            f"{source!r} is neither an existing file nor one of the bundled "
            f"scenarios {list(BUNDLED_NAMES)}"
        )
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as err:
        raise ScenarioError(f"invalid JSON in {context}: {err}") from err
    if not isinstance(raw, dict):
        raise ScenarioError(f"{context} must contain a JSON object")
    return scenario_from_dict(raw, context)


def truncation_defect(scenario: Scenario) -> float:
    """Largest packet envelope amplitude at the grid endpoints, over peak."""
    return max(_edge_envelope(pk.p_center, pk.p_width, scenario.grid) for pk in scenario.packets)


def build_state(scenario: Scenario, check_truncation: bool = True) -> SpectralState:
    """Prepared state of a scenario: superposed Gaussian packets."""
    parts = [
        make_gaussian_packet(
            scenario.mass,
            pk.p_center,
            pk.p_width,
            pk.x_center,
            scenario.grid,
            check_truncation=check_truncation,
        )
        for pk in scenario.packets
    ]
    return superpose(parts, [pk.coeff for pk in scenario.packets])


def _final_block(scenario: Scenario):
    """The scenario's final measurement block; ScenarioError when it has none."""
    if scenario.final is None:
        raise ScenarioError(f"scenario {scenario.name!r} has no final block")
    return scenario.final


def build_ensemble(scenario: Scenario, state: SpectralState) -> OutcomeEnsemble:
    """Outcome ensemble of a scenario's final measurement block."""
    f = _final_block(scenario)
    return make_outcome_ensemble(state, f.T, f.q_lo, f.q_hi, f.n_q)

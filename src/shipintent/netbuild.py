"""Assembly of the sliced intention network.

Node count for ``n`` obstacle ships and ``S`` slices:

* intention roots: 10 shared + 2 per ship
* latch carry-ins: 2 (seed values for the turn latches at slice 0)
* per slice: 9 + 8n measurement roots and 7 + 15n model nodes

total = 12 + 2n + S * (16 + 23n).
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from . import nodes
from .bn import Factor, Network, Variable, binned, boolean, set_evidence
from .discretize import (
    INTENTION_BINARY,
    THRESHOLDS,
    Discretization,
    IntentionPriors,
    situation_prior,
    threshold_prior_masses,
)
from .geometry import Situation
from .nodes import MeasurementVector, at, ship


def node_count(n_ships: int, slices: int) -> int:
    return 12 + 2 * n_ships + slices * (16 + 23 * n_ships)


def intention_variables(n_ships: int, disc: Discretization) -> list[Variable]:
    out = [binned(name, disc.channel(name).bins) for name in THRESHOLDS]
    out += [boolean(name) for name in INTENTION_BINARY]
    for i in range(1, n_ships + 1):
        out.append(Variable(ship("priority", i), nodes.PRIORITY_STATES))
        out.append(Variable(ship("situation_view", i), nodes.SITUATION_STATES))
    return out


def measurement_variables(n_ships: int, disc: Discretization) -> list[Variable]:
    """Every slice-local measurement root, in network order."""
    table = {**nodes.SHARED_MEASUREMENTS, **nodes.SHIP_MEASUREMENTS}
    out = []
    for node, base in nodes.measurement_bases(n_ships).items():
        _, labels = table[base]
        if labels is None:
            out.append(binned(node, disc.channel(base).bins))
        else:
            out.append(Variable(node, labels))
    return out


def intention_prior_vector(
    name: str,
    priors: IntentionPriors,
    disc: Discretization,
    situations: Sequence[Situation] | None,
) -> np.ndarray:
    if name in THRESHOLDS:
        return threshold_prior_masses(priors, disc, name)
    if name in INTENTION_BINARY:
        p = getattr(priors, name)
        return np.array((1.0 - p, p))
    if name.startswith("priority_"):
        return np.asarray(priors.priority, dtype=float)
    if name.startswith("situation_view_"):
        if situations is None:
            return np.full(len(nodes.SITUATION_STATES), 1.0 / len(nodes.SITUATION_STATES))
        i = int(name.rsplit("_", 1)[1])
        measured = nodes.SITUATION_STATES.index(situations[i - 1].value)
        return situation_prior(measured, len(nodes.SITUATION_STATES), priors.situation_concentration)
    raise ValueError(f"no prior rule for {name!r}")


def build_intention_dbn(
    n_ships: int,
    priors: IntentionPriors,
    disc: Discretization,
    slices: int,
    *,
    situations: Sequence[Situation] | None = None,
) -> Network:
    """Build the full sliced network.

    ``situations`` optionally anchors each ship's situation-view prior on the
    situation measured when the encounter started; without it the prior is
    uniform.
    """
    if n_ships < 1:
        raise ValueError("n_ships must be >= 1")
    if slices < 1:
        raise ValueError("slices must be >= 1")
    if situations is not None and len(situations) != n_ships:
        raise ValueError("need one anchoring situation per ship")
    net = Network()
    for var in intention_variables(n_ships, disc):
        net.add_prior(var, intention_prior_vector(var.id, priors, disc, situations))
    for carry in ("turned_starboard_carry", "turned_port_carry"):
        net.add_prior(boolean(carry), (0.5, 0.5))

    specs = nodes.model_node_specs(n_ships)
    meas_vars = measurement_variables(n_ships, disc)
    intention_set = set(nodes.intention_ids(n_ships))
    for k in range(slices):
        for var in meas_vars:
            slice_var = Variable(at(var.id, k), var.states)
            net.add_prior(slice_var, np.full(var.cardinality, 1.0 / var.cardinality))
        for spec in specs:
            parent_ids = []
            for p in spec.parents:
                if p in intention_set:
                    parent_ids.append(p)
                elif spec.temporal and p.endswith("_prev"):
                    base = p.removesuffix("_prev")
                    parent_ids.append(f"{base}_carry" if k == 0 else at(base, k - 1))
                else:
                    parent_ids.append(at(p, k))
            child = net.add_variable(boolean(at(spec.node_id, k)))
            parents = [net.variables[p] for p in parent_ids]
            net.add_cpt(Factor.predicate_cpt(child, parents, spec.predicate))
    net.topological_order()
    return net


def apply_measurement_evidence(net: Network, k: int, meas: MeasurementVector) -> Network:
    """Set hard evidence for every measurement node of slice ``k``."""
    for base, state in meas.as_states().items():
        set_evidence(net, at(base, k), state)
    return net


def assert_compatible(net: Network, k: int) -> Network:
    """Observe the slice-``k`` compatibility node as true."""
    return set_evidence(net, at("compatible", k), nodes.TRUE)

"""The model's single sources of truth: the channel registry and the one
truth-table compiler shared by the sliced network and the session engine."""

import dataclasses
import math

import numpy as np
import pytest

from shipintent.bn import truth_table
from shipintent.discretize import (
    CHANNEL_REGISTRY,
    Channel,
    INTENTION_BINARY,
    THRESHOLDS,
    Discretization,
    IntentionPriors,
    TruncNorm,
)
from shipintent.geometry import ShipState
from shipintent.netbuild import build_intention_dbn, measurement_variables
from shipintent.nodes import at, measurement_ids, model_node_specs
from shipintent.runtime import init_session

DISC3 = Discretization().with_bins(3)


def head_on_pair():
    own = ShipState(t=0.0, x=0.0, y=0.0, sog=5.0, cog=0.0)
    obstacle = ShipState(t=0.0, x=1800.0, y=120.0, sog=4.0, cog=math.pi)
    return own, obstacle


def test_registry_rows_name_real_fields():
    disc, priors = Discretization(), IntentionPriors()
    assert [row.channel for row in CHANNEL_REGISTRY] == [f.name for f in dataclasses.fields(disc)]
    assert len(set(THRESHOLDS)) == len(THRESHOLDS) == len(CHANNEL_REGISTRY)
    for row in CHANNEL_REGISTRY:
        assert isinstance(getattr(priors, row.threshold), TruncNorm)
        assert disc.channel(row.threshold) is getattr(disc, row.channel)
    for name in INTENTION_BINARY:
        assert 0.0 <= getattr(priors, name) <= 1.0


def test_binned_measurements_take_their_threshold_channel():
    disc = Discretization(cpa=Channel(1500.0, 7))
    by_id = {v.id: v for v in measurement_variables(2, disc)}
    assert list(by_id) == measurement_ids(2)
    assert by_id["meas_dcpa_1"].cardinality == by_id["meas_dcpa_2"].cardinality == 7
    for row in CHANNEL_REGISTRY:
        bins = disc.channel(row.threshold).bins
        for base in row.measurements:
            assert disc.channel(base) is disc.channel(row.threshold)
            assert all(
                v.cardinality == bins for v in by_id.values() if v.id.startswith(base)
            )


def test_model_node_specs_are_stable_objects():
    assert model_node_specs(2) is model_node_specs(2)
    assert isinstance(model_node_specs(1), tuple)


@pytest.mark.parametrize("n_ships", [1, 2])
def test_sessions_share_compiled_tables(n_ships):
    own, obstacle = head_on_pair()
    obstacles = [obstacle, obstacle.advanced(0.0)][:n_ships]
    first = init_session(own, obstacles, disc=DISC3)
    second = init_session(own, obstacles, disc=DISC3)
    assert first.layout is not second.layout
    assert first.layout.tables.keys() == second.layout.tables.keys()
    for node, table in first.layout.tables.items():
        assert second.layout.tables[node] is table, node
        assert not table.flags.writeable, node


@pytest.mark.parametrize("n_ships", [1, 2])
def test_predicate_cpts_agree_with_session_tables(n_ships):
    own, obstacle = head_on_pair()
    session = init_session(own, [obstacle] * n_ships, disc=DISC3)
    net = build_intention_dbn(n_ships, session.priors, DISC3, 1)
    for spec in model_node_specs(n_ships):
        cpt = net.cpts[at(spec.node_id, 0)].table
        table = session.layout.tables[spec.node_id]
        np.testing.assert_array_equal(cpt[..., 1], table.astype(float), err_msg=spec.node_id)
        np.testing.assert_array_equal(cpt[..., 0], (~table).astype(float), err_msg=spec.node_id)


def test_truth_table_enumerates_every_combination():
    table = truth_table(lambda a, b: a == 2 or b == 1, (3, 2))
    np.testing.assert_array_equal(table, [[False, True], [False, True], [True, True]])
    assert truth_table(lambda: True, ()).shape == ()


def test_measurement_table_reads_every_vector_field_once():
    from shipintent.nodes import (
        SHARED_MEASUREMENTS,
        SHIP_MEASUREMENTS,
        MeasurementVector,
        ShipMeasurements,
    )

    for table, cls, skip in (
        (SHARED_MEASUREMENTS, MeasurementVector, {"ships"}),
        (SHIP_MEASUREMENTS, ShipMeasurements, set()),
    ):
        attrs = [attr for attr, _ in table.values()]
        fields = [f.name for f in dataclasses.fields(cls) if f.name not in skip]
        assert sorted(attrs) == sorted(fields)
    # the network's measurement roots take their labels from the same rows
    by_id = {v.id: v for v in measurement_variables(1, DISC3)}
    for node, (_, labels) in SHARED_MEASUREMENTS.items():
        if labels is not None:
            assert by_id[node].states == labels

"""Byte-identity guards: the published schema, canonical config documents
and the extraction report must not change under refactoring.

The golden files under ``tests/golden`` were written by the code these tests
guard; a change to any of them is a change to the file format or the report.
"""

import hashlib
import json
import math
from pathlib import Path

from shipintent.config import CONFIG_SCHEMA, RunConfig, default_config, parse_config, serialize_config
from shipintent.discretize import Channel, Discretization, IntentionPriors, TruncNorm
from shipintent.extract import ExtractionResult
from shipintent.geometry import GeometryParams
from shipintent.runtime import SlicePolicy
from shipintent.trajgen import LosParams

GOLDEN = Path(__file__).parent / "golden"

SCHEMA_SHA256 = "ba553b4ef3806f5fdbf2828f5dd69fe6db5293c7c2f8710332e0e56a30f14387"


def custom_config() -> RunConfig:
    """A config that moves at least one field of every kind off its default."""
    return RunConfig(
        priors=IntentionPriors(
            safe_cpa=TruncNorm(700.0, 300.0, 0.0, 1200.0),
            ample_time=TruncNorm(2000.5, 812.25, 0.0, 4000.0),
            good_seamanship=0.95,
            unmodeled=0.05,
            priority=(0.2, 0.6, 0.2),
            situation_concentration=0.8,
        ),
        discretization=Discretization(cpa=Channel(1200.0, 8), time_to_cpa=Channel(4000.0, 12)),
        geometry=GeometryParams(head_on_half_angle=math.radians(17.3), wp_window=45.0),
        slice_policy=SlicePolicy(max_age=90.0, course_delta=math.radians(7.5)),
        trajectories=LosParams(
            offsets=(math.radians(-33.7), 0.0, math.radians(12.1)),
            turn_rate=math.radians(3.0),
            horizon=900.0,
        ),
        lookahead=90.0,
        ground_threshold=1500.0,
        map_densify_spacing=25.0,
        export_format="jsonl",
    )


def test_schema_bytes_are_unchanged():
    text = json.dumps(CONFIG_SCHEMA, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == SCHEMA_SHA256


def test_default_config_bytes_are_unchanged():
    assert serialize_config(default_config()) == (GOLDEN / "default_config.json").read_text()


def test_custom_config_bytes_are_unchanged():
    golden = (GOLDEN / "custom_config.json").read_text()
    assert serialize_config(custom_config()) == golden
    assert serialize_config(parse_config(golden)) == golden
    assert parse_config(golden) == custom_config()


def test_extraction_report_lines_are_unchanged():
    result = ExtractionResult(
        isdf_vals=(410.0, 530.0),
        dcpa_vals=(820.0,),
        tcpa_vals=(1200.0, 1500.0, 1650.0),
        sdgs_vals=(),
        sdgf_vals=(300.0, 410.0),
        fitted={
            "safe_front_cross": (470.0, 84.85),
            "safe_cpa": None,
            "safe_midpoint": None,
            "ample_time": (1450.0, 229.13),
            "safe_ground_side": None,
            "safe_ground_front": (355.0, 77.78),
        },
        sample_counts={
            "safe_front_cross": 2,
            "safe_cpa": 1,
            "safe_midpoint": 0,
            "ample_time": 3,
            "safe_ground_side": 0,
            "safe_ground_front": 2,
        },
    )
    assert result.report().split("\n") == [
        "extraction report",
        "==================",
        "safe_front_cross   front clearance while crossing: 2 samples, mean 470.0 sd 84.8",
        "safe_cpa           closest approach while overtaking: 1 samples, kept default prior",
        "safe_midpoint      midpoint clearance while head-on: 0 samples, kept default prior",
        "ample_time         time to closest approach: 3 samples, mean 1450.0 sd 229.1",
        "safe_ground_side   side hazard clearance: 0 samples, kept default prior",
        "safe_ground_front  front hazard clearance: 2 samples, mean 355.0 sd 77.8",
    ]

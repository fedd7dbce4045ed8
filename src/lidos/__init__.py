"""Lifelong dynamic-optimization planning engine and benchmark harness."""

from .baselines import PLANNER_KINDS, make_planner
from .harness import (
    ScenarioSpec,
    parse_scenario,
    run_scenario,
    summarize_bundle,
    write_bundle_outputs,
)
from .space import ConfigSpace, OptionSpec
from .twin import (
    CyberTwin,
    Environment,
    MeasurementTable,
    load_measurements,
    synth_landscape,
    synth_tables,
)

__all__ = [
    "parse_scenario",
    "run_scenario",
    "summarize_bundle",
    "write_bundle_outputs",
    "ScenarioSpec",
    "PLANNER_KINDS",
    "make_planner",
    "ConfigSpace",
    "OptionSpec",
    "Environment",
    "MeasurementTable",
    "CyberTwin",
    "load_measurements",
    "synth_landscape",
    "synth_tables",
]

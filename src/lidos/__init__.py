"""Lifelong dynamic-optimization planning engine and benchmark harness.

Each public name is imported from its home module on first use (PEP 562),
so `import lidos` loads neither numpy nor any module of the package."""

import importlib

# Each public name, and the module it lives in.
_HOMES = {
    "parse_scenario": "harness",
    "run_scenario": "harness",
    "summarize_bundle": "harness",
    "write_bundle_outputs": "harness",
    "ScenarioSpec": "harness",
    "PLANNER_KINDS": "baselines",
    "make_planner": "baselines",
    "ConfigSpace": "space",
    "OptionSpec": "space",
    "Environment": "twin",
    "MeasurementTable": "twin",
    "CyberTwin": "twin",
    "load_measurements": "twin",
    "synth_landscape": "twin",
    "synth_tables": "twin",
}

__all__ = list(_HOMES)


def __getattr__(name: str):
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOMES[name]}", __name__), name)
    globals()[name] = value
    return value

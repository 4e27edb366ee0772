"""The benchmark's probe hooks name functions the program still has.

``perfbench/probe.py`` wraps program functions by name; a renamed one
makes a traced benchmark run fail with ``HookError``. The probe is loaded
from its file and inspected without installing a hook.
"""
from __future__ import annotations

import importlib
import importlib.util
import os

import pytest

PROBE = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "probe.py")


def load_probe():
    spec = importlib.util.spec_from_file_location("perfbench_probe", PROBE)
    probe = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(probe)
    return probe


HOOKS = load_probe().HOOKS


@pytest.mark.parametrize("owner, attr", [(h[0], h[1]) for h in HOOKS],
                         ids=[f"{h[0]}.{h[1]}" for h in HOOKS])
def test_every_hook_names_an_existing_attribute(owner, attr):
    module_name, _, class_name = owner.partition(":")
    module = importlib.import_module(f"spatial_link.{module_name}")
    if class_name:
        assert attr in vars(getattr(module, class_name))
    else:
        assert callable(getattr(module, attr))


@pytest.mark.parametrize("module_name, attr", [("pipeline", "build_graph"),
                                               ("aar", "build_aar_graph")])
def test_stop_at_graph_targets_exist(module_name, attr):
    module = importlib.import_module(f"spatial_link.{module_name}")
    assert callable(getattr(module, attr))

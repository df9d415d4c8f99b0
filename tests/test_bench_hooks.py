"""The benchmark's tracer patches graphcon functions by name.

A refactor that renames or moves a traced function breaks the benchmark's
traced run; this test makes it fail here first. It only reads ``bench/``.
"""

import importlib.util
from pathlib import Path

import graphcon

TRACER_PATH = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_exists():
    tracer = load_tracer()
    missing = [(prefix, attr) for prefix, owner, attr in tracer.TRACED
               if attr not in owner.__dict__]
    assert not missing


def test_install_and_uninstall_restore_originals():
    tracer = load_tracer()
    originals = [(owner, attr, owner.__dict__[attr]) for _, owner, attr in tracer.TRACED]
    hooks = tracer.Tracer()
    hooks.install()
    try:
        assert hooks.installed
        graphcon.run_gallery("example_2_2")
        assert hooks.calls("gallery.run_gallery") == 1
        assert hooks.calls("solver.solve") == 2
    finally:
        hooks.uninstall()
    assert not hooks.installed
    assert all(owner.__dict__[attr] is fn for owner, attr, fn in originals)

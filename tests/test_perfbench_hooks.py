"""The benchmark's layer tracer hooks tailsurv attributes by name.

perfbench/tracer.py replaces each (owner, attribute) of its HOOKS table
where callers look it up, so a rename or deletion in the package breaks
traced benchmark runs.  This reads the table without installing it.
"""

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def test_every_tracer_hook_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.HOOKS
    # install() reads a class's own __dict__ and a module's attributes,
    # which for a module are its __dict__ too
    missing = [(owner.__name__, attr) for owner, attr, _, _ in tracer.HOOKS
               if not callable(vars(owner).get(attr))]
    assert not missing

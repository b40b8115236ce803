"""perfbench patches each probed function at the name its caller looks up.

A probe whose site no longer resolves is skipped and its per-layer metric
silently reads 0, so a rename in vlcfed must be caught here instead.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _probe_sites():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return [site for _, _, sites, _ in spans.PROBES for site in sites]


@pytest.mark.parametrize("site", _probe_sites())
def test_probe_site_resolves(site):
    module_name, _, path = site.partition(":")
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    target = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
    assert callable(target), f"{site} does not resolve to a function"

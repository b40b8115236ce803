"""perfbench patches each probed function at the name its caller looks up.

A probe whose site no longer resolves is skipped and its per-layer metric
silently reads 0, so a rename in vlcfed must be caught here instead.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"

# The checked per-user forms these sites named are gone from vlcfed: no vlcfed
# code called them, since a feasibility pass and FedAvg run batched kernels,
# so their metrics already read 0 before the removal. perfbench still lists
# them; they must stay unresolved, so that a probe cannot silently measure a
# function that came back under an old name.
RETIRED = (
    "vlcfed.allocation:rf_rate",
    "vlcfed.allocation:vlc_sinr",
    "vlcfed.allocation:cost_breakdown",
    "vlcfed.allocation:is_feasible",
    "vlcfed.fl:local_train",
    "vlcfed.fl:aggregate",
)


def _probe_sites():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return [site for _, _, sites, _ in spans.PROBES for site in sites]


def _resolve(site):
    """The function a probe at ``site`` would patch, as perfbench looks it up, or None."""
    module_name, _, path = site.partition(":")
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)


@pytest.mark.parametrize("site", [site for site in _probe_sites() if site not in RETIRED])
def test_probe_site_resolves(site):
    assert callable(_resolve(site)), f"{site} does not resolve to a function"


@pytest.mark.parametrize("site", RETIRED)
def test_retired_probe_site_does_not_resolve(site):
    assert _resolve(site) is None, f"{site} resolves again; probe it as a live site"

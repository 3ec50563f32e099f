"""Absolute pins on the serving and fleet front ends, driven through the
CLI in process.

The bench scenarios pin ``ServingSystem`` only in flep-spatial mode and
the fleet only with the oracle predictor. These pins cover the rest of
the front end: an MPS server (lazily trained ridge predictor, FIFO
backlog rule, admission on and off), a flep-temporal server, and a
ridge-predictor fleet that mixes FLEP and MPS nodes, with and without a
crash + rejoin of its MPS node. A change that moves one of these
schedules must update the pin and say why.
"""

import json

import pytest

from repro.cli import main
from repro.obs.metrics import parse_prometheus

#: ``flep serve --mode all --admission on --rate 3 --duration 40
#: --slo 150``: every mode sheds or delays some interactive requests.
SERVE_ALL = ["serve", "--mode", "all", "--admission", "on", "--rate", "3",
             "--duration", "40", "--slo", "150", "--json"]

#: mode -> (schedule_hash, interactive (requests, shed, delayed, completed))
PINNED_SERVE = {
    "mps": ("875f115b", (126, 97, 3, 29)),
    "flep-temporal": ("6f2c96d9", (126, 0, 10, 126)),
    "flep-spatial": ("153d3734", (126, 0, 9, 126)),
}

FLEET = ["fleet", "--gpus", "3", "--modes", "flep-spatial,flep-temporal,mps",
         "--json"]


def _json(capsys, argv):
    assert main(argv) == 0
    return json.loads(capsys.readouterr().out)


def _totals(doc):
    tenants = doc["serving"]["tenants"]
    return tuple(
        sum(t[key] for t in tenants)
        for key in ("requests", "shed", "delayed", "lost")
    )


def test_serve_every_mode_is_pinned(capsys):
    docs = _json(capsys, SERVE_ALL)
    got = {}
    for doc in docs:
        (inter,) = [t for t in doc["tenants"] if t["tenant"] == "interactive"]
        got[doc["mode"]] = (doc["schedule_hash"], tuple(
            inter[k] for k in ("requests", "shed", "delayed", "completed")
        ))
    assert got == PINNED_SERVE


def test_serve_mps_without_admission_is_pinned(capsys):
    """Default admission is off under MPS: no predictor, nothing shed."""
    (doc,) = _json(capsys, ["serve", "--mode", "mps", "--rate", "3",
                            "--duration", "40", "--slo", "1500", "--json"])
    (inter,) = [t for t in doc["tenants"] if t["tenant"] == "interactive"]
    assert (doc["schedule_hash"], inter["requests"], inter["shed"]) == (
        "639ab6db", 126, 0,
    )


def test_serve_mps_exports_only_serving_metrics(capsys):
    """An explicit hub observes the MPS server's requests; the MPS device
    itself reports only to a process-global hub."""
    assert main(["serve", "--mode", "mps", "--rate", "0.5", "--duration",
                 "5", "--prometheus"]) == 0
    out = capsys.readouterr().out
    parsed = parse_prometheus(out[out.index("# HELP"):])
    names = {name for name, _ in parsed}
    assert "flep_serving_requests_total" in names
    assert all(name.startswith("flep_serving_") for name in names), names


@pytest.mark.parametrize("extra, pinned", [
    (["--duration", "60"], ("b0b91045", (384, 68, 82, 0))),
    (["--duration", "40", "--faults", "crash@15000:n2,rejoin@30000:n2"],
     ("ec56d362", (258, 24, 48, 4))),
], ids=["steady", "mps-crash-rejoin"])
def test_mixed_ridge_fleet_is_pinned(capsys, extra, pinned):
    doc = _json(capsys, [*FLEET, *extra])
    assert (doc["schedule_hash"], _totals(doc)) == pinned

"""Report bytes pinned to recorded digests.

Each digest is the sha256 of ``report_to_json`` followed by the
``report_to_csv_rows`` text, for the default analysis options.  A change
that keeps the analysis must keep every digest; one that means to alter
reports records them again and says why.
"""

import csv
import hashlib
import io
from dataclasses import replace

import pytest

from chainlat import generate_workload
from chainlat.latency import analyze_bundle, report_to_csv_rows, report_to_json

from conftest import boundary_bundle


def _forced_periods(bundle, periods):
    chains = [bundle.chains[cid] for cid in sorted(bundle.chains)]
    return replace(bundle, chains={c.id: replace(c, period=p) for c, p in zip(chains, periods)})


BUNDLES = {
    "dual_et": lambda: generate_workload(seed=2, cores=2, trigger="ET", collision=0.8),
    "dual_tt": lambda: generate_workload(seed=2, cores=2, trigger="TT", collision=0.8),
    "dual_mix": lambda: generate_workload(seed=2, cores=2, collision=0.8),
    "quad_mix": lambda: generate_workload(seed=3, cores=4, collision=0.8),
    # Periods 2000/2080: hyperperiod 52,000 with 102 jobs.
    "dual_periods_2000_2080": lambda: _forced_periods(
        generate_workload(seed=2, cores=2, collision=0.8), (2000, 2080)),
    "hyperperiod_boundary": boundary_bundle,
}

DIGESTS = {
    "dual_et": "eb809eccb57d074242aa547620686e5a40a17dc2f697c60917d1b440084937cf",
    "dual_tt": "a27855bbf76719527e797d156ad5cb58761214708eb2b1085a3f61510a47a9d7",
    "dual_mix": "c06db48c1ac534ed8b5ccf4a6834392a112d2a587fa1ac7d4c500c420487caa2",
    "quad_mix": "f599e879043321b943ddb6c454a68ec6811eb7f9325aedeca99efbb02d183873",
    "dual_periods_2000_2080": "274248e83f75d5455fceacbc693e54908b234da5f31d19a5f58955485cf68f71",
    "hyperperiod_boundary": "1720bfee2e8a3f7595e457ac700a1e6d7d4ac25671e3f27074dc78ae46fdd9e1",
}


def _report(bundle):
    report = analyze_bundle(bundle)
    buf = io.StringIO(newline="")
    csv.writer(buf).writerows(report_to_csv_rows(report))
    return report, report_to_json(report, bundle) + buf.getvalue()


@pytest.mark.parametrize("name", sorted(BUNDLES))
def test_report_digest(name):
    _, text = _report(BUNDLES[name]())
    assert hashlib.sha256(text.encode()).hexdigest() == DIGESTS[name]


def test_boundary_bundle_interference_comes_from_shifted_copy():
    report, _ = _report(boundary_bundle())
    assert report.instances[("TSC", "c0", 0, 0)].mc == {"m": 1}

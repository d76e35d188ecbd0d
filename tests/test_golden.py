"""Report bytes pinned to recorded digests.

Each report digest is the sha256 of ``report_to_json`` followed by the
``report_to_csv_rows`` text; ``DIGESTS`` holds the default analysis options
and ``OPTION_DIGESTS`` each non-default option.  ``INTERFERENCE_DIGESTS``
pins the ``interference.csv`` debug dump (raw and after-MWIS sums per
access) under every option set.  ``CONTEXT_DIGESTS`` pins the
``contexts.csv`` debug dump (every job's absolute block windows) under the
default options.  ``TRACE_DIGESTS`` pins the simulator's
``trace.csv`` for the worst-biased path and random path 0.
``CLASSIFICATION_DIGESTS`` pins the exclusive-use classification: every
task's ``classification.csv`` debug dump and its fixpoint pass counts
``(l1_passes, l2_passes)``, which the bench's ``cache_ai.fixpoint_passes``
sums.  ``GENERATOR_DIGESTS`` pins every file ``chainlat generate`` writes.  A change that
keeps the analysis must keep every digest; one that means to alter reports
or traces records them again and says why.
"""

import csv
import hashlib
import io
from dataclasses import replace

import pytest

from chainlat import generate_workload
from chainlat.cache_ai import classify_task, write_classification_csv
from chainlat.cli import main
from chainlat.context import write_context_csv
from chainlat.interference import write_interference_csv
from chainlat.latency import AnalysisOptions, analyze_bundle, report_to_csv_rows, report_to_json
from chainlat.sim import SimConfig, simulate, write_trace_csv

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
    # Four-task ET chains: counting="access" and et_rule="max" both change
    # this report, while the bundles above report the same under either.
    "dual_et_4tasks": lambda: generate_workload(seed=1, cores=2, tasks_per_chain=4, trigger="ET",
                                                collision=0.8),
}

DIGESTS = {
    "dual_et": "eb809eccb57d074242aa547620686e5a40a17dc2f697c60917d1b440084937cf",
    "dual_tt": "a27855bbf76719527e797d156ad5cb58761214708eb2b1085a3f61510a47a9d7",
    "dual_mix": "c06db48c1ac534ed8b5ccf4a6834392a112d2a587fa1ac7d4c500c420487caa2",
    "quad_mix": "f599e879043321b943ddb6c454a68ec6811eb7f9325aedeca99efbb02d183873",
    "dual_periods_2000_2080": "274248e83f75d5455fceacbc693e54908b234da5f31d19a5f58955485cf68f71",
    "hyperperiod_boundary": "1720bfee2e8a3f7595e457ac700a1e6d7d4ac25671e3f27074dc78ae46fdd9e1",
    "dual_et_4tasks": "6dc274f55355f6eede03ff734e78d90702fe76f9ee922f35e4b1841fae4132e0",
}


OPTIONS = {
    "default": AnalysisOptions(),
    "counting_access": AnalysisOptions(counting="access"),
    "et_rule_max": AnalysisOptions(et_rule="max"),
    "passes_2": AnalysisOptions(refinement_passes=2),
}

OPTION_DIGESTS = {
    "counting_access": {
        "dual_et": "eb809eccb57d074242aa547620686e5a40a17dc2f697c60917d1b440084937cf",
        "dual_et_4tasks": "0774d4111954c39140fdbe97841fccffc3ab5cb9c9fb8a371749a74fd741f6aa",
        "dual_mix": "c06db48c1ac534ed8b5ccf4a6834392a112d2a587fa1ac7d4c500c420487caa2",
        "dual_periods_2000_2080": "274248e83f75d5455fceacbc693e54908b234da5f31d19a5f58955485cf68f71",
        "dual_tt": "a27855bbf76719527e797d156ad5cb58761214708eb2b1085a3f61510a47a9d7",
        "hyperperiod_boundary": "1720bfee2e8a3f7595e457ac700a1e6d7d4ac25671e3f27074dc78ae46fdd9e1",
        "quad_mix": "f599e879043321b943ddb6c454a68ec6811eb7f9325aedeca99efbb02d183873",
    },
    "et_rule_max": {
        "dual_et": "eb809eccb57d074242aa547620686e5a40a17dc2f697c60917d1b440084937cf",
        "dual_et_4tasks": "8abe55965b4b8111881be3bfb5835daa17abf50e0f622b16764dee1e48ff62ae",
        "dual_mix": "c06db48c1ac534ed8b5ccf4a6834392a112d2a587fa1ac7d4c500c420487caa2",
        "dual_periods_2000_2080": "274248e83f75d5455fceacbc693e54908b234da5f31d19a5f58955485cf68f71",
        "dual_tt": "a27855bbf76719527e797d156ad5cb58761214708eb2b1085a3f61510a47a9d7",
        "hyperperiod_boundary": "1720bfee2e8a3f7595e457ac700a1e6d7d4ac25671e3f27074dc78ae46fdd9e1",
        "quad_mix": "f599e879043321b943ddb6c454a68ec6811eb7f9325aedeca99efbb02d183873",
    },
    "passes_2": {
        "dual_et": "eb809eccb57d074242aa547620686e5a40a17dc2f697c60917d1b440084937cf",
        "dual_et_4tasks": "6dc274f55355f6eede03ff734e78d90702fe76f9ee922f35e4b1841fae4132e0",
        "dual_mix": "c06db48c1ac534ed8b5ccf4a6834392a112d2a587fa1ac7d4c500c420487caa2",
        "dual_periods_2000_2080": "029088efefa068929c25b87cd89ca1b62eeb09f7b49e32438dce2d9eed44e3c2",
        "dual_tt": "a27855bbf76719527e797d156ad5cb58761214708eb2b1085a3f61510a47a9d7",
        "hyperperiod_boundary": "1720bfee2e8a3f7595e457ac700a1e6d7d4ac25671e3f27074dc78ae46fdd9e1",
        "quad_mix": "f599e879043321b943ddb6c454a68ec6811eb7f9325aedeca99efbb02d183873",
    },
}

INTERFERENCE_DIGESTS = {
    "counting_access": {
        "dual_et": "108891a9a0eac83e1827440e703329c3b90ae1556e4a370f6d2ff5fa8efc6254",
        "dual_et_4tasks": "27eddea733c7ebf2550f64d85fbc530e11a29bc812cbcdabd14692823c3a2697",
        "dual_mix": "59f71d01cbe3e1a9ecb143ee89856bcfd6a5993b4d57ca9152c5eedea7e19b57",
        "dual_periods_2000_2080": "2aedc4fb4120cc6f9553cf13932fe1138dbaf91e7c8a7a02205fc3e76069bf4a",
        "dual_tt": "6e814ef252da9e0cb66c8ef335492828d2904bc3fd74c8212e5ba6fc5a80a97e",
        "hyperperiod_boundary": "893f5a2ed2dbe2518b636b2a90bc2e012084c6108b92539a995d689355f6bc71",
        "quad_mix": "829a28acf8a5138cbc1b6abff6ea62b4cc7566661ad386e7d16f030b0e8ebe76",
    },
    "default": {
        "dual_et": "4ff6a0ceabfd0a54bad69094746b9540698b66a8b5f4c4d5d746451b56704b82",
        "dual_et_4tasks": "fb11064d50fa37cbcf3e246b6a2ef1a6fe34d14a7f51892cdc59b5c39d0a4131",
        "dual_mix": "b82f1fa4b66017e39831ccc7ea9a5a831d237e4ad04749bca998e7d503bff69d",
        "dual_periods_2000_2080": "2a94030e14ad729a36e34aba5a235a12a727d4b81c29e571653f82a89c90e67c",
        "dual_tt": "6e814ef252da9e0cb66c8ef335492828d2904bc3fd74c8212e5ba6fc5a80a97e",
        "hyperperiod_boundary": "893f5a2ed2dbe2518b636b2a90bc2e012084c6108b92539a995d689355f6bc71",
        "quad_mix": "d1a1d90471650445fffd9feff54020520c8a4e568094be5e09d3d5894e649a15",
    },
    "et_rule_max": {
        "dual_et": "4ff6a0ceabfd0a54bad69094746b9540698b66a8b5f4c4d5d746451b56704b82",
        "dual_et_4tasks": "987e04d65a5422e303ab30a7be6aa2ccc115ee9346193b52d924802fe7e254ba",
        "dual_mix": "b82f1fa4b66017e39831ccc7ea9a5a831d237e4ad04749bca998e7d503bff69d",
        "dual_periods_2000_2080": "2a94030e14ad729a36e34aba5a235a12a727d4b81c29e571653f82a89c90e67c",
        "dual_tt": "6e814ef252da9e0cb66c8ef335492828d2904bc3fd74c8212e5ba6fc5a80a97e",
        "hyperperiod_boundary": "893f5a2ed2dbe2518b636b2a90bc2e012084c6108b92539a995d689355f6bc71",
        "quad_mix": "d1a1d90471650445fffd9feff54020520c8a4e568094be5e09d3d5894e649a15",
    },
    "passes_2": {
        "dual_et": "4ff6a0ceabfd0a54bad69094746b9540698b66a8b5f4c4d5d746451b56704b82",
        "dual_et_4tasks": "fb11064d50fa37cbcf3e246b6a2ef1a6fe34d14a7f51892cdc59b5c39d0a4131",
        "dual_mix": "b82f1fa4b66017e39831ccc7ea9a5a831d237e4ad04749bca998e7d503bff69d",
        "dual_periods_2000_2080": "ff23a70abaae9b8fa4ec8a3193887174d8a4e20f841ad068f98d39e710532aea",
        "dual_tt": "6e814ef252da9e0cb66c8ef335492828d2904bc3fd74c8212e5ba6fc5a80a97e",
        "hyperperiod_boundary": "893f5a2ed2dbe2518b636b2a90bc2e012084c6108b92539a995d689355f6bc71",
        "quad_mix": "a5121ce67cc5e3febdc3500187c4115f1e49a7f503a693df01bce017ee7165fe",
    },
}


CONTEXT_DIGESTS = {
    "dual_et": "52c7c22f05a044c1bdf76296cc9119302ae3e05fcf136c5db1a88f3730f121b9",
    "dual_et_4tasks": "69d0e0cd1199645aead9d5e2e4f335748d1997dc650204efbf5bc5036d2569ac",
    "dual_mix": "d47f2d7f233fef0911e1ba87d662a113b99aeb0ce6ac2201f658bbeca77d4a77",
    "dual_periods_2000_2080": "22b50f4497c51b8c94c3c6dba7459c0938e0d0ddfc030e3e9290d5d1ed9dd26e",
    "dual_tt": "76f9f975e5f36b7785b409beb093374a4d4e8eba2d158d7f75a69e66ac5698dc",
    "hyperperiod_boundary": "424835ea37d0754a2f576a506c15d681892aa1d960c7ac39e34c4018ec6c20e9",
    "quad_mix": "2f3dd368dcab319755df86f866120d9f9397ba4e9bdc9e95fe96975bf103bed4",
}


TRACE_DIGESTS = {
    "random": {
        "dual_et": "20d44165f2bfd52a672f60431be7528cb86b813334fc26df966e6ecbd2607560",
        "dual_et_4tasks": "1b6850a3e98e24e6699a1cec032bcd39fe69a9805370f936521d35780bfa026e",
        "dual_mix": "2cdbe2a1ca299ff930c6fb707f89055545731c80523e545e757ac9a73460da89",
        "dual_periods_2000_2080": "e5dbc148d029b0533ba1b1dbc4d2342473a59a68cab8cbcaa0bc0a1b8a25208a",
        "dual_tt": "67e88856d6a833c59aba7337a3f6f13e4365d91805bf44a45219fed815b58341",
        "hyperperiod_boundary": "e489f3a7ebf5352a8d8fb8f39c236544351f27253b8b6c4829c5c2bbdb7ef323",
        "quad_mix": "0643486a91fb5476cb79867dfa2ce98b9f7dac2e305533e6270b2208ed88e103",
    },
    "worst": {
        "dual_et": "6b5c8143b2cc9c041c64b7bac5678f001be73c0406067360d7e3db04779bc32d",
        "dual_et_4tasks": "42ca9e140dcd41239227e604552270f41a117b923ce4d160b0094e52968becd7",
        "dual_mix": "9a7f877ea04fc8da4e8908e686a4129d93bbc14a9e47ef506d7ba06687ac327e",
        "dual_periods_2000_2080": "9eb10219ecf771a576aaeeac77dd4a9c0814bad8b2bbccf7dc2669db7acdd9c0",
        "dual_tt": "9cf12503a8d896074effa37be4beb44a8e554d5e69d57041e9f952e73a96a856",
        "hyperperiod_boundary": "e489f3a7ebf5352a8d8fb8f39c236544351f27253b8b6c4829c5c2bbdb7ef323",
        "quad_mix": "c1e1d3bdf3f6c2ebf8cf358e1a193755c5ffc2aac0070086b17d949f89438e6a",
    },
}


def _report(bundle, options=None):
    report = analyze_bundle(bundle, options)
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


@pytest.mark.parametrize("option", sorted(OPTION_DIGESTS))
@pytest.mark.parametrize("name", sorted(BUNDLES))
def test_option_report_digest(option, name):
    _, text = _report(BUNDLES[name](), OPTIONS[option])
    assert hashlib.sha256(text.encode()).hexdigest() == OPTION_DIGESTS[option][name]


@pytest.mark.parametrize("option", sorted(OPTIONS))
@pytest.mark.parametrize("name", sorted(BUNDLES))
def test_interference_csv_digest(option, name, tmp_path):
    report, _ = _report(BUNDLES[name](), OPTIONS[option])
    path = tmp_path / "interference.csv"
    write_interference_csv(path, report)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == INTERFERENCE_DIGESTS[option][name]


@pytest.mark.parametrize("name", sorted(BUNDLES))
def test_context_csv_digest(name, tmp_path):
    setup = analyze_bundle(BUNDLES[name]()).setup
    path = tmp_path / "contexts.csv"
    write_context_csv(path, setup)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == CONTEXT_DIGESTS[name]


@pytest.mark.parametrize("policy", sorted(TRACE_DIGESTS))
@pytest.mark.parametrize("name", sorted(BUNDLES))
def test_trace_csv_digest(policy, name, tmp_path):
    trace = simulate(BUNDLES[name](), SimConfig(policy, 0))
    path = tmp_path / "trace.csv"
    write_trace_csv(path, trace)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == TRACE_DIGESTS[policy][name]


# sha256 over the tasks in id order of each classification.csv followed by
# the line "<l1_passes> <l2_passes>".
CLASSIFICATION_DIGESTS = {
    "dual_et": "d8fa346f3569d5c4653d9f613f04ea98d83af0e9b04faf7d6776fb0bcfc08eb1",
    "dual_et_4tasks": "6e7b1cd95765525a9c28403d5cdf21b198524aaaafd582252bcbc0eef6545594",
    "dual_mix": "f1f316199cfe59ff65af0525e84dcd27f668469f8a55348bf85dce8e0b47e1ca",
    "dual_periods_2000_2080": "f1f316199cfe59ff65af0525e84dcd27f668469f8a55348bf85dce8e0b47e1ca",
    "dual_tt": "d8fa346f3569d5c4653d9f613f04ea98d83af0e9b04faf7d6776fb0bcfc08eb1",
    "hyperperiod_boundary": "1970b8fa399021a2a293602ba61edd54a564fbec2b847c812e10dc736ff92b6e",
    "quad_mix": "f28d5e2d2617d3fb649a6fd7c8a826d7b43fad69756aeae5e58e7f2e2d0a32c6",
}


@pytest.mark.parametrize("name", sorted(BUNDLES))
def test_classification_digest(name, tmp_path):
    bundle = BUNDLES[name]()
    digest = hashlib.sha256()
    path = tmp_path / "classification.csv"
    for tid in sorted(bundle.tasks):
        cls = classify_task(bundle.tasks[tid], bundle.system)
        write_classification_csv(path, cls)
        digest.update(path.read_bytes())
        digest.update(b"%d %d\n" % (cls.l1_passes, cls.l2_passes))
    assert digest.hexdigest() == CLASSIFICATION_DIGESTS[name]


# sha256 of every file `chainlat generate` writes, per setting.
GENERATOR_SETTINGS = {
    "dual_mix": ["--seed", "1", "--cores", "2"],
    "quad": ["--seed", "3", "--cores", "4", "--blocks-per-task", "16"],
    "dual_et_4tasks": ["--seed", "2", "--cores", "2", "--tasks-per-chain", "4", "--trigger", "ET"],
}

GENERATOR_DIGESTS = {
    "dual_mix": {
        "chain_c0.json": "d654afae73d47f889debd3892fa1e59fc182553b3f1c76e380221a672cd9dbae",
        "chain_c1.json": "b6c335f2e9bd244d2fc765bc052b46f29f5c68884fd14baa5a84434ac1bf848b",
        "manifest.json": "db5f617548dbbe2707b975e43286659b57b03ec784d174c5d56b4c712d309b66",
        "system.json": "781afc3fb0a6efc76cccbcd41b33e0c3a0eddaec9cedaef6f7b731765679decc",
        "task_t0.json": "7296ed573dac80717ecba8a121efc23b1fe07b7565e7fd4d63ac310486ba3d17",
        "task_t1.json": "e22f163263266fa2a09cebd3c41818b083f1c88e429d3cb8a8329cc7e74203eb",
        "task_t2.json": "a215f2fe88b0d67c9ac4358cc7f684611aeaa625203799182be09079ca92708e",
        "task_t3.json": "0086a4a0e262cc99d6af584763026789efdcb502a2c4fc547a93e0dfb1be95a9",
    },
    "quad": {
        "chain_c0.json": "84a307c0d2e9857fbc7f37cbce021ff86073e3503861bdfb9d2ecdc240730776",
        "chain_c1.json": "6edf6da81a8ad63ac428ede5b53f63699a6c908ee54622369f7c6df258b76a8e",
        "chain_c2.json": "ca9d1b046a5522b57111587c8f1009ad9749ed25d1b1035c453e8802882f2e20",
        "chain_c3.json": "e94ce876f0798dbb3fe3219e1648ae5b68b5761523541e834d139a1045fd3b6b",
        "manifest.json": "43ed65adbddf81731421611258b3217024c7677f037c70de1c6af64cf79a9202",
        "system.json": "a6842ea3c10d48787c03c0a13d6f3d26f74e224803aea116b1b23515d496c8f7",
        "task_t0.json": "dc1b62c2481ca68f7394702e648a45f88a9047e75a5511e7920dc5e6289837a3",
        "task_t1.json": "07f2414b7962bc61aff72320bd395ae505f2b7f657a6f15a22cf9fe4e3680f83",
        "task_t2.json": "dcc6df14602269257abe6629f9de4813a6012bdb3b5d3aaed243ae01f92dfb0c",
        "task_t3.json": "83b7bb8c3a5f27947e162a635bce0d96fbddba934daa9ed5490044ae66b39d58",
        "task_t4.json": "e4d98301db4af161089495946960e4df988a5e702e5817540c9b071ca8213892",
        "task_t5.json": "c60e36a328ce8b0af2dfda044e28a786eafc2057c0fbe0a6e91d1b5fda921a11",
        "task_t6.json": "c98ddba786bf14ebe9c27df3f79a1a8ab501f8edf4ef127408f613caceca1075",
        "task_t7.json": "71d6133e0af5db9bc7c7c4cb911947f241cb48e1a576349dad8c36b2c8a5b2af",
    },
    "dual_et_4tasks": {
        "chain_c0.json": "37a736dbdb5be273fdab3a5d2e5dca7eb92ce565dafd93840c6e4c1303cccf86",
        "chain_c1.json": "862dbf5b3c04d574cd25303358718c260392c0f8dbdf538842b640c52f97ed06",
        "manifest.json": "984b2d76c6666f223aa6d1ef6d3684e5a58879380dfe7e71c51cf47c825fbc14",
        "system.json": "781afc3fb0a6efc76cccbcd41b33e0c3a0eddaec9cedaef6f7b731765679decc",
        "task_t0.json": "fa1e2c12aad0d46ba60131194456ad4f97c06a535e8dfd4aac4d6ee76e2cd661",
        "task_t1.json": "7eeec732ea1c8dd1766ef5960aedccafb98b113ac14df70727d78cf1e1aa5b4b",
        "task_t2.json": "b6f8ab3899d69673af13083aae62514e37f8eeab9f6e2258b47c140b39e33249",
        "task_t3.json": "f2f8fdab084894959622f7d7feed2bbd9401a85175779533180a85a32d10c090",
        "task_t4.json": "d96872ee4d9696b40747863eaab73b8b18ca9ed214f62e0b2d9a5ef6cf5a3045",
        "task_t5.json": "ab9657aa27773ec7dd8174d7c62e4333277a09a09460d5828088e6967250ee97",
        "task_t6.json": "ffb2d45dc4a44af2969be0f13bb451fbc71fe5e272b20585837400fb055121e5",
        "task_t7.json": "fca955e72077e9bcbc9d25c7b82e665af99a75c332eb232508765030e5469e1e",
    },
}


@pytest.mark.parametrize("name", sorted(GENERATOR_SETTINGS))
def test_generated_file_digests(name, tmp_path, capsys):
    assert main(["generate", *GENERATOR_SETTINGS[name], "--output", str(tmp_path)]) == 0
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()}
    assert digests == GENERATOR_DIGESTS[name]

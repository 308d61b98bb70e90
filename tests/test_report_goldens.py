"""Report bytes of the shipped configs.

The benchmark recorded the sha256 of every JSON report of the shipped
configs for op seeds 0..15 (perfbench/record_goldens.py), keyed as
``scenario:sha256(config file)[:16]:seed``.  A change that moves any report
byte fails here.  The goldens file is only read; REPINNED below overrides
the reports that no longer print `subspace_distances` or whose measured
weights moved, until the goldens file is re-recorded.  The text reports of the shipped configs and the csv
report of the cutoff sweep are pinned below, at seed 0, as are the JSON
reports of two subalgebra-mode inputs.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from freedim.cli import main
from freedim.tolerances import SCALAR_TOL

ROOT = Path(__file__).resolve().parents[1]
GOLDENS = json.loads((ROOT / "perfbench" / "goldens.json").read_text())
SEEDS = range(16)

# sha256 of the delta and group_finite reports, read before the goldens
# file: since H1 and H2 are H0, results.subspace_distances left them and a
# delta report's residuals became {}; no other field moved.  The S3 reports
# at seeds 0, 2-6, 8 and 11-15 and the S4 report were re-pinned again when
# blockify took a repeated block's irreducible subspace from the algebra in
# place of its full commutant: only their measured weights moved, by at most
# 3.3e-16 (test_repinned_group_reports_keep_their_certified_values)
REPINNED = {
    "delta:018da3ce67fb9aa8:0":
        "42f5acb7a5104053d82970f889f43440474de4b7767ff1363600f61a73af049e",
    "delta:018da3ce67fb9aa8:1":
        "a7805abd7bddbf64049a3690b894682c97de2da1284518171c1cab4ff8734f0b",
    "delta:018da3ce67fb9aa8:2":
        "4815fbc1373cff5d852a48f3b54b8a84bc28e95362b0a3aded5a1c67680cdb0c",
    "delta:018da3ce67fb9aa8:3":
        "edebeef18dba3a363df9975f713c210c2ed938a633bc010d17f93a7e47c28453",
    "delta:018da3ce67fb9aa8:4":
        "9ec82f1279c0d823ef3abe38da10695b359a0ddeb04b37bf66b55474a1ffa72a",
    "delta:018da3ce67fb9aa8:5":
        "19d7bdd5e055dc681be9dbf9205e39759a7e8df62025095c0f10eb9a0f644954",
    "delta:018da3ce67fb9aa8:6":
        "9d0a18769b9a4fb7f593812593c8be023f5d460b59f24e9b1272b988c0411e30",
    "delta:018da3ce67fb9aa8:7":
        "15037964114cfb067d8e804e9d7abc8b21dc77977c8c93f438e818fdc8e6aaf8",
    "delta:018da3ce67fb9aa8:8":
        "f795f6c08d3421b67bcbf77155f089a3847750e6c90ae8833d0167bea7008409",
    "delta:018da3ce67fb9aa8:9":
        "b202675efa711388862668e1424b9c064767ed8d7a0abb0be613f5d0e4c0a5be",
    "delta:018da3ce67fb9aa8:10":
        "671002d4337e78aa71c6d183c92ac50440716bc566009bc73f90385bdcdeef86",
    "delta:018da3ce67fb9aa8:11":
        "a3feb20e3c8e293e4f75ffa9b5d6ddd4068c8c46905a0f33b836b23577eec19a",
    "delta:018da3ce67fb9aa8:12":
        "a6d0d7f90a83c867d7ef36806de19918859a00432b897cea1d610ff2cea7d1d2",
    "delta:018da3ce67fb9aa8:13":
        "632da13f9ce66bee43ce1d3d9ad59fda1b213738b2027628b663d31af3c3d98a",
    "delta:018da3ce67fb9aa8:14":
        "8678a4b34bc479227ec1a5f9a58dbebaf3abdd9724511ae63a0d56562a65e4b2",
    "delta:018da3ce67fb9aa8:15":
        "afb3264ad40d242c728850bdc161881de350f8cfa9761ef89a5a4a6e2527c758",
    "delta:cd294b9ce8e09385:0":
        "823ee1865670438f7f5e9eb127cf9eb79b25f8321f329653b60b9bc3fff238a3",
    "delta:cd294b9ce8e09385:1":
        "841df7416d2cf21427029d8ca8d731da2614fd00fcf65de65b432f8deb93f2d2",
    "delta:cd294b9ce8e09385:2":
        "c7b92cc65cc9b43140017b77783f1ab79a64e76d6d4a415caf1b62fa5edce6b7",
    "delta:cd294b9ce8e09385:3":
        "f82adcfe6619c06e160a330a280d569849b112b23b9c8267214dcfabae8354db",
    "delta:cd294b9ce8e09385:4":
        "5ccc3db9d50006c7838cc64062a9a559023dcc667f29d45261c7829201b8787b",
    "delta:cd294b9ce8e09385:5":
        "f2f6033ea02390a76db5a4ee40c7f9f0ab14e4ec0f116c0c9ee697f2ac92dc5c",
    "delta:cd294b9ce8e09385:6":
        "ec12c80de45793739491847511d31f6b1228ab387bc84f742a544108c1253a98",
    "delta:cd294b9ce8e09385:7":
        "e44655309e3bb1d2cbdf8d150912c3147eedcee32cde47a59742a5cfeacd6723",
    "delta:cd294b9ce8e09385:8":
        "22cd4e9a59674fa9ca71b2d349dc58d7388469ec36a2776df2eca8bbc4c616a7",
    "delta:cd294b9ce8e09385:9":
        "46bb4fbbfffde2466810ba80256b68b018dc90ecf7193813501826095d37f81d",
    "delta:cd294b9ce8e09385:10":
        "773c922d17dc8ba8d5e3dce6b5b92bb27808379b81893faba6c1c03879f5cb3e",
    "delta:cd294b9ce8e09385:11":
        "06446d3a3111232dcbce97f87b297c99699f73a511c9a59ba8bfcb3738013728",
    "delta:cd294b9ce8e09385:12":
        "d6654a9b2afed7b772c01fde94425f1610d0995d703ba42c9dc0dcd6720d8361",
    "delta:cd294b9ce8e09385:13":
        "c906d2cbfd9f3876ee79263aa431defeaddb8c741b66ab08c4779cef8bc37748",
    "delta:cd294b9ce8e09385:14":
        "85e41c64dc32643929109d4dc30f6b1bd18e28f9264f8bf78a015098596bef70",
    "delta:cd294b9ce8e09385:15":
        "f7e364537854112c8bb52e2007cba7e0b646a9807a3a4d7981106f1765d32ecf",
    "delta:1cf45f7bc6a1917d:0":
        "d50252f706b14ef5ab908a98df902db049debba3b76268411a3607f62f350850",
    "delta:1cf45f7bc6a1917d:1":
        "1e610b898b5cedca949956151eba821aaf09781ffebabca2dddd095b2f93f4b3",
    "delta:1cf45f7bc6a1917d:2":
        "a0bc038f27a2e56b1cd5fcaf4783907b3fbd498e59b9cfb83d96b800f13e15d4",
    "delta:1cf45f7bc6a1917d:3":
        "398b8439aa54bbd03f2cd299c7242dc0972df8ada0b54324a9fc817bcf9a4683",
    "delta:1cf45f7bc6a1917d:4":
        "f83a06dd4bce84d2c0983fae4b0060df2fd2714a4fc71c1d122691e31622ae80",
    "delta:1cf45f7bc6a1917d:5":
        "1a10af0bc37c0352746e2d33d8467be553a96d09180eb892fb7783685490fb5f",
    "delta:1cf45f7bc6a1917d:6":
        "84e392e40e7a2655f1dbf174e76f390b4db839b0a051fade476ff9a08c3527d4",
    "delta:1cf45f7bc6a1917d:7":
        "1579846483e793370ba90f0f6ee8279a2718c97475aa0e776eb0637c47df3a25",
    "delta:1cf45f7bc6a1917d:8":
        "13f12203d5a01fbb7083d7cfe7262ac1ac4b972950ac338266dc47e20dee49bc",
    "delta:1cf45f7bc6a1917d:9":
        "06139dadab6b3091002faaa06670d611f2c1c5fe6acb36d81c15bb03997adaa8",
    "delta:1cf45f7bc6a1917d:10":
        "dc662e79da705d845b7de7c91e31734c2f9aecc7a28c6253cc4b58c9083e6458",
    "delta:1cf45f7bc6a1917d:11":
        "7c9826d0d12d96d0268fcffb774aac15c733c473af727ab33e5fde42cb687b28",
    "delta:1cf45f7bc6a1917d:12":
        "e968ba284e8ddb215a37925ba7351d4b12d142c58705ca2db58192359c7e5c85",
    "delta:1cf45f7bc6a1917d:13":
        "0338dd9ff5f5434462f5ccb30f564694dca43859933edd07986387b037b02378",
    "delta:1cf45f7bc6a1917d:14":
        "8cf17b9e963cb95dc8af2ff03756977ac6b1d313e75dcaed0cbba2a196b7cc26",
    "delta:1cf45f7bc6a1917d:15":
        "4bb0cb5a8697fbcd83fc58e165f1a53b89701bbbb98f6096a44514868fba2272",
    "group_finite:f5144347a00a9bce:0":
        "7f0298c016c67ba163411b317f06e49b4dfbf3003f35f12c84899caf83e40699",
    "group_finite:f5144347a00a9bce:1":
        "4206f2b2bb64cbae84ed6cf65aa891b93ca7a86924b33bdbcd3773b9cad7c19a",
    "group_finite:f5144347a00a9bce:2":
        "05f42b9980fdf891ac1f53594b283fea7dca499964cff97447fd9b1c72d1ac37",
    "group_finite:f5144347a00a9bce:3":
        "fc20506b285d705532fae781d00bb9b5897858904e356151d59222591f73cfea",
    "group_finite:f5144347a00a9bce:4":
        "bcc43f889542e6308992d32300fe418c308de48b6a7917dccb86e38820b38b0f",
    "group_finite:f5144347a00a9bce:5":
        "4a49405c90a0bc124503fbb2d620a1f5fe2a59bb3fb5f34653ca0af47ffb4c1c",
    "group_finite:f5144347a00a9bce:6":
        "ede4e4b016aeed4753c4173b91c9746f84d945a9b950ab8ea1aaa20e551aa76f",
    "group_finite:f5144347a00a9bce:7":
        "7d8db02d2d95a31aa38fb3122aeaed082c843bb5e25733caed3d95de8ebc78a8",
    "group_finite:f5144347a00a9bce:8":
        "46096dd6608164e1371e29a93eb869e1c89f06859ce2754067812ed01d42cc1a",
    "group_finite:f5144347a00a9bce:9":
        "58921b4ac6cfef7106c0dda9db63555e98b5a104ce006994fe5ee4065179e985",
    "group_finite:f5144347a00a9bce:10":
        "913b13f2fe013d47b46b3e82bd80d08645342b4f81a8ba62db5f2765d5ac32af",
    "group_finite:f5144347a00a9bce:11":
        "558d2ecfc42e9fe0cc793d5b080f85625badbc5c7b3f01780c21016cc69275eb",
    "group_finite:f5144347a00a9bce:12":
        "2f64ce5b6880383b61dc4314f1dc32c962afd88a5ab64aa65dda2c7379c2c832",
    "group_finite:f5144347a00a9bce:13":
        "f0204ac0cfa0adb285074f5b604102f85c8fdc06e3be86ef0023415b6c5e6ee7",
    "group_finite:f5144347a00a9bce:14":
        "16891032ba873bb8d5f818f4b24f0e8b93a94d411b8d9fa4d434e73f7aaac40a",
    "group_finite:f5144347a00a9bce:15":
        "3fb9fef60d1d3e155f5d8335db1e24f101bcf09864b675a42abe66e736952e2b",
    "group_finite:8492ad80d3a60f7a:1":
        "290da9bb7fd1350faad2131ae01f60d38d0a2c282af2a75b61b7b197b719b2af",
}


# sha256 of the dual_system reports that the block-pair Sylvester solve
# moved: the shipped dual configs at seeds 0-15 and the dual ladder at
# workload seed 1 (2 BLAS threads).  Y now comes from the solve, not from
# the word fit, so `defect`, the residuals, `xi_norm` and the provenance's
# `construction` line moved; every certified field (perfbench/oracle.py's
# `certified`) is unchanged (test_dual_repins_keep_their_certified_fields)
DUAL_REPINNED = {
    "dual_system:9e9cc1c8beb13e6f:0":
        "71751c6f2efc8c7e452688a55d6628fd5bbf6797ba21ccc1ad187a2aab5cab4e",
    "dual_system:9e9cc1c8beb13e6f:1":
        "66e5b3aaf495ee5c123e2493c134e457937cb5174a499d4cd021d07050913ec2",
    "dual_system:9e9cc1c8beb13e6f:2":
        "82d40806d46755eca1aad7150542d06851aa82c464c8428f487794acc1ee0ae4",
    "dual_system:9e9cc1c8beb13e6f:3":
        "34fd1d06e4426a2c5ba6dde304bae27401aac159c1c9ad2cf069da12f1020c93",
    "dual_system:9e9cc1c8beb13e6f:4":
        "93faf9f9d8cf6d8f739db3809c9f4d44552f3c178c54ae913547632c937e80c2",
    "dual_system:9e9cc1c8beb13e6f:5":
        "a8bbce4ea5feeecff5e3e6da7a9693d478e1e09e50d07a7f38f537974c0e8919",
    "dual_system:9e9cc1c8beb13e6f:6":
        "5af32f5d71f7fdbdc00d936cf55bd69cd11bbc0df643edeee1b4d87eccafa9ec",
    "dual_system:9e9cc1c8beb13e6f:7":
        "d8bcbd2bc06cd2a783377ec510ce73f5fc4e4707af92ef1e63d8554964c0e01d",
    "dual_system:9e9cc1c8beb13e6f:8":
        "df6a966ed7ddff3d5ff071dd934040a5437514ce47c7fceeba47949aafab97da",
    "dual_system:9e9cc1c8beb13e6f:9":
        "8f9fd56708651d11a0f7a68a7f29042b52267987c0969133610c10c4865bb0d3",
    "dual_system:9e9cc1c8beb13e6f:10":
        "ff26dea8be213481066c0346683928dfe55c54aff335c59a3564fba18cd9f129",
    "dual_system:9e9cc1c8beb13e6f:11":
        "cf0d611d46a103035cb967f080a50ee75c05303752a02cd472cd8980e4c1f314",
    "dual_system:9e9cc1c8beb13e6f:12":
        "efd2a22a8f23cc346f09b885e7c6864700ac161ae8d09bddef2c7e1d8e0377d0",
    "dual_system:9e9cc1c8beb13e6f:13":
        "0de9c9fe956f027ec8815cd87c9a35c18b62dc6dbe2ca40a55ee225de334eaf8",
    "dual_system:9e9cc1c8beb13e6f:14":
        "019cd6dd715b20f9d57331a8a77fa5501bcff6f95f7ccebf286ccc3ea5ccd45c",
    "dual_system:9e9cc1c8beb13e6f:15":
        "69f1daaf5e4159bb11b19d9537d0dfd4e8f9195354b9f62e01ed9e4290e15a66",
    "dual_system:d3027826cfdda77f:0":
        "fbfa4f8c16d1153742e8326912bada331c2b7953228f45f9db93a3b6560e8707",
    "dual_system:d3027826cfdda77f:1":
        "e0f9dd84f4363595361ef5759f0c027ee375496b550b597931a1cbbcbca1a916",
    "dual_system:d3027826cfdda77f:2":
        "18d7a2c70cc14e312ce8107d3ba6006b08aeeac93f74225659567cf26266ef46",
    "dual_system:d3027826cfdda77f:3":
        "235273a7b640b0e492bc4ff7dd29e4f7dce53cbf40bd86cd05e117dd7cdfd833",
    "dual_system:d3027826cfdda77f:4":
        "c41eafe11654fcde933d716473009ae537b9b7442f4bd6073eb2a5cda750a840",
    "dual_system:d3027826cfdda77f:5":
        "a58cd085c0c8f327ec363f06d164e24aa737f1e9013a9373d4241ca1d044863a",
    "dual_system:d3027826cfdda77f:6":
        "7b02afd483c3099627de4810af87725419c849ebd906781ae1063352289b6e06",
    "dual_system:d3027826cfdda77f:7":
        "5b1e89326b49a8b6ceee56482c46e9e934d012ba162f7458e454fb47a9e9d1c0",
    "dual_system:d3027826cfdda77f:8":
        "ca3280ccaf4237cf2bde454bcb21e117e1803b01e059e4d06513950582cb92e4",
    "dual_system:d3027826cfdda77f:9":
        "7cf7cd2db4b74a2669a9736fc559f364fda24ab689f9d38ec66cf86cdd5b701a",
    "dual_system:d3027826cfdda77f:10":
        "defd8c2d50512bc53e8294dcb1bf7bdc8955d53f7f601b51e4ecc7a2628c5db8",
    "dual_system:d3027826cfdda77f:11":
        "9e74576809dcb0287a6130fbea9fae4d5ee0a87766376c4801abe015e09473d7",
    "dual_system:d3027826cfdda77f:12":
        "561d954ec67421bf89af019be28122913e9e2bf71fd658e0a1bb24b3c21db26a",
    "dual_system:d3027826cfdda77f:13":
        "687436f5ca3117142e2908167bda59aac34a5b5340cbcfb88674133dcc4099b3",
    "dual_system:d3027826cfdda77f:14":
        "a28ca793e82a137f2f80d2b8a0f109744b5d22c73b88aa6ce2d47bc324d3e667",
    "dual_system:d3027826cfdda77f:15":
        "c5e0691088d29ae098bddb9c6e8ad6529c208d6c45afbb74c954543ae33b799a",
    "dual_system:295c15cbe8acd10c:1":
        "3ddd7d25100c2f0f9827897ba06790d09340f0128734d0d44f904e39bcffa086",
    "dual_system:c1c3cde16079ed0a:1":
        "fd15c7c903718bc99cae1ac8bb6cb54d9ac1211c884ffd324efc1cdeec859e5f",
    "dual_system:0f904e6f1273982a:1":
        "586a74bf27a3f36067b0f0e4cf7a36c8d941b9d19fba9ed3c0a72ddc96992b84",
    "dual_system:4875d72454fdcff9:1":
        "d441ae1467fad0e985685cff894d24f8eea2a4d2a70beea9e4c6c31643a1e996",
    "dual_system:6a130bdab1722439:1":
        "863ac8179c9f09b7c88e0fabe157a52d3f6c423c06f5796bff5df06691d3535c",
    "dual_system:25c8271f407c5b57:1":
        "39f440349c7cfc90a111476fd36c6cbc6a0765f3dc4f68d2ffd49187e9d5c4ba",
    "dual_system:27ebd972b750beda:1":
        "d6cba0fe6accacbed06069f2830ba2a11be947b5d37a6f0a4e8aedd45562e320",
    "dual_system:466d79b2c841ef74:1":
        "78ba37ce1b4e29b78494faeff3504df6081328515a1b7ba9d1bad9a2781de799",
}


def _golden(key):
    return REPINNED.get(key, DUAL_REPINNED.get(key, GOLDENS["reports"][key]))


def _s4_config(tmp_path):
    config = tmp_path / "s4.json"
    with open(config, "w") as fh:  # the bytes perfbench/workloads.py writes
        json.dump({"scenario": "group_finite",
                   "group": {"kind": "symmetric", "n": 4}}, fh)
    return config


def _digest(config):
    return hashlib.sha256(config.read_bytes()).hexdigest()[:16]


@pytest.mark.parametrize("label", sorted(GOLDENS["certified"]))
def test_shipped_reports_match_goldens(label, tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("FREEDIM_TOL", raising=False)
    config = ROOT / "configs" / f"{label}.json"
    scenario = json.loads(config.read_text())["scenario"]
    digest = _digest(config)
    out = tmp_path / "report.json"
    changed = []
    for seed in SEEDS:
        argv = [scenario, "--config", str(config), "--seed", str(seed),
                "--output", str(out)]
        assert main(argv) == 0
        want = _golden(f"{scenario}:{digest}:{seed}")
        if hashlib.sha256(out.read_bytes()).hexdigest() != want:
            changed.append(seed)
    capsys.readouterr()
    assert changed == [], f"{label}: report bytes changed for seeds {changed}"


def _two_thread_env():
    env = dict(os.environ, OPENBLAS_NUM_THREADS="2", OMP_NUM_THREADS="2",
               MKL_NUM_THREADS="2",
               PYTHONPATH=os.pathsep.join(filter(None, [
                   str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    env.pop("FREEDIM_TOL", None)
    return env


def _seed1_digest_at_two_blas_threads(config, tmp_path):
    """sha256 of the group_finite report of `config` at seed 1, run in a
    subprocess at 2 BLAS threads."""
    out = tmp_path / "report.json"
    argv = ["group_finite", "--config", str(config), "--seed", "1",
            "--output", str(out)]
    subprocess.run([sys.executable, "-c",
                    "import sys; from freedim.cli import main; "
                    f"sys.exit(main({argv!r}))"], env=_two_thread_env(), check=True,
                   capture_output=True)
    return hashlib.sha256(out.read_bytes()).hexdigest()


def test_s4_report_matches_golden_at_two_blas_threads(tmp_path):
    # the shipped configs (D <= 6) never depend on BLAS partitioning; S4
    # (D = 24) does, and its goldens were recorded at 2 BLAS threads
    config = _s4_config(tmp_path)
    want = _golden(f"group_finite:{_digest(config)}:1")
    assert _seed1_digest_at_two_blas_threads(config, tmp_path) == want


# sha256 of the seed-1 group_finite reports of two products at 2 BLAS
# threads: C4 x C6 has only 1 x 1 blocks, C2 x S3 two 2 x 2 blocks of
# multiplicity two.  C4 x C6 was re-recorded when Delta became the sum at the
# exact weights n_i^2/|G|: its measured weights miss to_fraction's window, and
# it now prints 23/24.  C2 x S3 was re-recorded when blockify took a repeated
# block's irreducible subspace from the algebra: only its weights moved
PRODUCT_GOLDENS = {
    "C4xC6": ([{"kind": "cyclic", "n": 4}, {"kind": "cyclic", "n": 6}],
              "ce11aef166a2d8d5314ffed0bb864a01c323bc0cde2ae9077eaf005282d9d83d"),
    "C2xS3": ([{"kind": "cyclic", "n": 2}, {"kind": "symmetric", "n": 3}],
              "b4db91781ccf09f808727562ca50996d5f88b993d91627ff4d9002aab83b4d20"),
}


@pytest.mark.parametrize("label", sorted(PRODUCT_GOLDENS))
def test_product_group_reports_match_goldens_at_two_blas_threads(label, tmp_path):
    factors, want = PRODUCT_GOLDENS[label]
    config = tmp_path / f"{label}.json"
    with open(config, "w") as fh:
        json.dump({"scenario": "group_finite",
                   "group": {"kind": "product", "factors": factors}}, fh)
    assert _seed1_digest_at_two_blas_threads(config, tmp_path) == want


def test_repinned_reports_print_no_distance(tmp_path, capsys):
    # each override replaces a recorded digest, and its report prints no
    # distance: the three flags of agreement are true by theorem, and a
    # delta report has no residuals
    configs = {_digest(p): p for p in (ROOT / "configs").glob("*.json")}
    s4 = _s4_config(tmp_path)
    configs[_digest(s4)] = s4
    out = tmp_path / "report.json"
    for key, digest in REPINNED.items():
        assert GOLDENS["reports"][key] != digest
        scenario, config, seed = key.split(":")
        assert main([scenario, "--config", str(configs[config]), "--seed", seed,
                     "--output", str(out)]) == 0
        report = json.loads(out.read_text())
        assert "subspace_distances" not in report["results"], key
        assert report["results"]["agreement"] == {
            "spaces_coincide": True, "closed_form_matches": True, "weak_equals_norm": True}, key
        if scenario == "delta":
            assert report["residuals"] == {}, key
    capsys.readouterr()


def test_repinned_group_reports_keep_their_certified_values(tmp_path, capsys):
    # the group reports re-pinned for a repeated block's subspace: one block
    # per irreducible representation, Delta = (|G| - 1)/|G|, Schur's
    # multiplicities n_i n_k - delta_ik, the agreement flags, and measured
    # weights within SCALAR_TOL of n_i^2/|G| (they miss by up to 1.1e-14: S3
    # seed 12, on its 1 x 1 blocks, whose weights did not move)
    s4 = _s4_config(tmp_path)
    c2s3 = tmp_path / "C2xS3.json"
    with open(c2s3, "w") as fh:
        json.dump({"scenario": "group_finite",
                   "group": {"kind": "product", "factors": PRODUCT_GOLDENS["C2xS3"][0]}}, fh)
    degrees = {_digest(ROOT / "configs" / "group_finite_s3.json"): [1, 1, 2],
               _digest(s4): [1, 1, 2, 3, 3], _digest(c2s3): [1, 1, 1, 1, 2, 2]}
    configs = {_digest(p): p for p in (ROOT / "configs").glob("*.json")}
    configs.update({_digest(s4): s4, _digest(c2s3): c2s3})
    runs = [key.split(":")[1:] for key in REPINNED if key.startswith("group_finite:")]
    out = tmp_path / "report.json"
    for config, seed in runs + [[_digest(c2s3), "1"]]:
        assert main(["group_finite", "--config", str(configs[config]), "--seed", seed,
                     "--output", str(out)]) == 0
        results = json.loads(out.read_text())["results"]
        sizes = np.array(results["block_sizes"])
        order = int(sizes @ sizes)
        assert sorted(sizes.tolist()) == degrees[config] and order == results["group_order"]
        assert results["Delta_fraction"] == f"{order - 1}/{order}"
        schur = np.outer(sizes, sizes) - np.eye(len(sizes), dtype=int)
        assert [b["multiplicity"] for b in results["blocks"]] == schur.ravel().tolist()
        assert results["agreement"] == {
            "spaces_coincide": True, "closed_form_matches": True, "weak_equals_norm": True}
        np.testing.assert_allclose(results["weights"], sizes ** 2 / order, rtol=0,
                                   atol=SCALAR_TOL)
    capsys.readouterr()


def test_dual_ladder_reports_match_goldens_above_d6(tmp_path, monkeypatch):
    # the shipped dual configs have D <= 6; the benchmark's dual ladder
    # (workload seed 1, configs written by perfbench/workloads.py) reaches
    # D = 36, 41, 49 and 64, whose bytes depend on BLAS partitioning like S4's
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import workloads

    ops = workloads.build("dual_ladder", 1, str(ROOT), str(tmp_path)).next_pass()
    assert sorted({op.label.split("/")[0] for op in ops}) == ["4x5", "6", "7", "8"]
    assert len(ops) == 8
    outs = [tmp_path / f"report{k}.json" for k in range(len(ops))]
    argvs = [[op.scenario, "--config", op.config, "--seed", str(op.seed),
              "--output", str(out)] for op, out in zip(ops, outs)]
    subprocess.run([sys.executable, "-c",
                    "import sys; from freedim.cli import main; "
                    f"sys.exit(max(main(a) for a in {argvs!r}))"],
                   env=_two_thread_env(), check=True, capture_output=True)
    changed = []
    for op, out in zip(ops, outs):
        with open(op.config, "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()[:16]
        want = _golden(f"{op.scenario}:{digest}:{op.seed}")
        if hashlib.sha256(out.read_bytes()).hexdigest() != want:
            changed.append(op.label)
    assert changed == []


def test_dual_repins_keep_their_certified_fields(tmp_path, monkeypatch, capsys):
    # each re-pinned dual report keeps perfbench/oracle.py's certified fields:
    # the shipped configs' as goldens.json records them, the dual ladder's as
    # its oracle fixes them (an inner derivation descends; Fisher is +inf
    # and no slot descends), and the subalgebra-mode and verbose reports' too
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import oracle
    import workloads

    inner = {"mode": "inner", "well_defined": True}
    runs = [(ROOT / "configs" / f"{label}.json", seed, [], GOLDENS["certified"][label])
            for label in ("dual_fisher", "dual_inner") for seed in SEEDS]
    for op in workloads.build("dual_ladder", 1, str(ROOT), str(tmp_path)).next_pass():
        gens = json.loads(Path(op.config).read_text())["algebra"]["generators"]
        runs.append((Path(op.config), op.seed, [], inner if op.check == "inner" else {
            "mode": "fisher", "value": "inf", "slots_well_defined": [False] * len(gens)}))
    diag = tmp_path / "dual_inner_diag.json"
    diag.write_text(json.dumps(SUBALGEBRA_CONFIGS["dual_inner_diag"]))
    runs += [(diag, 0, [], inner), (diag, 0, ["--verbose"], inner),
             (ROOT / "configs" / "dual_inner.json", 0, ["--verbose"],
              GOLDENS["certified"]["dual_inner"])]
    out, keys = tmp_path / "report.json", set()
    for config, seed, extra, want in runs:
        assert main(["dual_system", "--config", str(config), "--seed", str(seed),
                     "--output", str(out), *extra]) == 0
        assert oracle.certified("dual_system", json.loads(out.read_text())["results"]) == want
        keys.add(f"dual_system:{_digest(config)}:{seed}")
    capsys.readouterr()
    assert set(DUAL_REPINNED) <= keys


# sha256 of `--format <fmt> --seed 0` of each shipped config (the dual ones
# re-recorded with DUAL_REPINNED)
TEXT_AND_CSV_GOLDENS = {
    ("counterexample", "text"):
        "ea24173f5c05b2f24f3e42f320d515ba6a1f5803d6fe1ea7517ca2c41d924002",
    ("cutoff_sweep", "text"):
        "4d77accda01a714fef30d112db7248d9491859edd7fdbbbb2db4720b30b71362",
    ("cutoff_sweep", "csv"):
        "486f15a12c8518d5d0837c0404411cced6dab4660f48a90657c5031eb38c8d92",
    ("delta_direct_sum", "text"):
        "f62bdc454249112560678d35822ef479408534e5dd137d7ff3485bed37f33e43",
    ("delta_full_2x2", "text"):
        "3626efd7a6514b7074f5186f9aa4a0f8934dca4d260251dd00b1d40fce7f8aaa",
    ("delta_two_point", "text"):
        "7fea3bf29b55d42d7cfe7e713307efa848e436667217234288c5f0d67d50af03",
    ("dual_fisher", "text"):
        "96021f87ee8230b5ff9b5914e76235f87fd5fd32b5ef56410922836da4249ee1",
    ("dual_inner", "text"):
        "6f72f416b54e2187c0aa636c9add0866bebfc629447fe66a330e938ab40e7a9d",
    ("group_finite_s3", "text"):
        "a78bc29972fba29a7b65d6291bf01257317e917a5eef865c4d78e0b7e5f40ae4",
    ("group_free_kernel", "text"):
        "1fa08ed4ae657ebf8b6594b7a90f1839e8ea265d78de667e580b35f9d0dfbbc4",
}


@pytest.mark.parametrize("label,fmt", sorted(TEXT_AND_CSV_GOLDENS))
def test_shipped_text_and_csv_reports_match_goldens(label, fmt, tmp_path,
                                                    monkeypatch, capsys):
    monkeypatch.delenv("FREEDIM_TOL", raising=False)
    config = ROOT / "configs" / f"{label}.json"
    scenario = json.loads(config.read_text())["scenario"]
    out = tmp_path / "report.txt"
    assert main([scenario, "--config", str(config), "--seed", "0",
                 "--format", fmt, "--output", str(out)]) == 0
    capsys.readouterr()
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == TEXT_AND_CSV_GOLDENS[label, fmt]


def _mat_pairs(m):
    return [[[float(x.real), float(x.imag)] for x in row] for row in m]


def _doubled(m):
    out = np.zeros((4, 4), dtype=complex)
    out[:2, :2] = m
    out[2:, 2:] = m
    return out


_SX = np.array([[0, 1], [1, 0]], dtype=complex)
_SZ = np.array([[1, 0], [0, -1]], dtype=complex)

# subalgebra mode: the doubled Pauli pair generates one M2 inside M2 (+) M2,
# and diag(1, 1, -1) generates C (+) C inside M3
SUBALGEBRA_CONFIGS = {
    "delta_doubled_pauli": {
        "scenario": "delta",
        "algebra": {"blocks": [2, 2], "weights": [0.3, 0.7],
                    "generators": [_mat_pairs(_doubled(_SX)),
                                   _mat_pairs(_doubled(_SZ))],
                    "subalgebra_mode": True},
    },
    "dual_inner_diag": {
        "scenario": "dual_system",
        "algebra": {"blocks": [3], "weights": [1.0],
                    "generators": [_mat_pairs(np.diag([1.0, 1.0, -1.0]))],
                    "subalgebra_mode": True},
        "parameters": {"dual": {"type": "inner",
                                "matrix": _mat_pairs(_SX)}},
    },
}

# sha256 of the `--seed 0` JSON report of each config above.  The C (+) C
# of dual_inner_diag has a block of multiplicity two, so its defect,
# residuals and xi_norm moved in their last digits, and it was re-recorded,
# when blockify took that block's irreducible subspace from the algebra; it
# was re-recorded again with DUAL_REPINNED
SUBALGEBRA_GOLDENS = {
    "delta_doubled_pauli":
        "41275d1672eaf472ccadd7e94255a8195008b977c985954b74f5a0b139e0d488",
    "dual_inner_diag":
        "af28a9af362f23ecce1ca6cfdfcf63399bebc8b336c08c1b367a77d17ffc5173",
}


@pytest.mark.parametrize("label", sorted(SUBALGEBRA_CONFIGS))
def test_subalgebra_mode_reports_match_goldens(label, tmp_path, capsys):
    cfg = SUBALGEBRA_CONFIGS[label]
    config = tmp_path / "config.json"
    config.write_text(json.dumps(cfg))
    out = tmp_path / "report.json"
    assert main([cfg["scenario"], "--config", str(config), "--seed", "0",
                 "--output", str(out)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == SUBALGEBRA_GOLDENS[label]


# sha256 of the `--verbose --seed 0` JSON report, which prints Y and xi
# (both re-recorded with DUAL_REPINNED)
VERBOSE_DUAL_GOLDENS = {
    "dual_inner":
        "7cb05dc7e7bb1f5b5125252c5637ab4432b1e1a753911a01ea3d276dd7320a0e",
    "dual_inner_diag":
        "42fe78cd4480035448d0ca189040ab3c0356f7860094e6103080f63f52ef789b",
}


@pytest.mark.parametrize("label", sorted(VERBOSE_DUAL_GOLDENS))
def test_verbose_dual_reports_match_goldens(label, tmp_path, capsys):
    config = ROOT / "configs" / f"{label}.json"
    if label in SUBALGEBRA_CONFIGS:
        config = tmp_path / "config.json"
        config.write_text(json.dumps(SUBALGEBRA_CONFIGS[label]))
    out = tmp_path / "report.json"
    assert main(["dual_system", "--config", str(config), "--seed", "0", "--verbose",
                 "--output", str(out)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == VERBOSE_DUAL_GOLDENS[label]

"""The canonical form of every committed scenario and of the benchmark's
generated ones is pinned by digest.

The round-trip tests compare the code with itself. These digests were taken
from the loader as it stood before its records changed representation, so a
change that drops, renames, retypes or re-defaults a config field, or
reorders a section's fields, fails here. `serialize_config` sorts its keys,
so each config also pins the field order of `to_dict`.
"""

import hashlib
import json

import pytest
import yaml

from tddsim.config import load_config, parse_config, serialize_config

from conftest import SCENARIOS, perfbench_workloads

# name -> (sha256 of serialize_config, sha256 of json.dumps(to_dict()))
DIGESTS = {
    "one_ap_two_sta": (
        "ea7bede070c437ed243381dee1f05942f044345295b9e77b7c5e37fad5cfedf6",
        "8e057bdcfe8815fb08165f523d457330ca88ac558e5cd6155df08ef3ed6bb34f",
    ),
    "reports": (
        "98251ba8cd87e96c17ed6bd09ef8aa02142bf8eb4c305f705ac7efbfaadb06dd",
        "860f746d6ef2c057274098f048b844ce2c3395123d36389ba1906b91a7c57f55",
    ),
    "saturated_dl": (
        "606a77d7922313c37a895f392fbcb4c4a62b9261f652f1f1eb0a38a741d0c935",
        "b2ccff810efd77630a38f544c8fbb648cd363da7d48ade348d8dca6a8b58b966",
    ),
    "spatial_reuse": (
        "8586afa5c5307bf11613d5ffc0ef5769711a3fdafd698622d6ba99d352f8fd8f",
        "6caa4dfd1af9cc3a7d9faf49d17be06597a05981185192de70b388c4af18e6c3",
    ),
    "tpc": (
        "3b9a83a3a14186293ba2201278b17c6570e962f28a6d060099487382c9364655",
        "7e8957d802598b691fc950d6aa6589bd15e42e7c2fe4748ed91b89a1d28de287",
    ),
    "trickle": (
        "b2d7b7ba36272a9cfe83dafc391b518d757fe24e533b870b4cfaf9d8a185b4d3",
        "36aee521c7966f3fcc529e63672805f2cf84f36c0d05f7848b23da5b950b2f37",
    ),
    "two_node_dl": (
        "824e12427ceb5f2386c5c9d186458be9883e45c7e75a75eb5b884eb8a2e7a7a8",
        "62035508207a2ea6f3378c7c40069c27a1585e1f1e711d8d1753a90472817f9d",
    ),
    "mesh_train-1": (
        "10f7394f774e1b297cc3dabb12263872da4056055296da4b577be45eb875cfa4",
        "4b11c8ec270e45b089ef9fc97192e60f8fb5707fb36df848644dc206ea59a538",
    ),
    "mesh_train-2": (
        "cf93efda862325e813fef55fcc12b89141fbbc4e47274a1c3fc4bec2be13de93",
        "a2b4fc1fb0de98265a55d517b90f62638ec5e6aa46aefcd95b58b15a065caea9",
    ),
    "mesh_train-3": (
        "08516f5194a7b4b127d651eea4c6a5aa28d80d6d893268512536ee61c83bacb0",
        "cdb7fc0a6f8351cef0a9b403ec110645daecbc561be68debf98a91fb94cdf825",
    ),
    "mesh_train-7": (
        "03a98e7566204fbbf98931341f3bba5b6fb6fe999f89e610108b1a769f442165",
        "20b106c4f4e568be295647fed631d95b8838115a5f2086e7aca9d6c10c176568",
    ),
    "cbr_long-1": (
        "771f09828d17ee22b4eedbefd1e9ecf99f454781166ffbe20287e33200f90a4b",
        "7e0ec1567f00b6b0d0fabf52ed33e1a06ac863a1ffcbb16aac0481d5edc04fa5",
    ),
    "cbr_long-2": (
        "27d11775ceef9371b8871d270fba4a7cd340ba5402d10828ddfe3cb03a948506",
        "8f78077e8a3ed459bffe716f236868588b0a94d0d02501034d94208b65e07f35",
    ),
    "cbr_long-3": (
        "3ed6dc11e8a7c290c57be8a9f336549aed15613a144b5fb209cf1184384cd581",
        "30eb6e3f5aa5a8660ae1b381e1f8c0095cb5d10812c56dabd6cfcf74b8a18c46",
    ),
    "cbr_long-7": (
        "0162b6573b8a1f1168bbce2cd0cbc26e84f022e4e3e36b69994236be7eedf7ac",
        "122a9a9eb433c223279c408ec08874e57fb123fff3e201478cdd1b593e35a3ec",
    ),
}


def test_every_scenario_is_locked():
    scenarios = {p.stem for p in SCENARIOS.glob("*.yaml")}
    assert scenarios == {name for name in DIGESTS if "-" not in name}


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_canonical_config_is_unchanged(name, tmp_path):
    if "-" in name:
        workload, seed = name.split("-")
        path = tmp_path / f"{name}.yaml"
        path.write_text(perfbench_workloads().GENERATORS[workload](int(seed)))
    else:
        path = SCENARIOS / f"{name}.yaml"
    cfg = load_config(str(path))
    assert (
        hashlib.sha256(serialize_config(cfg).encode()).hexdigest(),
        hashlib.sha256(json.dumps(cfg.to_dict()).encode()).hexdigest(),
    ) == DIGESTS[name]


def test_list_entries_keep_their_canonical_form():
    # No scenario holds an MCS table or an extra loss; integer and float
    # spellings of each entry field, digested as above.
    data = yaml.safe_load((SCENARIOS / "two_node_dl.yaml").read_text())
    data["mcs_table"] = [
        {"mcs": 0, "min_snr_db": 1, "rate_bps": 385000000},
        {"mcs": 2.0, "min_snr_db": 5.5, "rate_bps": 1.155e9},
        {"mcs": 12, "min_snr_db": 18, "rate_bps": 4620000000},
    ]
    data["channel"] = {"extra_loss_db": [
        {"a": "dn1", "b": "cn1", "loss_db": 3}, {"a": "cn1", "b": "dn1", "loss_db": 2.5},
    ]}
    cfg = parse_config(data)
    assert (
        hashlib.sha256(serialize_config(cfg).encode()).hexdigest(),
        hashlib.sha256(json.dumps(cfg.to_dict()).encode()).hexdigest(),
    ) == (
        "ae2bb1e5d10e9dcc4b3b4b663ef60e89d0eccd86f1221ed3f6df5877ce8f21a2",
        "ce6eb58d951caa0fefb716bd57d1050c52e90011c9e06aa8b0efbc619ff76d02",
    )

"""Set-up does each distinct piece of work once, counted on mesh_train
seed 1 (18 APs, 36 STAs), where timing on a shared host could not tell.

- `load_config` (whose validation builds the nodes to fit the sweep plans)
  and `prepare_scenario` build one codebook each for the one antenna that
  all 54 nodes have.
- `build_interference_graph` calls `link_geometry` once per unordered node
  pair and `sector_gain_dbi` once per (node, sector, peer) that a
  model-priced cross pair needs.
- A link table prices both orders of a node pair from one `link_geometry`
  call: a training run makes one per responder, its feedback leg none, and
  `links_from_trained` one per trained link. `prepare_scenario` shares one
  table among its runs, so each distinct node pair is priced once.
- A traced sweep's rows carry only what varies from frame to frame.
- An in-memory trace builds the sweep's rows only when it is read, and
  then reads as the trace file of a traced run.
"""

import gc
import hashlib
import json
import tracemalloc
from collections import Counter
from itertools import combinations

import pytest

from tddsim import channel, cli, config, controller
from tddsim.beamforming import BfMode, run_beamforming
from tddsim.channel import LinkBudgetConfig
from tddsim.cli import prepare_scenario
from tddsim.config import ScenarioConfig, load_config, parse_config
from tddsim.controller import build_interference_graph, links_from_trained
from tddsim.schedule import sp_window
from tddsim.trace import TraceRecorder

from conftest import PERFBENCH, make_ap, make_node, perfbench_workloads


@pytest.fixture
def mesh_train(tmp_path):
    path = tmp_path / "mesh_train-1.yaml"
    path.write_text(perfbench_workloads().GENERATORS["mesh_train"](1))
    return str(path)


def counted(monkeypatch, module, name, key):
    """Patch `module.name` to count its calls by `key(*args)`."""
    calls = Counter()
    real = getattr(module, name)

    def wrapper(*args):
        calls[key(*args)] += 1
        return real(*args)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def test_nodes_of_one_config_share_one_codebook_per_antenna(monkeypatch, mesh_train):
    calls = counted(monkeypatch, config, "uniform_codebook", lambda *antenna: antenna)
    prep = prepare_scenario(load_config(mesh_train))
    assert len(prep.nodes) == 54
    assert sum(calls.values()) == 2  # one in validation, one in prepare_scenario
    assert len({id(node.codebook) for node in prep.nodes.values()}) == 1


def test_codebooks_are_shared_by_equal_antennas_within_one_call():
    nodes = [
        {"id": "ap", "role": "dn_ap", "position": [0.0, 0.0]},
        {"id": "sta", "position": [100.0, 0.0]},
        {"id": "sta16", "position": [0.0, 100.0], "sectors": 16},
        {"id": "zero", "position": [-100.0, 0.0], "mainlobe_gain_dbi": 0.0},
        {"id": "negzero", "position": [0.0, -100.0], "mainlobe_gain_dbi": -0.0},
    ]
    cfg = parse_config({"name": "unit", "nodes": nodes, "traffic": []})
    built = cfg.build_nodes()
    assert built["ap"].codebook is built["sta"].codebook
    # Another sector count, and the other sign of zero, get codebooks of their own.
    assert len({id(n.codebook) for n in built.values()}) == 4
    assert str(built["negzero"].codebook.sectors[0].mainlobe_gain_dbi) == "-0.0"
    assert str(built["zero"].codebook.sectors[0].mainlobe_gain_dbi) == "0.0"
    # Each call builds nodes and codebooks of its own.
    again = cfg.build_nodes()
    assert again["ap"] is not built["ap"]
    assert again["ap"].codebook is not built["ap"].codebook


def test_graph_prices_each_node_pair_and_each_gain_once(monkeypatch, mesh_train):
    prep = prepare_scenario(load_config(mesh_train))
    geometry = counted(
        monkeypatch, controller, "link_geometry", lambda tx, rx, cfg: frozenset((tx.node_id, rx.node_id)),
    )
    gains = counted(monkeypatch, controller, "sector_gain_dbi", lambda codebook, sector, angle: sector)
    graph = build_interference_graph(prep.nodes, prep.trained, prep.reports, prep.channel)

    reported = {(r.initiator_id, tx, r.responder_id, rx) for r in prep.reports for tx, rx, _ in r.samples}
    node_pairs, sending, receiving = set(), set(), set()  # (node, sector, peer) by role
    for a, b in combinations(graph.vertices, 2):
        if {a.tx_node, a.rx_node} & {b.tx_node, b.rx_node}:
            continue
        for tx, victim in ((a, b), (b, a)):
            if (tx.tx_node, tx.tx_sector, victim.rx_node, victim.rx_sector) not in reported:
                node_pairs.add(frozenset((tx.tx_node, victim.rx_node)))
                sending.add((tx.tx_node, tx.tx_sector, victim.rx_node))
                receiving.add((victim.rx_node, victim.rx_sector, tx.tx_node))
    assert set(geometry) == node_pairs and set(geometry.values()) == {1}
    assert sum(gains.values()) == len(sending | receiving)
    # Reciprocity: a node's trained sector toward one peer serves both roles.
    assert sending & receiving


def pair_of(tx, rx, cfg):
    return frozenset((tx.node_id, rx.node_id))


@pytest.mark.parametrize("mode,n_responders", [
    (BfMode.INDIVIDUAL, 1), (BfMode.GROUP, 3), (BfMode.MEASUREMENT, 3),
])
def test_training_prices_each_responder_from_one_geometry(monkeypatch, mode, n_responders):
    ap = make_ap("ap", sectors=8)
    responders = [make_node(f"sta{i}", position=(100.0, 40.0 * i)) for i in range(n_responders)]
    geometry = counted(monkeypatch, channel, "link_geometry", pair_of)
    result = run_beamforming(
        mode, ap, responders, LinkBudgetConfig(),
        sp_window(ScenarioConfig().build_structure(), 0, 25600),
    )
    # The feedback leg, when there is one, ran for every responder.
    assert len(result.trained_links) == (0 if mode is BfMode.MEASUREMENT else n_responders)
    assert geometry == {frozenset(("ap", r.node_id)): 1 for r in responders}


def test_set_up_prices_each_training_responder_and_trained_link_once(monkeypatch, mesh_train):
    cfg = load_config(mesh_train)
    geometry = counted(monkeypatch, channel, "link_geometry", pair_of)
    prep = prepare_scenario(cfg)
    trained = {frozenset((run.initiator, r)) for run in cfg.beamforming.runs for r in run.responders}
    assert len(trained) < sum(len(run.responders) for run in cfg.beamforming.runs)
    assert geometry == {pair: 1 for pair in trained}

    geometry.clear()
    for link in prep.trained:
        links_from_trained(link, prep.nodes, prep.channel)
    assert geometry == {frozenset((t.initiator_id, t.responder_id)): 1 for t in prep.trained}


def test_sweep_rows_carry_only_what_varies_per_frame(mesh_train):
    """Node, frame, and outcome or end of training are fixed in the sweep's
    shapes, so a sector-sweep row holds at most three values after `(t,
    shape)`; set-up's rows hold 463,164 values, `t` and shape included."""
    trace = TraceRecorder()
    prepare_scenario(load_config(mesh_train), trace)
    trace.buffered  # read, so the in-memory trace builds its rows
    rows = trace._records + trace._pending
    ssw = 0
    for row in rows:
        _, names, fixed = trace._shapes[row[1]]
        values = dict(fixed, **dict(zip(names, row[2:])))
        if values.get("frame") == "tdd_ssw":
            ssw += 1
            assert len(row) - 2 <= 3, (names, fixed)
    assert ssw == 98_304
    assert len(rows) == 98_688
    assert sum(map(len, rows)) == 463_164


def test_set_up_into_memory_builds_the_sweep_rows_only_when_read(mesh_train):
    def peaks(trace):
        """tracemalloc's peak after set-up into `trace`, then after a read."""
        cfg = load_config(mesh_train)
        gc.collect()  # also empties the free lists, whose reuse tracemalloc cannot see
        tracemalloc.start()
        try:
            prepare_scenario(cfg, trace)
            unread = tracemalloc.get_traced_memory()[1]
            trace.buffered  # the first read
            return unread, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    prepare_scenario(load_config(mesh_train))  # first-call allocations are not set-up's
    disabled, _ = peaks(TraceRecorder(enabled=False))
    unread, read = peaks(TraceRecorder())
    # Reading builds the 98,688 rows, about 10 MiB over the disabled
    # recorder's peak; until then the in-memory one adds under a tenth of that.
    assert (unread - disabled) * 10 < read - disabled


def test_an_untraced_run_reads_back_the_trace_file_of_a_traced_one(
    monkeypatch, mesh_train, tmp_path, capsys,
):
    """The in-memory trace of an untraced `run` is the file that `--trace`
    writes, and the benchmark's golden trace of mesh_train seed 1."""
    recorders = []
    new_trace = cli._new_trace

    def kept(*args):
        recorders.append(new_trace(*args))
        return recorders[-1]

    monkeypatch.setattr(cli, "_new_trace", kept)
    metrics, written = str(tmp_path / "metrics.csv"), tmp_path / "trace.jsonl"
    assert cli.main(["run", "--config", mesh_train, "--metrics", metrics]) == cli.EXIT_OK
    assert cli.main(["run", "--config", mesh_train, "--metrics", metrics, "--trace", str(written)]) == cli.EXIT_OK
    capsys.readouterr()
    memory = recorders[0].to_jsonl()
    assert memory == written.read_text()
    golden = json.loads((PERFBENCH / "golden.json").read_text())["mesh_train"]
    assert golden["seed"] == 1
    assert hashlib.sha256(memory.encode()).hexdigest() == golden["trace"]

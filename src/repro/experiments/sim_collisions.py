"""E10 / Section 1 motivation — the static measure predicts packet loss.

Runs slotted ALOHA over the linear chain vs the A_exp topology on the
exponential chain, and over EMST vs UDG on a random 2-D network, reporting:

- the Spearman correlation between static ``I(v)`` and observed per-node
  collision rate (model validity), and
- mean collision rate plus retransmission overhead of a data-gathering
  workload (the energy story: fewer collisions => fewer retransmissions).
"""

from __future__ import annotations

import numpy as np

from repro.experiments.registry import ExperimentResult, register
from repro.geometry.generators import exponential_chain, random_udg_connected
from repro.highway.a_exp import a_exp
from repro.highway.linear import linear_chain
from repro.interference.receiver import graph_interference
from repro.mac import MacConfig, MacSimulator
from repro.mac.metrics import collision_interference_correlation, transmit_energy
from repro.model.topology import Topology
from repro.model.udg import unit_disk_graph
from repro.sim.slotted import GatherSimulator
from repro.sim.traffic import gather_tree
from repro.topologies import build


def slotted_aloha(
    topology: Topology, p: float, *, capture: str = "disk"
) -> MacSimulator:
    """Plain slotted ALOHA on the MAC engine: in every slot each node
    sends one packet with probability ``p`` to a uniformly chosen
    neighbour, exactly once, and never backs off.

    ``window=1`` draws no wait (``integers(1)`` consumes no random bits),
    ``queue_limit=1`` with ``ack=False`` empties every queue in the slot
    it fills, so the RNG stream and the per-node tallies equal the 1.x
    slotted-ALOHA engines (disk and SINR) bit for bit; the frozen copies
    in ``tests/test_mac_reference.py`` hold this line.
    """
    config = MacConfig(
        traffic="bernoulli", load=p, queue_limit=1, ack=False, capture=capture
    )
    return MacSimulator(
        topology, policy="uniform", window=1, cw_min=1, config=config
    )


def _cases(seed: int):
    pos = exponential_chain(40)
    yield "exp40/linear", linear_chain(pos)
    yield "exp40/a_exp", a_exp(pos)
    pos2 = random_udg_connected(60, side=4.0, seed=seed)
    udg = unit_disk_graph(pos2)
    yield "rand60/udg", udg
    yield "rand60/emst", build("emst", udg)
    yield "rand60/lmst", build("lmst", udg)


@register(
    "sim_collisions",
    "Slotted ALOHA: I(v) predicts collision rates; low-I topologies lose fewer packets",
    "Section 1 motivation (simulation substrate)",
)
def run_sim(seed: int = 3, n_slots: int = 4000, p: float = 0.15) -> ExperimentResult:
    rows = []
    data = {"cases": [], "corr": [], "mean_collision": []}
    for name, topo in _cases(seed):
        res = slotted_aloha(topo, p).run(n_slots, seed=seed)
        corr, pval = collision_interference_correlation(topo, res.collision_rate)
        parent = gather_tree(topo, sink=0)
        g = GatherSimulator(topo, parent, p=0.1, source_period=150)
        gout = g.run(3000, seed=seed + 1)
        rows.append(
            [
                name,
                graph_interference(topo),
                round(float(np.nanmean(res.collision_rate)), 3),
                round(corr, 3),
                f"{pval:.1e}",
                round(gout["retransmission_overhead"], 2),
                round(transmit_energy(topo, res.attempts), 3),
            ]
        )
        data["cases"].append(name)
        data["corr"].append(corr)
        data["mean_collision"].append(float(np.nanmean(res.collision_rate)))
    linear_vs_aexp = data["mean_collision"][0] > data["mean_collision"][1]
    return ExperimentResult(
        experiment_id="sim_collisions",
        title="Model validation by packet simulation (slotted ALOHA)",
        headers=[
            "case",
            "I(G)",
            "mean collision rate",
            "spearman(I, coll)",
            "p-value",
            "gather retx overhead",
            "tx energy",
        ],
        rows=rows,
        notes=[
            f"static I(v) strongly predicts per-node collision rates "
            f"(min correlation {min(data['corr']):.2f})",
            f"A_exp's low-interference topology collides less than the linear "
            f"chain on the same nodes: {linear_vs_aexp}",
        ],
        data=data,
    )

"""Packet simulation: from static interference to collisions and energy.

The paper's introduction argues that confining interference lowers energy
consumption "by reducing the number of collisions and consequently packet
retransmissions". This example closes that loop with the simulation
substrate: it runs slotted ALOHA and a data-gathering workload over
competing topologies and shows that (a) static I(v) predicts per-node
collision rates, and (b) low-interference topologies need fewer
retransmissions per delivered packet. Run with
``python examples/simulation_energy.py``.
"""

import numpy as np

from repro.analysis.tables import format_table
from repro.experiments.sim_collisions import slotted_aloha
from repro.geometry.generators import exponential_chain, random_udg_connected
from repro.highway import a_exp, linear_chain
from repro.interference.receiver import graph_interference
from repro.mac import MacConfig, MacSimulator
from repro.mac.metrics import collision_interference_correlation, transmit_energy
from repro.model.udg import unit_disk_graph
from repro.sim.slotted import GatherSimulator
from repro.sim.traffic import gather_tree
from repro.topologies import build


def main() -> None:
    # -- Part 1: the exponential chain, linear vs A_exp --------------------
    pos = exponential_chain(40)
    rows = []
    for name, topo in (("linear", linear_chain(pos)), ("A_exp", a_exp(pos))):
        res = slotted_aloha(topo, 0.15).run(5000, seed=1)
        corr, _ = collision_interference_correlation(topo, res.collision_rate)
        gout = GatherSimulator(topo, gather_tree(topo, 0), p=0.1, source_period=200).run(
            4000, seed=2
        )
        rows.append(
            [
                name,
                graph_interference(topo),
                round(float(np.nanmean(res.collision_rate)), 3),
                round(corr, 3),
                round(gout["retransmission_overhead"], 2),
                gout["delivered"],
            ]
        )
    print(
        format_table(
            [
                "topology",
                "I(G)",
                "collision rate",
                "spearman(I, coll)",
                "retx/packet",
                "delivered",
            ],
            rows,
            title="Exponential chain, slotted ALOHA + gather-to-sink (n=40)",
        )
    )

    # -- Part 2: 2-D deployment, UDG vs EMST under CSMA --------------------
    # packets last 3 slots, so carrier sensing sees transmissions in flight
    pos2 = random_udg_connected(50, side=3.5, seed=5)
    udg = unit_disk_graph(pos2)
    csma = MacConfig(mode="csma", tx_slots=3, load=0.03)
    rows = []
    for name, topo in (("full UDG", udg), ("EMST", build("emst", udg))):
        res = MacSimulator(topo, config=csma).run(9000, seed=6)
        loss = res.rx_collision.sum() / max(
            1, res.rx_ok.sum() + res.rx_collision.sum()
        )
        rows.append(
            [
                name,
                graph_interference(topo),
                res.attempts.sum(),
                round(float(loss), 3),
                res.deferrals.sum(),
                round(transmit_energy(topo, res.attempts, alpha=2.0), 1),
            ]
        )
    print()
    print(
        format_table(
            ["topology", "I(G)", "attempts", "loss rate", "deferrals", "energy"],
            rows,
            title="2-D deployment, slotted CSMA (n=50, hidden terminals)",
        )
    )
    print(
        "\nTopology control cuts both the loss rate (fewer interferers per "
        "receiver) and the per-attempt energy (shorter radii) — the paper's "
        "energy argument, measured."
    )


if __name__ == "__main__":
    main()

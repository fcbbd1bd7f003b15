"""Beyond the paper: low-interference topology control in two dimensions.

The paper leaves higher dimensions as an open problem (Section 6). This
example runs the two heuristics shipped in ``repro.extensions`` against
the classical baselines on both a benign random deployment and the
adversarial two-exponential-chains instance — the regime split that makes
the problem hard. Run with ``python examples/two_dim_extension.py``.
"""

from repro.analysis.tables import format_table
from repro.extensions import a_gen_2d, reduce_interference
from repro.geometry.generators import random_udg_connected, two_exponential_chains
from repro.interference.receiver import graph_interference
from repro.model.udg import unit_disk_graph
from repro.render.ascii_art import render_scatter
from repro.topologies import build
from repro.topologies.constructions import two_chains_optimal_tree


def compare(title, udg, unit, optimal=None):
    rows = []
    for name, topo in (
        ("EMST", build("emst", udg)),
        ("LMST", build("lmst", udg)),
        ("A_gen 2-D", a_gen_2d(udg.positions, unit=unit)),
        ("local search", reduce_interference(udg, seed=0)),
    ):
        rows.append([name, graph_interference(topo), topo.n_edges, topo.is_connected()])
    if optimal is not None:
        rows.append(["Figure 5 tree (known OPT shape)", graph_interference(optimal), optimal.n_edges, optimal.is_connected()])
    print(format_table(["topology", "I(G)", "edges", "connected"], rows, title=title))
    print()


def main() -> None:
    pos = random_udg_connected(80, side=4.0, seed=8)
    udg = unit_disk_graph(pos)
    compare(f"Random deployment (n=80, Delta={udg.max_degree()})", udg, 1.0)

    m = 16
    adv_pos, groups = two_exponential_chains(m)
    unit = float(2.0 ** (m + 1))
    adv_udg = unit_disk_graph(adv_pos, unit=unit)
    compare(
        f"Adversarial two-exponential-chains (m={m}, n={adv_pos.shape[0]})",
        adv_udg,
        unit,
        optimal=two_chains_optimal_tree(adv_pos, groups),
    )

    print("Local-search tree on the random deployment:")
    print(render_scatter(reduce_interference(udg, seed=0), width=70, height=22))
    print(
        "\nTakeaway: on benign instances the EMST is hard to beat by much, "
        "but on adversarial geometry the local search escapes the Omega(n) "
        "trap that captures every NNF-containing algorithm — at the cost of "
        "longer (still unit-bounded) links. A provable 2-D bound remains open."
    )


if __name__ == "__main__":
    main()

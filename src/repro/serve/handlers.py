"""Worker-side request execution for :mod:`repro.serve`.

Every handler is a plain module-level function taking a strictly-JSON-safe
``params`` dict and returning a strictly-JSON-safe result dict, so the
single executor entry point (:func:`run_batch`) is picklable by reference
and spawn-safe — the same dispatch-by-name discipline as
``repro.experiments.registry.run_payload``, which the ``experiment``
handler reuses directly.

Instances are described either inline (``params["positions"]`` as an
``(n, 2)`` or ``(n,)`` list) or by a *seeded generator spec*::

    {"generator": "random_udg_connected", "args": {"n": 24, "seed": 3}}

Generator names resolve against the :data:`GENERATORS` whitelist — the
server never calls arbitrary attributes from a request.

Sharded execution
-----------------
An ``interference`` request may carry two cluster-oriented params:

- ``region`` (``[x0, y0, x1, y1]``): restrict the reported counts to
  nodes inside the closed rectangle (the full instance still determines
  the counts). The result gains ``ids`` (global node indices, sorted).
- ``shard`` (``{"index": i, "grid": TileGrid.to_jsonable()}``): compute
  the *partial* for one tile — counts of the nodes tile ``i`` owns,
  derived from the owned-plus-ghost subset only. Exact by the ghost
  invariant (:func:`repro.cluster.tiles.required_ghost`, validated
  here); the front-end merges partials by concatenation
  (:meth:`repro.cluster.ClusterRouter.merge`).
"""

from __future__ import annotations

import numpy as np

from repro.cluster.tiles import TileGrid, required_ghost
from repro.geometry import generators as _generators
from repro.interference.receiver import graph_interference, node_interference
from repro.interference.sender import sender_interference
from repro.model.udg import unit_disk_graph

#: Maximum instance size a single serving request may describe. Keeps one
#: request from monopolizing a worker; larger studies belong in sweeps.
MAX_REQUEST_NODES = 4096

#: Larger cap for shard partials: a cluster exists precisely to split
#: instances the single-request cap would refuse, and its front-end (not
#: an arbitrary client) sizes the per-shard work.
MAX_SHARD_REQUEST_NODES = 1 << 20

#: name -> positions generator (all return an ``(n, d)`` float array).
GENERATORS = {
    "exponential_chain": _generators.exponential_chain,
    "uniform_chain": _generators.uniform_chain,
    "random_highway": _generators.random_highway,
    "random_uniform_square": _generators.random_uniform_square,
    "random_udg_connected": _generators.random_udg_connected,
    "cluster_with_remote": _generators.cluster_with_remote,
    "random_blobs": _generators.random_blobs,
    "grid_points": _generators.grid_points,
}


def _measure_from_vector(measure: str, vec) -> object:
    """JSON-safe value of a receiver-centric measure from a per-node
    interference vector (0 / 0.0 for the empty network, as in
    :func:`~repro.interference.receiver.graph_interference` and
    :func:`~repro.interference.receiver.average_interference`)."""
    if measure == "graph":
        return int(vec.max()) if vec.size else 0
    if measure == "average":
        return float(vec.mean()) if vec.size else 0.0
    return vec.tolist()


def _receiver_measure(measure: str):
    return lambda topo, **kw: _measure_from_vector(
        measure, node_interference(topo, **kw)
    )


#: interference measure name -> (topology -> JSON-safe value)
MEASURES = {
    "graph": _receiver_measure("graph"),
    "average": _receiver_measure("average"),
    "node": _receiver_measure("node"),
    "sender": lambda topo, **kw: float(sender_interference(topo)),
}


def resolve_positions(params: dict, *, max_nodes: int | None = None) -> np.ndarray:
    """Materialize the instance a request describes (see module doc)."""
    has_inline = "positions" in params
    has_spec = "generator" in params
    if has_inline == has_spec:
        raise ValueError(
            "exactly one of 'positions' or 'generator' is required"
        )
    if has_inline:
        pos = np.asarray(params["positions"], dtype=np.float64)
        if pos.ndim not in (1, 2) or pos.size == 0:
            raise ValueError("'positions' must be a non-empty 1-D or (n, d) list")
    else:
        name = params["generator"]
        fn = GENERATORS.get(name)
        if fn is None:
            raise ValueError(
                f"unknown generator {name!r}; known: {sorted(GENERATORS)}"
            )
        args = params.get("args", {})
        if not isinstance(args, dict):
            raise ValueError("'args' must be an object of generator kwargs")
        pos = np.asarray(fn(**args), dtype=np.float64)
    n = pos.shape[0]
    if max_nodes is None:
        max_nodes = MAX_REQUEST_NODES
    if n > max_nodes:
        raise ValueError(
            f"instance of {n} nodes exceeds the per-request cap "
            f"({max_nodes}); use the sweep runner for large studies"
        )
    return pos


def _validate_unit(params: dict) -> float:
    unit = params.get("unit", 1.0)
    # bool is an int subclass: isinstance(True, int) passes, but True is
    # not a meaningful UDG range — reject it explicitly
    if (
        isinstance(unit, bool)
        or not isinstance(unit, (int, float))
        or unit <= 0
    ):
        raise ValueError("'unit' must be a positive number")
    return float(unit)


def _build(params: dict):
    """Shared UDG + optional registry-algorithm construction."""
    from repro.topologies import build

    pos = resolve_positions(params)
    unit = _validate_unit(params)
    topo = unit_disk_graph(pos, unit=unit)
    algorithm = params.get("algorithm")
    if algorithm is not None:
        if not isinstance(algorithm, str):
            raise ValueError("'algorithm' must be a registry name")
        topo = build(algorithm, topo)  # KeyError -> bad_request upstream
    return topo, algorithm


def handle_ping(params: dict) -> dict:
    return {"pong": True}


def _prepare_interference(params: dict):
    """Build + validate one interference request (shared by the scalar
    handler and the fused batch lane, so both reject identically)."""
    topo, algorithm = _build(params)
    measure = params.get("measure", "graph")
    if measure not in MEASURES:
        raise ValueError(
            f"unknown measure {measure!r}; known: {sorted(MEASURES)}"
        )
    method = None
    if measure != "sender":
        method = _kernel_method(params)
    return topo, algorithm, measure, method


def _kernel_method(params: dict) -> str:
    """The validated kernel ``method`` of a request (default ``"auto"``)."""
    method = params.get("method", "auto")
    if method not in ("auto", "brute", "batch"):
        raise ValueError("'method' must be auto, brute or batch")
    return method


def _interference_result(topo, algorithm, measure, value) -> dict:
    return {
        "n": int(topo.n),
        "n_edges": int(len(topo.edges)),
        "algorithm": algorithm,
        "measure": measure,
        "value": value,
    }


def _validate_region(region) -> tuple[float, float, float, float]:
    if (
        not isinstance(region, (list, tuple))
        or len(region) != 4
        or any(
            isinstance(b, bool) or not isinstance(b, (int, float))
            for b in region
        )
    ):
        raise ValueError("'region' must be [x0, y0, x1, y1]")
    x0, y0, x1, y1 = (float(b) for b in region)
    if not (x0 <= x1 and y0 <= y1):
        raise ValueError("'region' must satisfy x0 <= x1 and y0 <= y1")
    return x0, y0, x1, y1


def _region_mask(positions: np.ndarray, region) -> np.ndarray:
    """Closed-rectangle membership per node."""
    x0, y0, x1, y1 = _validate_region(region)
    return (
        (positions[:, 0] >= x0)
        & (positions[:, 0] <= x1)
        & (positions[:, 1] >= y0)
        & (positions[:, 1] <= y1)
    )


def handle_interference(params: dict) -> dict:
    """Interference of a (possibly algorithm-reduced) topology.

    params: ``positions``/``generator``(+``args``), ``unit``,
    ``algorithm`` (registry name, optional), ``measure`` (one of
    :data:`MEASURES`, default ``"graph"``), ``method`` (kernel selector,
    default ``"auto"``), plus the cluster params ``region`` / ``shard``
    (module docstring).
    """
    if "shard" in params:
        return _shard_interference(params)
    topo, algorithm, measure, method = _prepare_interference(params)
    kw = {} if method is None else {"method": method}
    region = params.get("region")
    if region is not None:
        if measure == "sender":
            raise ValueError(
                "'region' does not apply to the sender measure (a global "
                "scalar, not a per-node quantity)"
            )
        mask = _region_mask(topo.positions, region)
        vec = node_interference(topo, **kw)
        result = _interference_result(
            topo, algorithm, measure, _measure_from_vector(measure, vec[mask])
        )
        # a region query reports on region nodes only; the global edge
        # count is not its business (and a cluster answers it from the
        # region's owner shards alone, which cannot see all edges)
        result.pop("n_edges", None)
        result["ids"] = np.flatnonzero(mask).tolist()
        return result
    return _interference_result(
        topo, algorithm, measure, MEASURES[measure](topo, **kw)
    )


def _shard_interference(params: dict) -> dict:
    """One shard's partial: counts of the nodes its tile owns.

    The worker materializes the *full* instance (deterministically — the
    router only fans out specs every worker resolves identically),
    subsets to owned + ghost nodes, and computes on the sub-UDG alone.
    Exactness of the owned counts follows from the ghost invariant,
    which is validated, not assumed. ``n_edges_owned`` counts sub-UDG
    edges whose smaller global endpoint is owned, so edge totals sum
    exactly across shards.
    """
    from repro.utils import check_positions

    spec = params["shard"]
    if not isinstance(spec, dict):
        raise ValueError("'shard' must be an object with 'index' and 'grid'")
    grid = TileGrid.from_jsonable(spec.get("grid"))
    index = spec.get("index")
    if (
        isinstance(index, bool)
        or not isinstance(index, int)
        or not 0 <= index < grid.k
    ):
        raise ValueError(f"shard 'index' must be an int in [0, {grid.k})")
    if params.get("algorithm") is not None:
        raise ValueError(
            "shard partials cannot apply an 'algorithm' reduction: registry "
            "topologies are globally defined, not computable tile-locally"
        )
    measure = params.get("measure", "graph")
    if measure == "sender" or measure not in MEASURES:
        raise ValueError(
            "shard partials support measures graph, average and node; "
            f"got {measure!r}"
        )
    method = _kernel_method(params)
    unit = _validate_unit(params)
    need = required_ghost(unit)
    if grid.ghost < need:
        raise ValueError(
            f"ghost margin {grid.ghost:g} is below the exactness bound "
            f"{need:g} for unit {unit:g}; owned counts would be truncated"
        )
    pos = check_positions(
        resolve_positions(params, max_nodes=MAX_SHARD_REQUEST_NODES)
    )
    owner = grid.tile_of(pos)
    subset = np.flatnonzero(grid.ghost_mask(pos, index))
    result = {
        "n": int(pos.shape[0]),
        "shard": index,
        "measure": measure,
        "ids": [],
        "counts": [],
        "n_edges_owned": 0,
    }
    if subset.size == 0:
        return result
    subtopo = unit_disk_graph(pos[subset], unit=unit)
    vec = node_interference(subtopo, method=method)
    local_owned = owner[subset] == index
    ids = subset[local_owned]
    counts = vec[local_owned]
    region = params.get("region")
    if region is not None:
        keep = _region_mask(pos[ids], region)
        ids, counts = ids[keep], counts[keep]
    edges = subtopo.edges
    if edges.shape[0]:
        gmin = np.minimum(subset[edges[:, 0]], subset[edges[:, 1]])
        result["n_edges_owned"] = int(np.count_nonzero(owner[gmin] == index))
    result["ids"] = ids.tolist()
    result["counts"] = counts.tolist()
    return result


def handle_build_topology(params: dict) -> dict:
    """Build a topology and return its edge set plus summary measures."""
    topo, algorithm = _build(params)
    include_edges = params.get("include_edges", True)
    result = {
        "n": int(topo.n),
        "n_edges": int(len(topo.edges)),
        "algorithm": algorithm,
        "interference": int(graph_interference(topo)),
        "radii": topo.radii.tolist(),
    }
    if include_edges:
        result["edges"] = topo.edges.tolist()
    return result


def handle_opt(params: dict) -> dict:
    """Budgeted certified solve (:func:`repro.opt.solve_opt`).

    params: instance spec (small ``n`` only), ``unit``,
    ``time_budget_s``/``node_budget`` (both clamped server-side; a request
    deadline becomes ``time_budget_s``, so running out of budget yields a
    certified ``[lb, ub]`` bracket, not an error), ``seed``,
    ``include_certificate`` (default True).
    """
    from repro.opt import OptConfig, solve_opt

    pos = resolve_positions(params)
    unit = float(params.get("unit", 1.0))
    config = OptConfig(
        time_budget_s=params.get("time_budget_s"),
        node_budget=params.get("node_budget"),
        seed=params.get("seed", 0),
    )
    outcome = solve_opt(pos, unit=unit, config=config)
    result = {
        "n": int(pos.shape[0]),
        "value": int(outcome.value),
        "lower_bound": int(outcome.lower_bound),
        "status": outcome.status,
        "exact": bool(outcome.exact),
        "stats": {
            k: (float(v) if isinstance(v, float) else int(v))
            for k, v in outcome.stats.items()
        },
    }
    if params.get("include_certificate", True):
        result["certificate"] = outcome.certificate.to_jsonable()
    return result


def handle_experiment(params: dict) -> dict:
    """Run a registered experiment by id (``repro.experiments``)."""
    from repro.experiments.registry import run_payload

    experiment_id = params.get("experiment_id")
    if not isinstance(experiment_id, str):
        raise ValueError("'experiment_id' must be a registry id string")
    kwargs = params.get("kwargs", {})
    if not isinstance(kwargs, dict):
        raise ValueError("'kwargs' must be an object")
    return run_payload(experiment_id, kwargs)


HANDLERS = {
    "ping": handle_ping,
    "interference": handle_interference,
    "build_topology": handle_build_topology,
    "opt": handle_opt,
    "experiment": handle_experiment,
}


def run_request(kind: str, params: dict) -> dict:
    """Execute one request; raises on invalid input (mapped upstream)."""
    handler = HANDLERS.get(kind)
    if handler is None:
        raise ValueError(f"unknown request type {kind!r}")
    return handler(params)


def run_batch(kind: str, params_list: list[dict]) -> list[dict]:
    """Executor entry point: run a batch of same-type requests.

    Items fail independently — a bad request in a batch yields an error
    *item*, never a failed batch. Each item is ``{"ok": True, "result":
    ...}`` or ``{"ok": False, "error": "<repr>"}``.

    A coalesced ``interference`` micro-batch is *fused*: every item whose
    method resolves to the batch tier (``auto``/``batch``) is
    computed by one :func:`repro.interference.batch.node_interference_many`
    array pass instead of a Python loop of scalar kernel calls — same results
    bit-for-bit (the kernels' equivalence contract), same per-item error
    independence.
    """
    import repro.experiments  # noqa: F401  (fresh interpreters: fill REGISTRY)

    if kind == "interference" and len(params_list) > 1:
        return _run_interference_batch(params_list)
    out = []
    for params in params_list:
        try:
            out.append({"ok": True, "result": run_request(kind, params)})
        except Exception as exc:
            out.append({"ok": False, "error": f"{type(exc).__name__}: {exc}"})
    return out


def _run_interference_batch(params_list: list[dict]) -> list[dict]:
    """Fused interference lane (see :func:`run_batch`)."""
    from repro import obs
    from repro.interference.batch import node_interference_many

    out: list[dict | None] = [None] * len(params_list)
    prepared = []
    for i, params in enumerate(params_list):
        if "shard" in params or "region" in params:
            # cluster-shaped items: a different result shape (partials /
            # id-filtered vectors), computed whole rather than fused
            try:
                out[i] = {"ok": True, "result": handle_interference(params)}
            except Exception as exc:
                out[i] = {"ok": False, "error": f"{type(exc).__name__}: {exc}"}
            continue
        try:
            prepared.append((i, *_prepare_interference(params)))
        except Exception as exc:
            out[i] = {"ok": False, "error": f"{type(exc).__name__}: {exc}"}
    fuse = [p for p in prepared if p[4] in ("auto", "batch")]
    vectors: dict[int, object] = {}
    if len(fuse) > 1:
        try:
            many = node_interference_many([p[1] for p in fuse])
            vectors = {p[0]: vec for p, vec in zip(fuse, many)}
            obs.count("serve.interference.fused", len(fuse))
        except Exception:
            # fall back to per-item scalar kernels; results are identical
            obs.count("serve.interference.fuse_fallback")
            vectors = {}
    for i, topo, algorithm, measure, method in prepared:
        if out[i] is not None:
            continue
        try:
            vec = vectors.get(i)
            if vec is not None:
                value = _measure_from_vector(measure, vec)
            else:
                kw = {} if method is None else {"method": method}
                value = MEASURES[measure](topo, **kw)
            out[i] = {
                "ok": True,
                "result": _interference_result(topo, algorithm, measure, value),
            }
        except Exception as exc:
            out[i] = {"ok": False, "error": f"{type(exc).__name__}: {exc}"}
    return out

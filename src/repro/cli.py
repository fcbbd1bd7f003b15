"""Command-line entry point: list and run the paper's experiments.

Usage::

    python -m repro.cli list
    python -m repro.cli run fig8_aexp
    python -m repro.cli run all --json-dir results/
    python -m repro.cli sweep --workers 4            # full registry, cached
    python -m repro.cli sweep fig8_aexp --seeds 5 --param 'sizes=[[16,64],[16,256]]'
    python -m repro.cli trace fig1_robustness        # span tree + counters
    python -m repro.cli sweep --trace-out trace.jsonl fig2_sample
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


def _parse_param(text: str) -> tuple[str, list]:
    """Parse one ``--param key=VALUES`` grid axis.

    ``VALUES`` is parsed as JSON; a JSON array lists the grid values for
    the axis, any other JSON value (or a bare string) is a single value.
    To sweep over list-valued kwargs, nest: ``sizes=[[16,64],[16,256]]``.
    """
    key, sep, raw = text.partition("=")
    if not sep or not key:
        raise argparse.ArgumentTypeError(
            f"--param expects key=VALUES, got {text!r}"
        )
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    return key, value if isinstance(value, list) else [value]


def _build_parser() -> argparse.ArgumentParser:
    from repro.mac.engine import CAPTURE_KINDS, MAC_MODES, TRAFFIC_KINDS
    from repro.mac.policies import BACKOFF_POLICIES

    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction experiments for 'A Robust Interference Model for "
            "Wireless Ad-Hoc Networks' (von Rickenbach et al., IPPS 2005)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list registered experiments")
    runp = sub.add_parser("run", help="run one experiment (or 'all')")
    runp.add_argument("experiment", help="experiment id, or 'all'")
    runp.add_argument(
        "--json-dir",
        type=Path,
        default=None,
        help="also write <id>.json result files into this directory",
    )
    runp.add_argument(
        "--csv-dir",
        type=Path,
        default=None,
        help="also write <id>.csv tables into this directory",
    )
    runp.add_argument("--seed", type=int, default=None, help="override RNG seed")
    rep = sub.add_parser("report", help="run all experiments, emit a markdown report")
    rep.add_argument("--out", type=Path, required=True, help="output markdown path")
    rep.add_argument(
        "--csv-dir", type=Path, default=None, help="also export tables as CSV"
    )
    rep.add_argument(
        "--workers", type=int, default=1, help="worker processes (default: serial)"
    )
    rep.add_argument(
        "--no-cache", action="store_true", help="recompute without the result cache"
    )
    rep.add_argument(
        "--cache-dir", type=Path, default=None,
        help="cache root (default: $REPRO_CACHE_DIR or .repro_cache)",
    )
    sweep = sub.add_parser(
        "sweep",
        help="expand an experiment/parameter/seed grid, run it in parallel "
        "with content-addressed result caching",
    )
    sweep.add_argument(
        "experiments", nargs="*", default=[],
        help="experiment ids (default: the full registry)",
    )
    sweep.add_argument(
        "--workers", type=int, default=1, help="worker processes (default: serial)"
    )
    sweep.add_argument(
        "--no-cache", action="store_true", help="disable the result cache entirely"
    )
    sweep.add_argument(
        "--force", action="store_true",
        help="recompute every task, overwriting existing cache entries",
    )
    sweep.add_argument(
        "--cache-dir", type=Path, default=None,
        help="cache root (default: $REPRO_CACHE_DIR or .repro_cache)",
    )
    sweep.add_argument(
        "--manifest", type=Path, default=Path("results/sweep_manifest.json"),
        help="run-manifest JSON output path",
    )
    sweep.add_argument(
        "--json-dir", type=Path, default=None,
        help="write one <id>[.<k>].json payload per task into this directory",
    )
    sweep.add_argument(
        "--param", action="append", default=[], metavar="KEY=VALUES",
        help="grid axis: JSON array of values (repeatable); e.g. "
        "--param 'sizes=[[16,64],[16,256]]'",
    )
    sweep.add_argument(
        "--seeds", type=int, default=None,
        help="replicate each combination under K seeds derived via "
        "SeedSequence(base_seed).spawn(K)",
    )
    sweep.add_argument(
        "--task-timeout", type=float, default=None, metavar="SECONDS",
        help="per-task wall-clock budget; expired tasks are recorded as "
        "status=timeout in the manifest (pool mode terminates the stuck "
        "worker) instead of hanging the sweep",
    )
    sweep.add_argument(
        "--base-seed", type=int, default=0, help="root seed for --seeds derivation"
    )
    sweep.add_argument(
        "--render", action="store_true", help="print each result's full table"
    )
    sweep.add_argument(
        "--trace-out", type=Path, default=None, metavar="TRACE.JSONL",
        help="run with observability enabled and write the span/counter "
        "trace as JSONL (per-task spans reconcile with the manifest)",
    )
    trace = sub.add_parser(
        "trace",
        help="run one experiment with tracing enabled; print the span tree "
        "and counter summary",
    )
    trace.add_argument("experiment", help="experiment id")
    trace.add_argument("--seed", type=int, default=None, help="override RNG seed")
    trace.add_argument(
        "--trace-out", type=Path, default=None, metavar="TRACE.JSONL",
        help="also write the full trace as JSONL",
    )
    trace.add_argument(
        "--max-spans", type=int, default=400,
        help="truncate the printed span tree beyond this many spans",
    )
    trace.add_argument(
        "--result", action="store_true",
        help="also print the experiment's result table",
    )
    churn = sub.add_parser(
        "churn",
        help="focused churn/loss resilience scenario (fault-injection harness)",
    )
    churn.add_argument("--n", type=int, default=60, help="initial network size")
    churn.add_argument("--events", type=int, default=40, help="churn events to apply")
    churn.add_argument(
        "--loss",
        type=float,
        default=0.2,
        help="Bernoulli message-loss rate for the protocol convergence check",
    )
    churn.add_argument("--seed", type=int, default=17, help="scenario seed")
    churn.add_argument(
        "--json", type=Path, default=None, help="also write the result as JSON"
    )
    mac = sub.add_parser(
        "mac",
        help="MAC-layer contention run: backoff-policy zoo, traffic "
        "sources and capture effect over the paper's topology families "
        "(the mac_contention experiment)",
    )
    mac.add_argument("--n", type=int, default=64, help="network size")
    mac.add_argument("--slots", type=int, default=1500, help="slots to simulate")
    mac.add_argument(
        "--load", type=float, default=0.08,
        help="per-node offered load in packets per slot",
    )
    mac.add_argument(
        "--topology", action="append", default=None, metavar="NAME",
        help="topology family (repeatable; default: nnf, a_exp); highway "
        "names use the exponential chain, others run on a random UDG",
    )
    mac.add_argument(
        "--policy", action="append", default=None, metavar="NAME",
        choices=sorted(BACKOFF_POLICIES),
        help="backoff policy (repeatable; default: beb, eied)",
    )
    mac.add_argument(
        "--traffic", choices=sorted(TRAFFIC_KINDS), default="poisson",
        help="per-node traffic source",
    )
    mac.add_argument(
        "--mode", choices=sorted(MAC_MODES), default="aloha",
        help="channel access mode (csma needs --tx-slots >= 2 to differ)",
    )
    mac.add_argument(
        "--capture", choices=sorted(CAPTURE_KINDS), default="disk",
        help="reception model: disk overlap or SINR-threshold capture",
    )
    mac.add_argument(
        "--tx-slots", type=int, default=1, help="slots per transmission"
    )
    mac.add_argument("--seed", type=int, default=3, help="run seed")
    mac.add_argument(
        "--json", type=Path, default=None, help="also write the result as JSON"
    )
    opt = sub.add_parser(
        "opt",
        help="run the certified minimum-interference solver on a named "
        "instance family; prints the proven bracket and verifies the "
        "certificate",
    )
    opt.add_argument(
        "instance",
        choices=sorted(OPT_INSTANCES),
        help="instance family (two_chain interprets --n as the chain "
        "parameter m, giving 3m-1 nodes)",
    )
    opt.add_argument("--n", type=int, default=12, help="instance size parameter")
    opt.add_argument("--seed", type=int, default=0, help="instance/solver seed")
    opt.add_argument(
        "--unit", type=float, default=None,
        help="unit range override (default: per-family choice)",
    )
    opt.add_argument(
        "--node-budget", type=int, default=200_000,
        help="search-node budget; 0 disables it (default: %(default)s, so "
        "large instances terminate with a certified bracket)",
    )
    opt.add_argument(
        "--time-budget", type=float, default=None, metavar="SECONDS",
        help="wall-clock budget for the whole solve",
    )
    opt.add_argument(
        "--json", type=Path, default=None,
        help="also write the outcome + certificate as JSON",
    )
    serve = sub.add_parser(
        "serve",
        help="run the asyncio interference service (JSON over TCP; see "
        "docs/SERVING.md) until interrupted",
    )
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument(
        "--port", type=int, default=7421,
        help="bind port; 0 picks an ephemeral port (printed on startup)",
    )
    serve.add_argument(
        "--workers", type=int, default=2, help="worker processes"
    )
    serve.add_argument(
        "--executor", choices=("process", "thread"), default="process",
        help="worker pool flavour (thread: cheap startup, tests/tiny loads)",
    )
    serve.add_argument(
        "--batch-max", type=int, default=32,
        help="micro-batch size cap (1 disables coalescing)",
    )
    serve.add_argument(
        "--queue-limit", type=int, default=256,
        help="admission bound; excess requests get explicit 'overloaded'",
    )
    serve.add_argument(
        "--default-deadline-ms", type=float, default=None,
        help="deadline applied to requests that carry none",
    )
    serve.add_argument(
        "--drain-timeout", type=float, default=5.0, metavar="SECONDS",
        help="graceful-shutdown budget on SIGINT/SIGTERM",
    )
    serve.add_argument(
        "--max-line-bytes", type=int, default=None,
        help="per-frame size limit (default: protocol MAX_LINE_BYTES; "
        "clusters raise it for whole-shard partial vectors)",
    )
    serve.add_argument(
        "--shards", type=int, default=1,
        help="run a spatially sharded cluster with this many worker "
        "processes instead of a single server (see docs/SHARDING.md)",
    )
    serve.add_argument(
        "--ghost", type=float, default=2.5,
        help="ghost-margin width for --shards > 1; must be >= "
        "required_ghost(unit) of the traffic for parallel fan-out",
    )
    serve.add_argument(
        "--bounds", type=float, nargs=4, default=(0.0, 0.0, 1.0, 1.0),
        metavar=("X0", "Y0", "X1", "Y1"),
        help="plane rectangle tiled across shards (--shards > 1)",
    )
    serve.add_argument(
        "--shard-index", type=int, default=None,
        help="adopt this cluster shard identity (set by the cluster "
        "front-end when spawning workers; not for interactive use)",
    )
    serve.add_argument(
        "--stats-json", type=Path, default=None,
        help="write final stats as JSON on shutdown (--shards > 1: "
        "front-end plus per-shard counters)",
    )
    stream = sub.add_parser(
        "stream",
        help="durable event-sourced streaming engine: ingest, replay, "
        "verify, chaos (see docs/STREAMING.md)",
    )
    ssub = stream.add_subparsers(dest="stream_command", required=True)

    def _stream_workload_args(p, *, events_default):
        p.add_argument(
            "--events", type=int, default=events_default,
            help="events in the seeded workload",
        )
        p.add_argument("--seed", type=int, default=0, help="workload seed")
        p.add_argument(
            "--capacity", type=int, default=512, help="node-universe size"
        )
        p.add_argument(
            "--side", type=float, default=12.0, help="deployment square side"
        )
        p.add_argument(
            "--r-max", type=float, default=1.0, help="coverage-radius bound"
        )

    ingest = ssub.add_parser(
        "ingest",
        help="create (or --resume) a durable stream directory and apply a "
        "seeded event workload through the WAL",
    )
    ingest.add_argument(
        "--dir", type=Path, required=True, help="stream directory"
    )
    _stream_workload_args(ingest, events_default=5000)
    ingest.add_argument(
        "--family", choices=("uniform", "clustered", "mobile"),
        default="uniform", help="workload topology family",
    )
    ingest.add_argument(
        "--snapshot-every", type=int, default=1000,
        help="snapshot cadence in events (0 disables)",
    )
    ingest.add_argument(
        "--fsync-every", type=int, default=64, help="WAL fsync batch size"
    )
    ingest.add_argument(
        "--no-fsync", action="store_true",
        help="skip os.fsync (tmpfs / benchmark mode)",
    )
    ingest.add_argument(
        "--rate", type=float, default=None, metavar="EVENTS_PER_S",
        help="throttle ingest (chaos children use this so the kill point "
        "is controllable)",
    )
    ingest.add_argument(
        "--resume", action="store_true",
        help="recover an existing directory and continue the same seeded "
        "workload from the surviving seqno",
    )
    ingest.add_argument(
        "--segment-bytes", type=int, default=None,
        help="log segment rotation threshold in bytes "
        "(default: StreamConfig's 8 MiB)",
    )
    ingest.add_argument(
        "--compact", choices=("auto", "manual"), default=None,
        help="compaction policy: auto deletes snapshot-covered segments "
        "after every snapshot (default), manual only via 'stream compact'",
    )
    replay = ssub.add_parser(
        "replay",
        help="recover a stream directory (snapshot + tail replay) and "
        "print what recovery found",
    )
    replay.add_argument("--dir", type=Path, required=True)
    verify = ssub.add_parser(
        "verify",
        help="recover, then assert recovered state == full from-scratch "
        "replay == independent recount (exit 1 on divergence, 2 on "
        "detected WAL corruption)",
    )
    verify.add_argument("--dir", type=Path, required=True)
    verify.add_argument(
        "--deep", action="store_true",
        help="also integrity-scan every surviving segment, including "
        "snapshot-covered ones (O(total log) instead of O(tail))",
    )
    compact = ssub.add_parser(
        "compact",
        help="delete sealed log segments wholly covered by the newest "
        "valid snapshot (idempotent; prints what was removed)",
    )
    compact.add_argument("--dir", type=Path, required=True)
    chaos = ssub.add_parser(
        "chaos",
        help="seeded kill/recover/resume suite; exit 1 unless every run "
        "converges exactly",
    )
    chaos.add_argument(
        "--dir", type=Path, default=None,
        help="base directory for run artifacts (default: a temp dir; "
        "failed runs are always left on disk for post-mortem)",
    )
    chaos.add_argument("--runs", type=int, default=20, help="chaos cycles")
    _stream_workload_args(chaos, events_default=1000)
    chaos.add_argument(
        "--mode", choices=("inprocess", "subprocess"), default="inprocess",
        help="inprocess: WAL-buffer-drop crashes; subprocess: real "
        "SIGKILL of a CLI ingest child",
    )
    chaos.add_argument(
        "--rate", type=float, default=None,
        help="child ingest throttle (subprocess mode)",
    )
    chaos.add_argument(
        "--target", choices=("uniform", "rotation", "compaction"),
        default="uniform",
        help="kill-point family: uniform in log bytes, aimed at segment "
        "seal boundaries, or interrupting mid-compaction (inprocess only)",
    )
    loadgen = sub.add_parser(
        "loadgen",
        help="drive a server with a seeded request stream; report "
        "throughput and p50/p95/p99 latency against an SLO",
    )
    loadgen.add_argument("--host", default="127.0.0.1", help="server address")
    loadgen.add_argument(
        "--port", type=int, default=7421,
        help="server port (ignored with --self-host)",
    )
    loadgen.add_argument(
        "--self-host", action="store_true",
        help="start a server in-process on an ephemeral port, drive it, "
        "then drain it (CI smoke mode)",
    )
    loadgen.add_argument(
        "--requests", type=int, default=200, help="total requests to issue"
    )
    loadgen.add_argument(
        "--mode", choices=("closed", "open"), default="closed",
        help="closed: fixed concurrency; open: seeded Poisson arrivals "
        "at --rate (can overload the server)",
    )
    loadgen.add_argument(
        "--concurrency", type=int, default=8, help="closed-loop virtual clients"
    )
    loadgen.add_argument(
        "--rate", type=float, default=500.0, help="open-loop offered load (req/s)"
    )
    loadgen.add_argument("--seed", type=int, default=0, help="request-stream seed")
    loadgen.add_argument(
        "--mix", default="interference=8,build_topology=1,experiment=1",
        help="request mix as kind=weight[,kind=weight...]",
    )
    loadgen.add_argument(
        "--n-nodes", type=int, default=24,
        help="instance-size cap for generated interference requests",
    )
    loadgen.add_argument(
        "--deadline-ms", type=float, default=None,
        help="per-request deadline attached to every request",
    )
    loadgen.add_argument(
        "--slo-p99-ms", type=float, default=None,
        help="assert p99 latency against this SLO; exit 1 when missed",
    )
    loadgen.add_argument(
        "--workers", type=int, default=2,
        help="self-hosted server worker processes",
    )
    loadgen.add_argument(
        "--executor", choices=("process", "thread"), default="process",
        help="self-hosted server pool flavour",
    )
    loadgen.add_argument(
        "--batch-max", type=int, default=32,
        help="self-hosted server micro-batch size cap",
    )
    loadgen.add_argument(
        "--json", type=Path, default=None, help="also write the report as JSON"
    )
    return parser


#: instance families the ``opt`` subcommand can solve: name ->
#: ``(n, seed) -> (positions, default_unit)``
OPT_INSTANCES = {
    "exp_chain": lambda n, seed: _gen("exponential_chain", n),
    "uniform_chain": lambda n, seed: _gen("uniform_chain", n, spacing=0.1),
    "two_chain": lambda n, seed: _gen_two_chain(n),
    "random": lambda n, seed: _gen("random_udg_connected", n, side=1.0, seed=seed),
    "cluster": lambda n, seed: _gen("cluster_with_remote", n, seed=seed),
}


def _gen(name, n, **kwargs):
    from repro.geometry import generators

    return getattr(generators, name)(n, **kwargs), 1.0


def _gen_two_chain(m):
    from repro.geometry.generators import two_exponential_chains

    pos, _info = two_exponential_chains(m)
    return pos, 2.0 ** (m + 1)


def _opt(args) -> int:
    from repro.opt import OptConfig, solve_opt, verify_certificate

    pos, unit = OPT_INSTANCES[args.instance](args.n, args.seed)
    if args.unit is not None:
        unit = args.unit
    config = OptConfig(
        node_budget=args.node_budget if args.node_budget > 0 else None,
        time_budget_s=args.time_budget,
        seed=args.seed,
    )
    outcome = solve_opt(pos, unit=unit, config=config)
    n = pos.shape[0]
    print(f"opt: {args.instance} n={n} unit={unit:g}")
    if outcome.exact:
        print(f"  OPT = {outcome.value}  [proven optimal, status={outcome.status}]")
    else:
        print(
            f"  {outcome.lower_bound} <= OPT <= {outcome.value}  "
            f"[certified bracket, status={outcome.status}]"
        )
    cert = outcome.certificate
    print(
        f"  lower bound via: {cert.lower_bound_method}; witness: "
        f"{len(cert.edges)} edge(s)"
    )
    stats = outcome.stats
    print(
        "  search: {nodes} node(s) expanded, prunes "
        "cov={cov} forced={forced} conn={conn} iso={iso} sym={sym}".format(
            nodes=stats.get("nodes_expanded", 0),
            cov=stats.get("prune_coverage", 0),
            forced=stats.get("prune_forced", 0),
            conn=stats.get("prune_connectivity", 0),
            iso=stats.get("prune_isolation", 0),
            sym=stats.get("prune_symmetry", 0),
        )
    )
    verify_certificate(pos, cert)
    print("  certificate: VERIFIED")
    if args.json is not None:
        args.json.parent.mkdir(parents=True, exist_ok=True)
        args.json.write_text(json.dumps({
            "instance": args.instance,
            "n": n,
            "unit": unit,
            "value": outcome.value,
            "lower_bound": outcome.lower_bound,
            "status": outcome.status,
            "stats": dict(stats),
            "certificate": cert.to_jsonable(),
        }, indent=2))
        print(f"  wrote {args.json}")
    return 0


def main(argv: list[str] | None = None) -> int:
    try:
        return _main(argv)
    except BrokenPipeError:
        # stdout consumer (e.g. `| head`) went away: exit quietly like a
        # well-behaved unix filter
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), 1)
        return 0


def _main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    from repro import experiments

    if args.command == "list":
        for eid, exp in sorted(experiments.REGISTRY.items()):
            print(f"{eid:22s} {exp.title}  [{exp.paper_ref}]")
        return 0

    if args.command == "report":
        from repro.experiments.report import write_csvs, write_report
        from repro.runner import ResultCache, SweepTask, run_sweep

        cache = None if args.no_cache else ResultCache(args.cache_dir)
        outcome = run_sweep(
            [SweepTask(eid) for eid in sorted(experiments.REGISTRY)],
            workers=args.workers,
            cache=cache,
        )
        path = write_report(
            outcome.results, args.out, title="Reproduction report — all experiments"
        )
        print(f"wrote {path}")
        if args.csv_dir is not None:
            for p in write_csvs(outcome.results, args.csv_dir):
                print(f"wrote {p}")
        return 0

    if args.command == "sweep":
        return _sweep(args, experiments)

    if args.command == "trace":
        return _trace(args, experiments)

    if args.command == "opt":
        return _opt(args)

    if args.command == "serve":
        return _serve(args)

    if args.command == "stream":
        return _stream(args)

    if args.command == "loadgen":
        return _loadgen(args)

    if args.command == "mac":
        result = experiments.run(
            "mac_contention",
            seed=args.seed,
            n=args.n,
            n_slots=args.slots,
            load=args.load,
            topologies=tuple(args.topology) if args.topology else ("nnf", "a_exp"),
            policies=tuple(args.policy) if args.policy else ("beb", "eied"),
            traffic=args.traffic,
            mode=args.mode,
            capture=args.capture,
            tx_slots=args.tx_slots,
        )
        print(result.render())
        if args.json is not None:
            args.json.parent.mkdir(parents=True, exist_ok=True)
            args.json.write_text(result.to_json())
            print(f"  wrote {args.json}")
        return 0

    if args.command == "churn":
        result = experiments.run(
            "churn_resilience",
            sizes=(args.n,),
            n_events=args.events,
            loss_rates=(args.loss,),
            loss_n=args.n,
            seed=args.seed,
        )
        print(result.render())
        if args.json is not None:
            args.json.parent.mkdir(parents=True, exist_ok=True)
            args.json.write_text(result.to_json())
            print(f"  wrote {args.json}")
        return 0

    kwargs = {}
    if args.seed is not None:
        kwargs["seed"] = args.seed
    if args.experiment == "all":
        results = experiments.run_all()
    else:
        results = [experiments.run(args.experiment, **kwargs)]
    for result in results:
        print(result.render())
        print()
        if args.json_dir is not None:
            args.json_dir.mkdir(parents=True, exist_ok=True)
            path = args.json_dir / f"{result.experiment_id}.json"
            path.write_text(result.to_json())
            print(f"  wrote {path}")
        if args.csv_dir is not None:
            from repro.experiments.report import write_csvs

            for p in write_csvs([result], args.csv_dir):
                print(f"  wrote {p}")
    return 0


def _trace(args, experiments) -> int:
    from repro import obs

    experiments.get(args.experiment)  # fail fast on unknown ids
    kwargs = {}
    if args.seed is not None:
        kwargs["seed"] = args.seed
    with obs.capture():
        with obs.span("trace", experiment=args.experiment):
            result = experiments.run(args.experiment, **kwargs)
    snap = obs.snapshot()
    if args.result:
        print(result.render())
        print()
    print(f"trace: {args.experiment} ({snap.n_spans} span(s), "
          f"{snap.max_depth()} level(s))")
    print(obs.render_span_tree(snap, max_spans=args.max_spans))
    print()
    print(obs.render_counters(snap))
    if args.trace_out is not None:
        path = obs.write_trace_jsonl(args.trace_out, snap)
        print(f"  wrote {path}")
    return 0


def _serve(args) -> int:
    if args.shards > 1:
        return _serve_cluster(args)

    import asyncio

    from repro.serve import InterferenceServer, ServeConfig
    from repro.serve.protocol import MAX_LINE_BYTES

    config = ServeConfig(
        host=args.host,
        port=args.port,
        workers=args.workers,
        executor=args.executor,
        batch_max_size=args.batch_max,
        queue_limit=args.queue_limit,
        default_deadline_ms=args.default_deadline_ms,
        drain_timeout_s=args.drain_timeout,
        max_line_bytes=(
            MAX_LINE_BYTES
            if args.max_line_bytes is None
            else args.max_line_bytes
        ),
    )

    async def _run() -> None:
        import signal

        server = InterferenceServer(config)
        await server.start()
        if args.shard_index is not None:
            server.set_shard_info({"index": args.shard_index})
        print(
            f"repro serve: listening on {server.host}:{server.port} "
            f"({config.workers} {config.executor} worker(s), "
            f"batch<={config.batch_max_size}, queue<={config.queue_limit})",
            flush=True,
        )
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGINT, signal.SIGTERM):
            loop.add_signal_handler(sig, stop.set)
        await stop.wait()
        print("repro serve: draining...", flush=True)
        await server.stop()
        stats = server.stats()
        print(
            "repro serve: stopped after "
            f"{stats['completed']} request(s), {stats['batches']} batch(es), "
            f"{stats['rejected_overloaded']} shed",
        )
        if args.stats_json is not None:
            args.stats_json.write_text(json.dumps(stats, indent=2) + "\n")

    asyncio.run(_run())
    return 0


def _serve_cluster(args) -> int:
    import asyncio

    from repro.serve.shard import ClusterConfig, ShardCluster

    kwargs = dict(
        shards=args.shards,
        host=args.host,
        port=args.port,
        bounds=tuple(args.bounds),
        ghost=args.ghost,
        worker_mode="subprocess",
        worker_workers=args.workers,
        worker_executor=args.executor,
        batch_max_size=args.batch_max,
        queue_limit=args.queue_limit,
        default_deadline_ms=args.default_deadline_ms,
        drain_timeout_s=args.drain_timeout,
    )
    if args.max_line_bytes is not None:
        kwargs["max_line_bytes"] = args.max_line_bytes
    config = ClusterConfig(**kwargs)

    async def _run() -> None:
        import signal

        cluster = ShardCluster(config)
        await cluster.start()
        # same banner shape as the single-server path: the benchmark and
        # CI harnesses parse "listening on host:port" from either mode
        print(
            f"repro serve: listening on {cluster.host}:{cluster.port} "
            f"({config.shards} shard(s), {cluster.grid.nx}x{cluster.grid.ny} "
            f"tiles, ghost={cluster.grid.ghost:g}, "
            f"mode={config.worker_mode})",
            flush=True,
        )
        for index, (host, port) in enumerate(cluster.endpoints):
            print(f"repro serve:   shard {index} at {host}:{port}", flush=True)
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGINT, signal.SIGTERM):
            loop.add_signal_handler(sig, stop.set)
        await stop.wait()
        print("repro serve: draining...", flush=True)
        stats = cluster.stats()
        await cluster.stop()
        front = stats["frontend"]
        print(
            "repro serve: cluster stopped after "
            f"{front['requests']} request(s), {front['fanout']} fanned out, "
            f"{front['forwarded']} forwarded, "
            f"{front['shard_unavailable']} shard_unavailable",
        )
        if args.stats_json is not None:
            args.stats_json.write_text(json.dumps(stats, indent=2) + "\n")

    asyncio.run(_run())
    return 0


def _stream(args) -> int:
    if args.stream_command == "ingest":
        return _stream_ingest(args)
    if args.stream_command == "replay":
        return _stream_replay(args)
    if args.stream_command == "verify":
        return _stream_verify(args)
    if args.stream_command == "compact":
        return _stream_compact(args)
    return _stream_chaos(args)


def _stream_ingest(args) -> int:
    import time

    from repro.stream import (
        DurableStreamEngine,
        StreamConfig,
        random_stream_events,
    )

    extra = {}
    if args.segment_bytes is not None:
        extra["segment_bytes"] = args.segment_bytes
    if args.compact is not None:
        extra["compact"] = args.compact
    config = StreamConfig(
        capacity=args.capacity,
        r_max=args.r_max,
        snapshot_every=args.snapshot_every,
        fsync_every=args.fsync_every,
        fsync=not args.no_fsync,
        **extra,
    )
    if (args.dir / "meta.json").exists():
        if not args.resume:
            print(
                f"stream ingest: {args.dir} already exists (use --resume)",
                file=sys.stderr,
            )
            return 1
        engine = DurableStreamEngine.open(args.dir)
        ri = engine.recovery
        print(
            f"stream ingest: resumed at seq {engine.last_seq} "
            f"(snapshot {ri.snapshot_seq}, replayed "
            f"{ri.replayed_from}..{ri.replayed_to}, "
            f"torn tail: {ri.torn_bytes} bytes)"
        )
    else:
        engine = DurableStreamEngine.create(args.dir, config)
    events = random_stream_events(
        args.events,
        capacity=args.capacity,
        side=args.side,
        r_max=args.r_max,
        seed=args.seed,
        family=args.family,
    )
    todo = events[engine.last_seq :]
    t0 = time.perf_counter()
    done = 0
    chunk = 256 if args.rate is None else max(1, min(256, int(args.rate / 50) or 1))
    for i in range(0, len(todo), chunk):
        engine.apply_batch(todo[i : i + chunk])
        done += min(chunk, len(todo) - i)
        if args.rate is not None:
            target = t0 + done / args.rate
            now = time.perf_counter()
            if target > now:
                time.sleep(target - now)
    wall = time.perf_counter() - t0
    engine.close()
    eps = done / wall if wall > 0 else float("inf")
    print(
        f"stream ingest: {done} event(s) -> seq {engine.last_seq} "
        f"in {wall:.3f}s ({eps:,.0f} events/s), "
        f"{engine.engine.n_active} active node(s), "
        f"digest {engine.engine.state_digest()[:16]}…"
    )
    return 0


def _stream_replay(args) -> int:
    from repro.stream import DurableStreamEngine

    engine = DurableStreamEngine.open(args.dir)
    ri = engine.recovery
    replay_range = (
        f"{ri.replayed_from}..{ri.replayed_to}" if ri.replayed_from else "(none)"
    )
    print(f"stream replay: {args.dir}")
    print(f"  snapshot seq : {ri.snapshot_seq}")
    print(f"  replayed seqs: {replay_range}  ({ri.wal_records} records scanned)")
    print(
        f"  segments     : {ri.segments_scanned}/{ri.segments} scanned"
        f"  ({ri.bytes_scanned} bytes)"
    )
    print(
        f"  torn tail    : {ri.torn_bytes} bytes dropped"
        if ri.torn_tail
        else "  torn tail    : none"
    )
    if ri.snapshot_newer_than_log:
        print("  WARNING: snapshot newer than log (external truncation?)")
    print(
        f"  state        : seq {engine.last_seq}, "
        f"{engine.engine.n_active} active node(s), "
        f"max interference {engine.engine.max_interference()}, "
        f"digest {engine.engine.state_digest()[:16]}…"
    )
    engine.close()
    return 0


def _stream_verify(args) -> int:
    from repro.stream import WalCorruption, render_verify_report, verify_stream_dir

    try:
        report = verify_stream_dir(args.dir, deep=args.deep)
    except WalCorruption as exc:
        print(f"stream verify: DETECTED CORRUPTION — {exc}", file=sys.stderr)
        return 2
    print(render_verify_report(report))
    return 0 if report.ok else 1


def _stream_compact(args) -> int:
    from repro.stream import DurableStreamEngine
    from repro.stream.snapshot import newest_snapshot_seq

    engine = DurableStreamEngine.open(args.dir)
    try:
        cover = newest_snapshot_seq(args.dir)
        removed = engine.compact()
    finally:
        engine.close()
    print(
        f"stream compact: {args.dir} — {len(removed)} segment(s) deleted "
        f"(cover seq {cover})"
    )
    for path in removed:
        print(f"  removed {path.name}")
    return 0


def _stream_chaos(args) -> int:
    import tempfile

    from repro.stream import chaos_suite, render_chaos_results

    base = args.dir or Path(tempfile.mkdtemp(prefix="repro-chaos-"))
    results = chaos_suite(
        base,
        args.runs,
        seed=args.seed,
        n_events=args.events,
        capacity=args.capacity,
        side=args.side,
        r_max=args.r_max,
        mode=args.mode,
        rate=args.rate,
        target=args.target,
    )
    print(f"stream chaos: {args.mode}/{args.target} suite under {base}")
    print(render_chaos_results(results))
    bad = [r for r in results if not r.ok]
    if bad:
        for r in bad:
            print(
                f"  DIVERGENT run {r.run}: artifacts in {base / f'run-{r.run:03d}'}",
                file=sys.stderr,
            )
        return 1
    return 0


def _parse_mix(text: str) -> tuple[tuple[str, int], ...]:
    mix = []
    for part in text.split(","):
        kind, sep, weight = part.strip().partition("=")
        if not kind:
            continue
        mix.append((kind, int(weight) if sep else 1))
    return tuple(mix)


def _loadgen(args) -> int:
    import asyncio

    from repro.serve import (
        InterferenceServer,
        LoadGenConfig,
        ServeConfig,
        run_loadgen,
    )

    config = LoadGenConfig(
        n_requests=args.requests,
        mode=args.mode,
        concurrency=args.concurrency,
        rate_rps=args.rate,
        seed=args.seed,
        mix=_parse_mix(args.mix),
        n_nodes=args.n_nodes,
        deadline_ms=args.deadline_ms,
        slo_p99_ms=args.slo_p99_ms,
    )

    async def _run():
        server = None
        host, port = args.host, args.port
        try:
            if args.self_host:
                server = InterferenceServer(ServeConfig(
                    port=0,
                    workers=args.workers,
                    executor=args.executor,
                    batch_max_size=args.batch_max,
                ))
                await server.start()
                host, port = server.host, server.port
                print(f"loadgen: self-hosted server on {host}:{port}")
            return await run_loadgen(config, host=host, port=port)
        finally:
            if server is not None:
                await server.stop()

    report = asyncio.run(_run())
    print(report.render())
    if args.json is not None:
        args.json.parent.mkdir(parents=True, exist_ok=True)
        args.json.write_text(json.dumps(report.to_jsonable(), indent=2))
        print(f"  wrote {args.json}")
    return 0 if report.slo_met else 1


def _sweep(args, experiments) -> int:
    from repro.runner import ResultCache, expand_grid, run_sweep

    ids = args.experiments or sorted(experiments.REGISTRY)
    for eid in ids:
        experiments.get(eid)  # fail fast on unknown ids
    params: dict[str, list] = {}
    for key, values in (_parse_param(p) for p in args.param):
        params.setdefault(key, []).extend(values)
    tasks = expand_grid(
        ids, params=params, n_seeds=args.seeds, base_seed=args.base_seed
    )
    cache = None if args.no_cache else ResultCache(args.cache_dir)

    def progress(record):
        tag = "hit " if record.cache_hit else "miss"
        extra = f" [{record.status}]" if record.status != "ok" else ""
        kw = f" {record.kwargs}" if record.kwargs else ""
        print(
            f"  [{tag}] {record.experiment_id}{kw} "
            f"{record.wall_time_s:.3f}s (worker {record.worker_id}){extra}"
        )

    import contextlib

    from repro import obs

    with contextlib.ExitStack() as stack:
        if args.trace_out is not None:
            stack.enter_context(obs.capture())
        try:
            outcome = run_sweep(
                tasks,
                workers=args.workers,
                cache=cache,
                force=args.force,
                manifest_path=args.manifest,
                progress=progress,
                task_timeout_s=args.task_timeout,
            )
        except KeyboardInterrupt:
            print(
                "sweep: interrupted — outstanding tasks cancelled, partial "
                f"manifest flushed to {args.manifest}",
                file=sys.stderr,
            )
            return 130
    if args.trace_out is not None:
        path = obs.write_trace_jsonl(args.trace_out, obs.snapshot())
        print(f"  trace: {path}")
    manifest = outcome.manifest
    if args.json_dir is not None:
        args.json_dir.mkdir(parents=True, exist_ok=True)
        seen: dict[str, int] = {}
        for result in outcome.results:
            k = seen.get(result.experiment_id, 0)
            seen[result.experiment_id] = k + 1
            suffix = f".{k}" if k else ""
            path = args.json_dir / f"{result.experiment_id}{suffix}.json"
            path.write_text(result.to_json())
            print(f"  wrote {path}")
    if args.render:
        for result in outcome.results:
            print(result.render())
            print()
    print(
        f"sweep: {manifest.n_tasks} task(s), {manifest.n_hits} cache hit(s), "
        f"{manifest.n_misses} miss(es), wall {manifest.wall_time_s:.2f}s "
        f"(task time {manifest.total_task_time_s:.2f}s, "
        f"workers {manifest.workers})"
    )
    if args.manifest is not None:
        print(f"  manifest: {args.manifest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

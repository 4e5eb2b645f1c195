"""Command-line interface: ``python -m repro <command>``.

Commands mirror the framework's steps:

* ``devices`` — list the FPGA catalog.
* ``models`` — list the model zoo.
* ``dse`` — explore a model on a device and print the selection.
* ``compile`` — compile a model and write program.bin / program.asm.
* ``simulate`` — run the cycle-approximate simulation end to end.
* ``serve`` — multi-shard batch serving over synthetic traffic.
* ``cache`` — inspect (``info``) or ``compact`` a ``--cache-dir``.
* ``emit-hls`` — write the HLS project for a DSE-selected design.
* ``experiments`` — regenerate a paper table/figure by name.

All model-evaluating commands share one
:class:`~repro.pipeline.session.PipelineSession`, so the DSE result,
compiled model and runtime are each computed once per invocation.
With ``--cache-dir`` the session is backed by an on-disk
:class:`~repro.pipeline.store.EvaluationStore`: layer estimates warm
from disk at startup and the newly computed delta is flushed when the
command finishes, so repeated invocations over the model zoo skip the
analytical model almost entirely.
"""

from __future__ import annotations

import argparse
import importlib
import sys
from pathlib import Path

from repro.compiler import CompilerOptions
from repro.dse.space import ESTIMATORS, EXECUTORS, OBJECTIVES, DseOptions
from repro.errors import ReproError
from repro.estimator import estimate_resources
from repro.fpga import DEVICES, get_device
from repro.hls import HlsConfig, emit_project
from repro.ir import zoo
from repro.isa import disassemble
from repro.pipeline import EvaluationStore, PipelineSession


def _cmd_devices(_args) -> int:
    for name in sorted(DEVICES):
        print(f"{name:10s} {DEVICES[name]}")
    return 0


def _cmd_models(_args) -> int:
    for name in sorted(zoo.MODELS):
        net = zoo.get_model(name)
        print(
            f"{name:12s} {len(net)} layers, "
            f"{net.total_macs / 1e9:.2f} GMACs, input {net.input_shape}"
        )
    return 0


def _session(args) -> PipelineSession:
    """One shared pipeline session for the model-evaluating commands.

    Model / device specs are resolved by the session itself (zoo name or
    JSON path, catalog name).
    """
    options = DseOptions(
        objective=args.objective,
        max_instances=args.max_instances,
        top_k=getattr(args, "top_k", 5),
        jobs=getattr(args, "jobs", 1),
        executor=getattr(args, "executor", "serial"),
        estimator=getattr(args, "estimator", "scalar"),
    )
    return PipelineSession(
        args.model,
        get_device(args.device),
        options,
        compiler_options=CompilerOptions(quantize=not args.exact),
        seed=args.seed,
        store=args.cache_dir,
    )


def _cmd_dse(args) -> int:
    with _session(args) as session:
        result = session.dse()
        print(result.summary())
        util = result.total.utilisation(session.device.resources)
        print("utilisation: " + ", ".join(
            f"{k} {v * 100:.1f}%" for k, v in util.items()
        ))
        if args.verbose:
            print("\nper-layer mapping:")
            for m in result.mapping:
                print(f"  {m.layer_name:14s} {m.mode}-{m.dataflow}")
            print(
                f"\nevaluated {result.candidates_evaluated}, pruned "
                f"{result.candidates_pruned} of "
                f"{result.candidates_considered} candidates"
            )
            if result.cache_stats is not None:
                print(f"cache: {result.cache_stats.describe()}")
            if session.store is not None:
                session.close()  # flush before reporting the counters
                print(session.store.describe())
    return 0


def _cmd_compile(args) -> int:
    with _session(args) as session:
        compiled = session.compiled()
    out = Path(args.output)
    out.mkdir(parents=True, exist_ok=True)
    for index, program in enumerate(compiled.programs()):
        stem = f"program{index}" if index else "program"
        program.save(out / f"{stem}.bin")
        (out / f"{stem}.asm").write_text(disassemble(program))
    print(
        f"wrote {compiled.total_instructions} instructions across "
        f"{len(compiled.programs())} segment(s) to {out}"
    )
    return 0


def _cmd_simulate(args) -> int:
    with _session(args) as session:
        network = session.network
        sim = session.simulate(functional=args.functional)
    ops = sum(i.ops for i in network.compute_layers())
    print(
        f"{network.name} on {session.device.name}: "
        f"{sim.seconds * 1e3:.2f} ms/image/instance, "
        f"{ops / sim.seconds / 1e9 * session.cfg.instances:.1f} GOPS "
        f"aggregate, {sim.instructions} instructions"
    )
    for name, stats in sim.modules.items():
        print(f"  {name:9s} {stats.utilisation(sim.cycles) * 100:5.1f}% busy")
    return 0


def _serve_session(args) -> PipelineSession:
    """The session one shard pool replicates.

    Defaults to the paper's pinned Section-6.1 configuration when the
    device has one (fast, and the config Table 4 reports); ``--dse``,
    an explicit DSE knob (``--objective`` / ``--max-instances``), or a
    device without a paper config runs the full DSE instead — a pinned
    configuration must never silently override what the user asked the
    DSE to optimise.
    """
    from repro.errors import DeviceError
    from repro.experiments.common import paper_config

    compiler_options = CompilerOptions(quantize=not args.exact,
                                       pack_data=False)
    wants_dse = args.dse or (
        args.objective != "throughput" or args.max_instances is not None
    )
    if wants_dse and not args.dse:
        print("DSE knobs given (--objective/--max-instances): running "
              "the DSE instead of the paper configuration")
    if not wants_dse:
        try:
            cfg, device = paper_config(args.device)
            return PipelineSession(
                args.model, device, cfg=cfg,
                compiler_options=compiler_options,
                seed=args.seed, store=args.cache_dir,
            )
        except DeviceError:
            pass  # no paper config for this device: fall back to DSE
    options = DseOptions(
        objective=args.objective,
        max_instances=args.max_instances,
    )
    return PipelineSession(
        args.model, get_device(args.device), options,
        compiler_options=compiler_options,
        seed=args.seed, store=args.cache_dir,
    )


def _parse_autoscale(args):
    """``--autoscale min:max`` (+ targets) -> bounds or ``None``.

    Only the cheap spec parsing happens here — the options object
    needs pool-derived defaults (tick/warm-up from the batch service
    time), so it is built in :func:`_autoscale_options` after the
    session is paid for.
    """
    from repro.errors import ServingError

    if args.autoscale is None:
        if args.target_util is not None or args.target_p99 is not None:
            raise ServingError(
                "--target-util/--target-p99 need --autoscale min:max"
            )
        return None
    head, sep, tail = args.autoscale.partition(":")
    try:
        bounds = (int(head), int(tail)) if sep else (int(head), int(head))
    except ValueError:
        raise ServingError(
            f"--autoscale expects min:max shard counts, "
            f"got {args.autoscale!r}"
        ) from None
    if bounds[0] < 1 or bounds[0] > bounds[1]:
        raise ServingError(
            f"--autoscale bounds must satisfy 1 <= min <= max, "
            f"got {bounds[0]}:{bounds[1]}"
        )
    targets = (args.target_util, args.target_p99)
    if sum(t is not None for t in targets) != 1:
        raise ServingError(
            "--autoscale needs exactly one of --target-util "
            "and --target-p99"
        )
    if args.scenario:
        raise ServingError(
            "--autoscale and --scenario both drive shard up/down "
            "events; run them separately"
        )
    return bounds


def _autoscale_options(args, bounds, pool, max_batch):
    """Autoscaler options with pool-derived timescale defaults."""
    from repro.serving import AutoscalerOptions

    # One batch service time on the fastest shard: the natural control
    # timescale of this pool.
    batch_s = min(
        shard.probe_service_seconds(max_batch) for shard in pool
    )
    warmup_s = (
        args.warmup * 1e-3 if args.warmup is not None else batch_s
    )
    tick_s = (
        args.autoscale_tick * 1e-3
        if args.autoscale_tick is not None else batch_s
    )
    if args.warmup is None:
        print(f"warmup not given: using {warmup_s * 1e3:.2f} ms "
              "(one batch service time)")
    return AutoscalerOptions(
        min_shards=bounds[0],
        max_shards=bounds[1],
        target_utilisation=args.target_util,
        target_p99_s=(
            args.target_p99 * 1e-3 if args.target_p99 is not None else None
        ),
        warmup_s=warmup_s,
        tick_s=tick_s,
        cooldown_s=(
            args.cooldown * 1e-3 if args.cooldown is not None else None
        ),
    )


def _cmd_serve(args) -> int:
    from repro.errors import ServingError
    from repro.serving import (
        ShardPool,
        SloOptions,
        parse_scenario,
        parse_tenants,
    )

    # Parse the cheap, error-prone options before paying for the
    # session: a bad spec should fail before DSE/compilation.  The
    # chaos grammar is a superset of the legacy kill/restore one, and
    # legacy specs compile to event-identical runs (the oracle tests).
    scenario = (
        parse_scenario(args.scenario, seed=args.seed)
        if args.scenario else None
    )
    _parse_serve_shapes(args)
    slo = (
        SloOptions(p99_target_s=args.slo_p99 * 1e-3,
                   action=args.slo_action)
        if args.slo_p99 is not None else None
    )
    tenants = parse_tenants(args.tenant) if args.tenant else None
    if args.strict_slo and slo is None and not (
        tenants is not None and tenants.slo_targets()
    ):
        raise ServingError(
            "--strict-slo needs a target to enforce: pass --slo-p99 "
            "and/or a --tenant with :p99="
        )
    autoscale_bounds = _parse_autoscale(args)
    session = _serve_session(args)
    shards = args.shards
    if autoscale_bounds is not None:
        shards = autoscale_bounds[1]  # replicate the pool to max
    pool = ShardPool.replicate(session, shards)
    try:
        return _run_serve(
            args, pool, scenario, slo, autoscale_bounds, tenants
        )
    finally:
        # Always flush a store-backed session, even when the serve run
        # itself fails (e.g. a scenario naming an unknown shard) — the
        # DSE/compile work is already paid and worth persisting.
        pool.close()


def _parse_serve_shapes(args):
    """Validate ``--shape`` specs early and reject unusable combos."""
    from repro.errors import ServingError
    from repro.serving import parse_shape

    shapes = [parse_shape(spec) for spec in (args.shape or [])]
    if shapes and args.closed_loop is not None:
        raise ServingError(
            "--shape warps pre-materialised arrivals; closed-loop "
            "arrivals depend on completions, so there is nothing to "
            "warp — drop --shape or --closed-loop"
        )
    return shapes


def _write_profile(profiler, path, top: int = 25) -> None:
    """Dump the ``top`` cumulative-time rows of a cProfile run as JSON.

    The tuple layout mirrors ``pstats``: stats map
    ``(file, line, func) -> (primitive calls, ncalls, tottime,
    cumtime, callers)``.  Rows are ordered by descending cumulative
    time with the location as a deterministic tie-break.
    """
    import json
    import pstats

    stats = pstats.Stats(profiler)
    rows = [
        {
            "function": func,
            "file": file,
            "line": line,
            "ncalls": ncalls,
            "primitive_calls": primitive,
            "tottime": tottime,
            "cumtime": cumtime,
        }
        for (file, line, func), (primitive, ncalls, tottime, cumtime, _)
        in stats.stats.items()
    ]
    rows.sort(key=lambda row: (-row["cumtime"], row["file"],
                               row["line"], row["function"]))
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(rows[:top], indent=2) + "\n")


def _run_serve(
    args, pool, scenario, slo, autoscale_bounds=None, tenants=None
) -> int:
    from repro.serving import (
        BatcherOptions,
        ClosedLoopClientPool,
        Request,
        ShardServer,
        TraceSource,
        WorkloadSpec,
        analytical_reference,
        assign_tenants,
        make_requests,
        shape_arrivals,
        shaped_trace,
    )

    shapes = _parse_serve_shapes(args)
    if args.trace is not None:
        if args.closed_loop is not None:
            from repro.errors import ServingError

            raise ServingError(
                "--trace and --closed-loop are both complete traffic "
                "sources; pick one"
            )
        traffic = TraceSource.load(
            args.trace, time_scale=args.trace_scale, loop=args.trace_loop
        )
        if shapes:
            traffic = shaped_trace(traffic, shapes)
        traffic_label = traffic.describe()
    elif args.closed_loop is not None:
        # Closed loop: N clients, each re-issuing one think time after
        # its previous request completes — arrivals depend on
        # completions, so qps is an outcome, not an input.
        traffic = ClosedLoopClientPool(
            clients=args.closed_loop,
            requests=args.requests,
            think_time_s=args.think_time * 1e-3,
            distribution=args.think_dist,
            seed=args.seed,
            tenants=tenants,
        )
        traffic_label = (
            f"closed-loop: {args.closed_loop} clients, "
            f"{args.think_time:.1f} ms {args.think_dist} think"
        )
    else:
        qps = args.qps
        if qps is None and args.traffic != "uniform":
            # Auto-saturate: 2x the pool's analytical service rate
            # keeps every shard busy without drowning the tail in
            # queueing delay.
            qps = 2.0 * pool.capacity_images_per_second()
            print(f"qps not given: saturating at {qps:.1f} req/s "
                  "(2x analytical pool capacity)")
        traffic = make_requests(
            args.traffic, args.requests, qps=qps, seed=args.seed,
            burst=args.burst,
        )
        traffic_label = f"{args.traffic} traffic"
        if shapes:
            warped = shape_arrivals(
                [request.arrival for request in traffic], shapes
            )
            traffic = [
                Request(index=request.index, arrival=arrival)
                for request, arrival in zip(traffic, warped)
            ]
            traffic_label += " + " + ", ".join(
                shape.describe() for shape in shapes
            )
        if tenants is not None:
            # Weight-proportional interleaved tagging keeps the
            # arrival sequence itself unchanged.
            traffic = assign_tenants(traffic, tenants)
    max_batch = args.max_batch
    if max_batch is None:
        # A batch occupies one shard's NI batch-parallel instances, so
        # the natural batch size is the (largest) instance count: a
        # bigger batch serialises extra rounds, a smaller one idles
        # instances.
        max_batch = max(shard.instances for shard in pool)
        print(f"max-batch not given: using {max_batch} "
              "(shard instance count)")
    autoscale = (
        _autoscale_options(args, autoscale_bounds, pool, max_batch)
        if autoscale_bounds is not None else None
    )
    spec = WorkloadSpec(
        traffic=traffic,
        policy=args.policy,
        batcher=BatcherOptions(max_batch=max_batch,
                               max_wait_s=args.max_wait_ms * 1e-3),
        tenants=tenants,
        slo=slo,
        autoscale=autoscale,
        scenario=scenario,
        engine=args.engine,
        max_events=args.event_budget,
    )
    server = ShardServer(pool)
    profile = getattr(args, "profile", None)
    if profile is not None:
        import cProfile

        profiler = cProfile.Profile()
        profiler.enable()
        try:
            report = server.run(spec)
        finally:
            profiler.disable()
        _write_profile(profiler, Path(profile))
        print(f"profile written to {profile}")
    else:
        report = server.run(spec)
    print(f"pool ({args.policy}, {traffic_label}):")
    print(pool.describe())
    if scenario is not None:
        print(f"scenario: {scenario.describe()}")
    print()
    print(report.describe())
    print(f"  engine: {server.last_engine}")
    if server.last_slo_controller is not None:
        print(f"  {server.last_slo_controller.describe()}")
    if server.last_autoscaler is not None:
        print(f"  {server.last_autoscaler.describe()}")
    if (
        args.closed_loop is None and scenario is None and slo is None
        and autoscale is None and args.trace is None
        and tenants is None
    ):
        # The BatchRunner cross-check only measures the same quantity
        # when every request is served on the full pool.
        reference = analytical_reference(pool, args.requests)
        reference_gops = report.total_ops / reference / 1e9
        ratio = report.throughput_gops / reference_gops
        print(
            f"  BatchRunner analytical reference: "
            f"{reference_gops:.1f} GOPS "
            f"(serve/reference = {ratio:.3f})"
        )
    if args.report_json is not None:
        import json

        out = Path(args.report_json)
        out.parent.mkdir(parents=True, exist_ok=True)
        payload = {**report.to_dict(), "engine": server.last_engine}
        out.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"report written to {out}")
    if getattr(args, "strict_slo", False):
        misses = _slo_misses(report, slo)
        if misses:
            for miss in misses:
                print(f"STRICT-SLO MISS: {miss}")
            return 1
        print("strict-slo: all latency targets met")
    return 0


def _slo_misses(report, slo) -> list:
    """Every way this run missed a latency target (empty = all met).

    Covers the degenerate case the report's describe() now calls out:
    when *every* request was shed there are no completions, so the p99
    was never evaluated — under ``--strict-slo`` that counts as a miss,
    not a silent pass.
    """
    misses = []
    if slo is not None:
        if not report.records:
            if report.shed:
                misses.append(
                    "all requests shed: the global p99 target "
                    f"{slo.p99_target_s * 1e3:.2f} ms was never "
                    "evaluated"
                )
        elif report.latency_percentile(99) > slo.p99_target_s:
            misses.append(
                f"global p99 "
                f"{report.latency_percentile(99) * 1e3:.2f} ms > "
                f"target {slo.p99_target_s * 1e3:.2f} ms"
            )
    for name, target in sorted(report.tenant_slo_targets.items()):
        breakdown = report.per_tenant().get(name)
        if breakdown is None or breakdown.issued == 0:
            continue
        if breakdown.count == 0:
            misses.append(
                f"tenant {name}: every issued request shed, p99 "
                f"target {target * 1e3:.2f} ms never evaluated"
            )
        elif breakdown.p99_latency_s > target:
            misses.append(
                f"tenant {name}: p99 "
                f"{breakdown.p99_latency_s * 1e3:.2f} ms > target "
                f"{target * 1e3:.2f} ms"
            )
    return misses


def _cmd_sweep(args) -> int:
    from repro.serving import SweepGrid, SweepOptions, run_sweep

    # Grid construction validates every scenario spec and policy name,
    # so a bad sweep fails here — before the session pays for
    # DSE/compilation, and before any worker process spawns.
    grid = SweepGrid(
        scenarios=_split_specs(args.scenarios, ";", "--scenarios"),
        policies=_split_specs(args.policies, ",", "--policies"),
        pool_sizes=_parse_pools(args.pools),
    )
    options = SweepOptions(
        executor=args.executor,
        jobs=args.jobs,
        requests=args.requests,
        traffic=args.traffic,
        load_factor=args.load_factor,
        burst=args.burst,
        max_batch=args.max_batch,
        max_wait_s=args.max_wait_ms * 1e-3,
        slo_p99_s=(
            args.slo_p99 * 1e-3 if args.slo_p99 is not None else None
        ),
        slo_action=args.slo_action,
        shapes=tuple(args.shape or ()),
        trace=args.trace,
        trace_scale=args.trace_scale,
        trace_loop=args.trace_loop,
        event_budget=args.event_budget,
    )
    session = _serve_session(args)
    try:
        report = run_sweep(session, grid, options, seed=args.seed)
    finally:
        session.close()
    print(report.describe())
    if args.report_json is not None:
        out = Path(args.report_json)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(report.to_json() + "\n")
        print(f"report written to {out}")
    return 0


def _cmd_plan(args) -> int:
    from repro.planning import PlanOptions, plan_capacity

    options = PlanOptions(
        slo_p99_s=args.slo_p99 * 1e-3,
        rate=args.rate,
        requests=args.requests,
        traffic=args.traffic,
        burst=args.burst,
        trace=args.trace,
        trace_scale=args.trace_scale,
        trace_loop=args.trace_loop,
        top_k=args.top_k,
        executor=args.executor,
        jobs=args.jobs,
        policy=args.policy,
        max_wait_s=(
            args.max_wait_ms * 1e-3
            if args.max_wait_ms is not None else None
        ),
        batch_options=tuple(args.batch) if args.batch else None,
        seed=args.seed,
        event_budget=args.event_budget,
    )
    plan = plan_capacity(
        args.model, args.devices, options, store=args.cache_dir
    )
    print(plan.describe())
    if args.report_json is not None:
        out = Path(args.report_json)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(plan.to_json(indent=2) + "\n")
        print(f"report written to {out}")
    return 0


def _split_specs(raw, separator, flag):
    """Split a CLI list flag, rejecting the empty list early."""
    from repro.errors import ServingError

    specs = [spec.strip() for spec in raw.split(separator)]
    specs = [spec for spec in specs if spec]
    if not specs:
        raise ServingError(f"{flag} must list at least one entry")
    return specs


def _parse_pools(raw):
    from repro.errors import ServingError

    try:
        return [int(spec) for spec in _split_specs(raw, ",", "--pools")]
    except ValueError:
        raise ServingError(
            f"--pools expects comma-separated shard counts, got {raw!r}"
        ) from None


def _cmd_cache_info(args) -> int:
    store = EvaluationStore(args.dir)
    summaries, estimates, partitions = store.inspect()
    if not summaries:
        print(f"cache dir {store.path}: empty (no segments)")
        return 0
    stored = sum(s.entries for s in summaries if s.readable)
    unreadable = sum(1 for s in summaries if not s.readable)
    size = sum(s.size_bytes for s in summaries)
    # A warm load serves exactly the first-writer-wins merge `inspect`
    # already computed — `unique` entries of the `stored` total.
    unique = len(estimates) + len(partitions)
    print(
        f"cache dir {store.path}: {len(summaries)} segment(s), "
        f"{size / 1024:.1f} KiB"
    )
    print(
        f"  {len(estimates)} estimate + {len(partitions)} partition "
        f"entries ({unique} unique of {stored} stored)"
    )
    print(
        f"  warm load: {unique} entries into a fresh cache "
        f"({unique / stored * 100:.1f}% of stored entries useful)"
        if stored else "  warm load: nothing readable"
    )
    if unreadable:
        print(f"  {unreadable} unreadable segment(s) skipped")
    if len(summaries) > 1:
        print(f"  `repro cache compact {args.dir}` would merge "
              f"{len(summaries)} segments into 1")
    return 0


def _cmd_cache_compact(args) -> int:
    store = EvaluationStore(args.dir)
    before = len(store.segments())
    removed = store.compact()
    if removed == 0:
        print(f"cache dir {store.path}: nothing to compact "
              f"({before} segment(s))")
        return 0
    _, estimates, partitions = store.inspect()
    print(
        f"cache dir {store.path}: merged {removed} segments into 1 "
        f"({len(estimates)} estimate + {len(partitions)} partition "
        "entries)"
    )
    return 0


def _cmd_emit_hls(args) -> int:
    with _session(args) as session:
        files = emit_project(
            HlsConfig.from_config(
                session.cfg, session.device, session.network.name
            ),
            args.output,
        )
    resources = estimate_resources(
        session.cfg, session.device, session.calibration
    )
    print(f"design: {session.cfg.describe()}")
    print(f"estimated resources: {resources}")
    for name, path in files.items():
        print(f"wrote {name}: {path}")
    return 0


def _study(module: str, seeded: bool = False):
    """A ``repro experiments`` runner: ``repro.experiments.<module>``'s
    ``main``, imported only when the study runs."""

    def run(args):
        main = importlib.import_module(f"repro.experiments.{module}").main
        return main(seed=args.seed) if seeded else main()

    return run


def _figure6(args):
    from repro.experiments import figure6

    return figure6.main("vu9p"), figure6.main("pynq-z1")


def _tenants(args):
    from repro.experiments import tenants_study

    return tenants_study.main(seed=args.seed, report_json=args.report_json)


#: ``repro experiments <name>``: every registered study.  The help text
#: and the unknown-name error are generated from these keys.
EXPERIMENTS = {
    "table3": _study("table3"),
    "table4": _study("table4"),
    "figure6": _figure6,
    "estimation-error": _study("estimation_error"),
    "overhead": _study("overhead"),
    "vgg16-case": _study("vgg16_case"),
    "ablation": _study("ablation"),
    "scalability": _study("scalability"),
    "roofline": _study("roofline_study"),
    "instruction-stats": _study("instruction_stats"),
    "serving": _study("serving_study", seeded=True),
    "scenarios": _study("scenario_study", seeded=True),
    "autoscale": _study("autoscale_study", seeded=True),
    "chaos": _study("chaos_study", seeded=True),
    "plan": _study("planning_study", seeded=True),
    "tenants": _tenants,
}


def _cmd_experiments(args) -> int:
    if args.name not in EXPERIMENTS:
        print(f"unknown experiment {args.name!r}; "
              f"available: {sorted(EXPERIMENTS)}", file=sys.stderr)
        return 2
    EXPERIMENTS[args.name](args)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="HybridDNN reproduction command line",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("devices", help="list FPGA catalog").set_defaults(
        func=_cmd_devices
    )
    sub.add_parser("models", help="list model zoo").set_defaults(
        func=_cmd_models
    )

    def add_common(p):
        p.add_argument("--device", default="pynq-z1",
                       help="FPGA catalog name")
        p.add_argument("--model", default="vgg16",
                       help="zoo model name or model JSON path")
        p.add_argument("--objective", default="throughput",
                       choices=OBJECTIVES)
        p.add_argument("--max-instances", type=int, default=None)
        p.add_argument("--seed", type=int, default=2020)
        p.add_argument("--exact", action="store_true",
                       help="disable fixed-point quantisation")
        p.add_argument("--cache-dir", default=None, dest="cache_dir",
                       help="persist layer estimates here across "
                            "invocations (warm start + flush on exit)")

    p = sub.add_parser("dse", help="run design space exploration")
    add_common(p)
    p.add_argument("--jobs", type=int, default=1,
                   help="parallel candidate evaluations")
    p.add_argument("--executor", default="serial",
                   choices=EXECUTORS,
                   help="evaluation backend for --jobs > 1 "
                        "(process scales on GIL builds)")
    p.add_argument("--estimator", default="scalar", choices=ESTIMATORS,
                   help="candidate evaluation backend: the scalar "
                        "per-layer model or the numpy batch model "
                        "(same selection, faster sweeps)")
    p.add_argument("--top-k", type=int, default=5, dest="top_k",
                   help="number of ranked designs to keep")
    p.add_argument("-v", "--verbose", action="store_true")
    p.set_defaults(func=_cmd_dse)

    p = sub.add_parser("compile", help="compile to instruction stream")
    add_common(p)
    p.add_argument("-o", "--output", default="build")
    p.set_defaults(func=_cmd_compile)

    p = sub.add_parser("simulate", help="simulate end to end")
    add_common(p)
    p.add_argument("--functional", action="store_true",
                   help="move real data (slower)")
    p.set_defaults(func=_cmd_simulate)

    from repro.serving.scheduler import POLICIES
    from repro.serving.traffic import TRAFFIC_MODELS

    p = sub.add_parser(
        "serve", help="multi-shard batch serving over synthetic traffic"
    )
    add_common(p)
    p.add_argument("--shards", type=int, default=2,
                   help="identical shards replicated from one session")
    p.add_argument("--policy", default="round-robin", choices=POLICIES)
    p.add_argument("--traffic", default="uniform", choices=TRAFFIC_MODELS)
    p.add_argument("--requests", type=int, default=64,
                   help="synthetic requests to serve")
    p.add_argument("--qps", type=float, default=None,
                   help="arrival rate for open-loop traffic "
                        "(default: 2x pool capacity)")
    p.add_argument("--burst", type=int, default=8,
                   help="burst size for --traffic burst")
    p.add_argument("--max-batch", type=int, default=None,
                   dest="max_batch",
                   help="dynamic batcher: max requests per batch "
                        "(default: the shard instance count)")
    p.add_argument("--max-wait-ms", type=float, default=0.0,
                   dest="max_wait_ms",
                   help="dynamic batcher: max wait of the oldest "
                        "queued request")
    p.add_argument("--closed-loop", type=int, default=None,
                   metavar="CLIENTS", dest="closed_loop",
                   help="closed-loop client pool of this many clients "
                        "(--requests bounds the total issued; "
                        "overrides --traffic/--qps)")
    p.add_argument("--think-time", type=float, default=0.0,
                   metavar="MS", dest="think_time",
                   help="closed-loop client think time in ms")
    from repro.serving.traffic import THINK_DISTRIBUTIONS
    p.add_argument("--think-dist", default="fixed",
                   choices=THINK_DISTRIBUTIONS, dest="think_dist",
                   help="closed-loop think-time distribution")
    p.add_argument("--slo-p99", type=float, default=None,
                   metavar="MS", dest="slo_p99",
                   help="latency SLO: target p99 in ms; the controller "
                        "sheds/reroutes while the windowed estimate "
                        "exceeds it")
    from repro.serving.slo import SLO_ACTIONS
    p.add_argument("--slo-action", default="shed", choices=SLO_ACTIONS,
                   dest="slo_action",
                   help="what to do while the SLO is breached")
    p.add_argument("--strict-slo", action="store_true",
                   dest="strict_slo",
                   help="exit nonzero when a latency SLO (global or "
                        "per-tenant) is missed — including the "
                        "degenerate all-requests-shed case")
    p.add_argument("--tenant", action="append", default=None,
                   metavar="SPEC",
                   help="register a tenant; repeatable.  SPEC is "
                        "NAME[:weight=W][:tier=interactive|batch]"
                        "[:p99=MS][:cap=N].  Open-loop traffic is "
                        "split across tenants by weight; traces tag "
                        "via their 'tenant' column; closed-loop "
                        "clients split into per-tenant groups")
    p.add_argument("--scenario", default=None,
                   help="chaos scenario (virtual seconds), e.g. "
                        "'kill:shard0@0.05,restore@0.12', "
                        "'degrade:shard0@0.01..0.05x4', "
                        "'outage:shard0+shard1@0.02..0.04', "
                        "'stragglers:shard0+shard1@0..0.1x3*4'")
    p.add_argument("--shape", action="append", default=None,
                   metavar="SPEC",
                   help="warp open-loop/trace arrivals by a traffic "
                        "shape; repeatable, e.g. 'diurnal:0.5x0.2' or "
                        "'flash:3@0.05~0.01'")
    p.add_argument("--autoscale", default=None, metavar="MIN:MAX",
                   help="elastic pool bounds; the pool is replicated "
                        "to MAX and the autoscaler drives it against "
                        "--target-util or --target-p99 "
                        "(--shards is ignored)")
    p.add_argument("--target-util", type=float, default=None,
                   metavar="FRACTION", dest="target_util",
                   help="autoscaler target: windowed busy fraction "
                        "of the active shards, in (0, 1]")
    p.add_argument("--target-p99", type=float, default=None,
                   metavar="MS", dest="target_p99",
                   help="autoscaler target: windowed p99 latency in ms")
    p.add_argument("--warmup", type=float, default=None, metavar="MS",
                   help="modeled warm-up of a scaled-up shard "
                        "(default: one batch service time)")
    p.add_argument("--cooldown", type=float, default=None, metavar="MS",
                   help="min time between scale decisions "
                        "(default: two autoscaler ticks)")
    p.add_argument("--autoscale-tick", type=float, default=None,
                   metavar="MS", dest="autoscale_tick",
                   help="autoscaler control period "
                        "(default: one batch service time)")
    p.add_argument("--trace", default=None, metavar="FILE",
                   help="replay a CSV/JSONL arrival trace instead of "
                        "synthetic traffic (--requests is ignored)")
    p.add_argument("--trace-scale", type=float, default=1.0,
                   metavar="FACTOR", dest="trace_scale",
                   help="multiply trace inter-arrivals by this "
                        "(< 1 replays faster)")
    p.add_argument("--trace-loop", type=int, default=1, metavar="N",
                   dest="trace_loop",
                   help="repeat the trace N times back to back")
    p.add_argument("--report-json", default=None, metavar="PATH",
                   dest="report_json",
                   help="also write the ServingReport as JSON "
                        "(the CI artifact format)")
    p.add_argument("--event-budget", type=int, default=None,
                   metavar="N", dest="event_budget",
                   help="kernel runaway-loop budget (default 1M); "
                        "raise for large replays (~3 events/request)")
    from repro.serving.server import ENGINES
    p.add_argument("--engine", default="auto", choices=ENGINES,
                   help="replay engine: 'auto' fast-forwards eligible "
                        "plain open-loop runs, 'kernel' forces the "
                        "event kernel, 'fastforward' errors if the "
                        "run is ineligible")
    p.add_argument("--profile", default=None, metavar="PATH",
                   help="cProfile the serve and write the top-25 "
                        "cumulative-time stats to PATH as JSON")
    p.add_argument("--dse", action="store_true",
                   help="run the DSE instead of the paper configuration")
    p.set_defaults(func=_cmd_serve)

    from repro.serving.sweep import SWEEP_EXECUTORS

    p = sub.add_parser(
        "sweep",
        help="seeded scenario x policy x pool chaos grid, optionally "
             "across worker processes",
    )
    add_common(p)
    p.add_argument("--scenarios",
                   default="none;kill:shard0@0.005,restore@0.02",
                   help="';'-separated chaos specs ('none' = baseline; "
                        "specs use ',' internally)")
    p.add_argument("--policies", default="round-robin,least-loaded",
                   help="comma-separated scheduling policies")
    p.add_argument("--pools", default="2,3",
                   help="comma-separated shard pool sizes")
    p.add_argument("--requests", type=int, default=48,
                   help="open-loop requests per cell")
    p.add_argument("--traffic", default="poisson",
                   choices=TRAFFIC_MODELS)
    p.add_argument("--load-factor", type=float, default=1.5,
                   dest="load_factor",
                   help="arrival rate as a multiple of each cell "
                        "pool's simulated service rate")
    p.add_argument("--burst", type=int, default=8,
                   help="burst size for --traffic burst")
    p.add_argument("--max-batch", type=int, default=None,
                   dest="max_batch",
                   help="dynamic batcher: max requests per batch "
                        "(default: the shard instance count)")
    p.add_argument("--max-wait-ms", type=float, default=0.0,
                   dest="max_wait_ms",
                   help="dynamic batcher: max wait of the oldest "
                        "queued request")
    p.add_argument("--slo-p99", type=float, default=None,
                   metavar="MS", dest="slo_p99",
                   help="attainment target p99 in ms (default: 4 "
                        "batch service times per cell)")
    p.add_argument("--slo-action", default=None, choices=SLO_ACTIONS,
                   dest="slo_action",
                   help="arm an SLO controller in every cell "
                        "(default: observe only)")
    p.add_argument("--shape", action="append", default=None,
                   metavar="SPEC",
                   help="warp every cell's arrivals by a traffic "
                        "shape (composes onto --trace replays too); "
                        "repeatable")
    p.add_argument("--trace", default=None, metavar="PATH",
                   help="replay a recorded arrival trace in every "
                        "cell instead of synthetic traffic (ignores "
                        "--requests/--traffic/--load-factor/--burst)")
    p.add_argument("--trace-scale", type=float, default=1.0,
                   dest="trace_scale", metavar="FACTOR",
                   help="multiply trace inter-arrival times "
                        "(0.5 = replay twice as fast)")
    p.add_argument("--trace-loop", type=int, default=1,
                   dest="trace_loop", metavar="N",
                   help="repeat the trace N times back to back")
    p.add_argument("--executor", default="serial",
                   choices=SWEEP_EXECUTORS,
                   help="cell execution backend for --jobs > 1; both "
                        "executors produce byte-identical reports")
    p.add_argument("--jobs", type=int, default=1,
                   help="parallel worker processes")
    p.add_argument("--event-budget", type=int, default=None,
                   metavar="N", dest="event_budget",
                   help="per-cell kernel runaway-loop budget")
    p.add_argument("--report-json", default=None, metavar="PATH",
                   dest="report_json",
                   help="write the SweepReport as JSON "
                        "(the CI artifact format)")
    p.add_argument("--dse", action="store_true",
                   help="run the DSE instead of the paper configuration")
    p.set_defaults(func=_cmd_sweep)

    from repro.planning import PLAN_EXECUTORS

    p = sub.add_parser(
        "plan",
        help="two-tier fleet capacity planning: vectorized analytic "
             "scoring of the whole plan grid, event-kernel replay of "
             "the finalists",
    )
    p.add_argument("--model", default="vgg16",
                   help="zoo model name or model JSON path")
    p.add_argument("--devices", default="vu9p:0..4+pynq-z1:0..8",
                   help="fleet spec: '+'-separated "
                        "<device>:<min..max>[@weight] kinds "
                        "(weight defaults to the config's instance "
                        "count)")
    p.add_argument("--slo-p99", type=float, required=True,
                   metavar="MS", dest="slo_p99",
                   help="the SLO every plan must meet: target p99 "
                        "latency in ms")
    p.add_argument("--rate", type=float, default=None,
                   help="synthetic arrival rate in req/s (exactly one "
                        "of --rate / --trace)")
    p.add_argument("--requests", type=int, default=96,
                   help="synthetic requests to plan against")
    p.add_argument("--traffic", default="poisson",
                   choices=TRAFFIC_MODELS)
    p.add_argument("--burst", type=int, default=8,
                   help="burst size for --traffic burst")
    p.add_argument("--trace", default=None, metavar="FILE",
                   help="plan against a replayed CSV/JSONL arrival "
                        "trace instead of synthetic traffic")
    p.add_argument("--trace-scale", type=float, default=1.0,
                   metavar="FACTOR", dest="trace_scale",
                   help="multiply trace inter-arrivals by this")
    p.add_argument("--trace-loop", type=int, default=1, metavar="N",
                   dest="trace_loop",
                   help="repeat the trace N times back to back")
    p.add_argument("--top-k", type=int, default=5, dest="top_k",
                   help="surrogate survivors to verify by replay")
    p.add_argument("--policy", default="shortest-latency",
                   choices=POLICIES,
                   help="scheduling policy the replays (and the "
                        "recommended deployment) use")
    p.add_argument("--batch", action="append", type=int, default=None,
                   metavar="N",
                   help="candidate pool-wide max_batch (repeatable; "
                        "default: 1, each kind's instance count, and "
                        "2x the largest)")
    p.add_argument("--max-wait-ms", type=float, default=None,
                   metavar="MS", dest="max_wait_ms",
                   help="dynamic batcher: max wait of the oldest "
                        "queued request (default: two service rounds "
                        "of the slowest kind)")
    p.add_argument("--executor", default="serial",
                   choices=PLAN_EXECUTORS,
                   help="Tier B replay backend for --jobs > 1; both "
                        "produce byte-identical reports")
    p.add_argument("--jobs", type=int, default=1,
                   help="parallel replay worker processes")
    p.add_argument("--event-budget", type=int, default=None,
                   metavar="N", dest="event_budget",
                   help="per-replay kernel runaway-loop budget")
    p.add_argument("--seed", type=int, default=2020)
    p.add_argument("--cache-dir", default=None, dest="cache_dir",
                   help="persist layer estimates here across "
                        "invocations (warm start + flush on exit)")
    p.add_argument("--report-json", default=None, metavar="PATH",
                   dest="report_json",
                   help="write the ProvisioningPlan as JSON "
                        "(the CI artifact format)")
    p.set_defaults(func=_cmd_plan)

    p = sub.add_parser("cache",
                       help="inspect / compact an estimate cache dir")
    cache_sub = p.add_subparsers(dest="cache_command", required=True)
    pc = cache_sub.add_parser(
        "info", help="segment count, entry counts, warm-load dedup"
    )
    pc.add_argument("dir", help="cache directory (--cache-dir elsewhere)")
    pc.set_defaults(func=_cmd_cache_info)
    pc = cache_sub.add_parser(
        "compact", help="merge all segments into one"
    )
    pc.add_argument("dir", help="cache directory (--cache-dir elsewhere)")
    pc.set_defaults(func=_cmd_cache_compact)

    p = sub.add_parser("emit-hls", help="emit the HLS project")
    add_common(p)
    p.add_argument("-o", "--output", default="hls_project")
    p.set_defaults(func=_cmd_emit_hls)

    p = sub.add_parser("experiments", help="regenerate a paper artifact")
    p.add_argument("name", help="|".join(EXPERIMENTS))
    p.add_argument("--seed", type=int, default=2020,
                   help="traffic seed for the serving/scenarios/"
                        "autoscale/chaos/plan/tenants studies")
    p.add_argument("--report-json", default=None, metavar="PATH",
                   dest="report_json",
                   help="tenants study: also write the protected run's "
                        "schema-2 ServingReport as JSON (the CI "
                        "artifact format)")
    p.set_defaults(func=_cmd_experiments)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

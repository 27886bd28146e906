"""Command-line interface: ``sealpaa`` (or ``python -m repro``).

Mirrors the paper's open-source-library goal: every headline analysis is
one command away.

Sub-commands
------------
analyze   error probability of one chain at one probability point
sweep     error-vs-width curves for several cells (Fig. 5 style)
compare   analytical vs exhaustive vs Monte-Carlo cross-validation
simulate  budget-routed simulation (exhaustive -> Monte-Carlo fallback)
distribution  error-magnitude metrics (ED / MED / MRED / WCE) with
          their own exact-DP -> truncated-DP -> Monte-Carlo ladder
gear      GeAr(N, R, P) error analysis (DP + IE + MC)
hybrid    optimal hybrid chain search
power     calibrated power/area estimates (Table 2 style)
cells     list registered cells and their truth tables
obs       pretty-print saved metrics/trace/manifest files
serve     HTTP/JSON analysis service with micro-batching and a
          persistent result cache (see docs/serving.md)

Resilience
----------
Long-running subcommands (``compare``, ``simulate``, ``hybrid``) accept
``--deadline SECONDS`` (stop cleanly with a partial result flagged
truncated), ``--checkpoint PATH`` + ``--resume`` (crash-safe periodic
snapshots; a resumed Monte-Carlo run is bit-identical to an
uninterrupted one), and ``analyze`` accepts ``--validate`` (cross-check
the recursion against a budgeted simulation).  Ctrl-C flushes the
latest checkpoint and exits with status 130.

Observability
-------------
Every subcommand accepts ``--verbose`` (provenance header + structured
progress logs on stderr), ``--metrics-out PATH`` (JSON metrics snapshot
of the run) and ``--trace PATH`` (Chrome ``trace_event`` file loadable
in ``chrome://tracing`` / Perfetto).  On ``analyze``, a bare ``--trace``
keeps its historical meaning (print the per-stage Table-4-style trace);
give it a path to write the span trace instead.
"""

from __future__ import annotations

import argparse
import contextlib
import sys
from typing import Optional, Sequence

from . import __version__, engine, obs
from .core.adders import registry
from .core.hybrid import HybridChain
from .core.masking import chain_is_exact
from .core.stages import format_trace_table, trace_chain
from .reporting import ascii_table


def _probability(text: str) -> float:
    value = float(text)
    if not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError(f"probability out of [0,1]: {text}")
    return value


def _prob_list(text: str) -> object:
    """Scalar probability or comma-separated per-bit list."""
    if "," in text:
        return [_probability(chunk) for chunk in text.split(",") if chunk]
    return _probability(text)


def _budget_from_args(args):
    """Build a :class:`repro.runtime.RunBudget` from CLI flags (or None)."""
    deadline = getattr(args, "deadline", None)
    max_samples = getattr(args, "max_samples", None)
    max_cases = getattr(args, "max_cases", None)
    if deadline is None and max_samples is None and max_cases is None:
        return None
    from .runtime import RunBudget

    return RunBudget(deadline_s=deadline, max_samples=max_samples,
                     max_cases=max_cases)


def _chain_from_args(args) -> HybridChain:
    if getattr(args, "cells_file", None):
        from .io import load_cell_library

        load_cell_library(args.cells_file)
    if getattr(args, "spec", None):
        return HybridChain.from_spec(args.spec)
    if args.cell is None or args.width is None:
        raise SystemExit("either --spec or both --cell and --width required")
    return HybridChain.uniform(args.cell, args.width)


def _cmd_analyze(args) -> int:
    if getattr(args, "adder", None):
        return _analyze_adder(args)
    chain = _chain_from_args(args)
    if args.trace:
        result = trace_chain(list(chain.cells), None, args.pa, args.pb, args.pcin)
        print(format_trace_table(result))
    else:
        result = engine.run(chain, None, args.pa, args.pb, args.pcin)
    print(f"chain      : {chain.describe()}")
    print(f"P(Succ)    : {float(result.p_success):.6f}")
    print(f"P(Error)   : {float(result.p_error):.6f}")
    if not chain_is_exact(list(chain.cells)):
        print("note       : this chain can mask internal errors; the value")
        print("             above is an upper bound on the true P(Error).")
    if getattr(args, "validate", False):
        from .runtime import validate_against_simulation

        report = validate_against_simulation(
            list(chain.cells), None, args.pa, args.pb, args.pcin,
            analytical=float(result.p_error),
            budget=_budget_from_args(args),
        )
        lo, hi = report.interval
        print(f"validated  : simulation {report.estimate:.6f} "
              f"in [{lo:.6f}, {hi:.6f}] ({report.samples} samples"
              f"{', truncated' if report.truncated else ''})")
    return 0


def _analyze_adder(args) -> int:
    """``analyze --adder loa:16:8``: a named zoo config instead of a
    cell chain."""
    from .core.adder_zoo import parse_adder

    if args.trace:
        raise SystemExit("--trace applies to cell chains; named adders "
                         "have no per-stage trace")
    adder = parse_adder(args.adder)
    request = engine.AnalysisRequest.zoo(adder, p_a=args.pa, p_b=args.pb)
    result = engine.run(request=request, budget=_budget_from_args(args))
    print(f"adder      : {adder.describe()}")
    print(f"engine     : {result.engine}")
    print(f"P(Succ)    : {float(result.p_success):.6f}")
    print(f"P(Error)   : {float(result.p_error):.6f}")
    if getattr(args, "validate", False):
        sim = "zoo-mc" if request.block is not None else "montecarlo"
        mc = engine.run(request=request, engine=sim,
                        budget=_budget_from_args(args))
        line = f"validated  : simulation {float(mc.p_error):.6f}"
        if mc.interval is not None:
            lo, hi = mc.interval
            line += f" in [{lo:.6f}, {hi:.6f}]"
        if mc.samples:
            line += f" ({mc.samples} samples)"
        print(line)
    return 0


def _cmd_sweep(args) -> int:
    cells = args.cells or registry.names()
    rows = []
    for name in cells:
        curve = engine.error_curves(name, args.max_width, args.p, args.pcin)
        rows.append([name, *[float(v) for v in curve]])
    headers = ["Cell", *[f"N={n}" for n in range(1, args.max_width + 1)]]
    print(ascii_table(headers, rows, digits=args.digits,
                      title=f"P(Error) vs width at p = {args.p}"))
    return 0


def _cmd_compare(args) -> int:
    chain = _chain_from_args(args)
    request = engine.AnalysisRequest.chain(
        chain, None, args.pa, args.pb, args.pcin
    )
    analytical = engine.run(request).p_error
    rows = [["analytical (recursion)", float(analytical)]]
    exhaustive = engine.REGISTRY.get("exhaustive")
    if exhaustive.accepts(request):
        rows.append([
            "exhaustive (weighted enumeration)",
            engine.run(request, engine="exhaustive").p_error,
        ])
    mc = engine.run(
        request, engine="montecarlo",
        samples=args.samples, seed=args.seed,
        budget=_budget_from_args(args),
        checkpoint_path=getattr(args, "checkpoint", None),
        resume=getattr(args, "resume", False),
    )
    label = f"monte-carlo ({mc.samples} samples)"
    if mc.truncated:
        label += f" [truncated: {mc.stop_reason}]"
    rows.append([label, mc.p_error])
    print(ascii_table(["Method", "P(Error)"], rows, digits=6,
                      title=chain.describe()))
    return 0


def _cmd_simulate(args) -> int:
    """Budget-routed simulation: the strongest engine the budget affords."""
    chain = _chain_from_args(args)
    result = engine.run(
        chain, None, args.pa, args.pb, args.pcin, simulate=True,
        budget=_budget_from_args(args), samples=args.samples,
        seed=args.seed, checkpoint_path=getattr(args, "checkpoint", None),
        resume=getattr(args, "resume", False),
    )
    print(f"chain      : {chain.describe()}")
    print(f"engine     : {result.engine}  ({result.reason})")
    if result.degraded_from is not None:
        print(f"degraded   : from {result.degraded_from}")
    print(f"P(Error)   : {result.p_error:.6f}")
    unit = "samples" if result.engine == "montecarlo" else "cases"
    print(f"{unit:<11}: {getattr(result, unit)}")
    if result.truncated:
        print(f"truncated  : yes ({result.stop_reason})")
    if getattr(args, "save", None):
        from .io import save_result

        save_result(result.raw, args.save)
        print(f"saved      : {args.save}")
    return 0


def _cmd_distribution(args) -> int:
    """Error-magnitude analysis: how wrong, not just how often."""
    if getattr(args, "adder", None):
        from .core.adder_zoo import parse_adder

        adder = parse_adder(args.adder)
        request = engine.AnalysisRequest.zoo(
            adder, p_a=args.pa, p_b=args.pb, kind=args.kind
        )
        described = f"adder      : {adder.describe()}"
    else:
        chain = _chain_from_args(args)
        request = engine.AnalysisRequest.distribution(
            chain, None, args.pa, args.pb, args.pcin, kind=args.kind,
        )
        described = f"chain      : {chain.describe()}"
    result = engine.run(
        request=request, engine=args.engine,
        budget=_budget_from_args(args),
        samples=args.samples, seed=args.seed,
    )
    print(described)
    print(f"kind       : {result.kind}")
    line = f"engine     : {result.engine}"
    if result.reason:
        line += f"  ({result.reason})"
    print(line)
    if result.degraded_from is not None:
        print(f"degraded   : from {result.degraded_from}")
    print(f"exact      : {'yes' if result.exact else 'no (estimate)'}")
    rows = [["ER (P(Error))", f"{result.p_error:.6f}"]]
    labels = (("med", "MED  E[|D|]"), ("nmed", "NMED"),
              ("mse", "MSE  E[D^2]"), ("wce", "WCE  max|D|"),
              ("mred", "MRED"), ("bias", "bias E[D]"))
    for name, label in labels:
        value = getattr(result, name)
        if value is None:
            continue
        if name == "wce":
            rows.append([label, f"{int(value)}"])
        else:
            rows.append([label, f"{float(value):.6g}"])
    print(ascii_table(["Metric", "Value"], rows))
    if result.interval is not None:
        lo, hi = result.interval
        print(f"95% interval: [{lo:.6g}, {hi:.6g}] "
              f"({result.samples} samples)")
    if result.distribution is not None:
        top = sorted(result.distribution, key=lambda dp: -dp[1])
        top = top[: args.top]
        print(ascii_table(
            ["Delta", "Probability"],
            [[str(d), f"{p:.6g}"] for d, p in sorted(top)],
            title=f"top {len(top)} of {len(result.distribution)} "
                  "support points",
        ))
    return 0


def _cmd_zoo(args) -> int:
    """The adder-family zoo: catalog, quality table, Pareto filter."""
    from .core.adder_zoo import ZOO_FAMILIES, parse_adder, zoo_cost

    if args.families:
        rows = [[f.key, f.grammar, f.representation, f.source]
                for f in sorted(ZOO_FAMILIES.values(),
                                key=lambda f: f.key)]
        print(ascii_table(
            ["Family", "Config grammar", "Served as", "Source"],
            rows, title="adder-family zoo",
        ))
        return 0

    def fmt(value, digits=6):
        return "-" if value is None else f"{float(value):.{digits}g}"

    from .explore import sweep_zoo_space, zoo_pareto_front

    if args.adder:
        adder = parse_adder(args.adder)
        meta = ZOO_FAMILIES[adder.family]
        cost = zoo_cost(adder)
        (point,) = sweep_zoo_space(adder.n, adders=[adder], p=args.p,
                                   budget=_budget_from_args(args))
        print(f"adder      : {adder.describe()}")
        print(f"grammar    : {meta.grammar}")
        print(f"source     : {meta.source}")
        print(f"served as  : {meta.representation} "
              f"(engine {point.engine})")
        print(f"delay      : {cost.delay_units:g} unit-gate levels")
        print(f"area       : {cost.area_units:g} unit gates")
        print(f"P(Error)   : {point.p_error:.6f}")
        print(f"MED        : {fmt(point.med)}")
        print(f"WCE        : {fmt(point.wce)}")
        print(f"MRED       : {fmt(point.mred)}")
        return 0

    points = sweep_zoo_space(args.width, p=args.p,
                             budget=_budget_from_args(args))
    title = f"zoo at N={args.width}, p={args.p}"
    if args.pareto:
        points = zoo_pareto_front(points, tuple(args.objectives))
        title += f" (Pareto: {', '.join(args.objectives)})"
    rows = [[p.adder, p.representation, f"{p.p_error:.6f}",
             fmt(p.med), fmt(p.wce), fmt(p.mred),
             f"{p.delay_units:g}", f"{p.area_units:g}", p.engine]
            for p in points]
    print(ascii_table(
        ["Adder", "Repr", "ER", "MED", "WCE", "MRED",
         "Delay", "Area", "Engine"],
        rows, title=title,
    ))
    return 0


def _cmd_gear(args) -> int:
    from .core.adder_zoo import from_gear
    from .gear.analysis import (
        MAX_IE_SUBADDERS,
        gear_inclusion_exclusion,
        gear_subadder_error_probabilities,
    )
    from .gear.config import GeArConfig

    config = GeArConfig(args.n, args.r, args.p)
    print(config.describe())
    request = engine.AnalysisRequest.zoo(from_gear(config), args.pa, args.pb)
    dp = engine.run(request).p_error
    print(f"P(Error) [linear DP]     : {dp:.6f}")
    if config.num_subadders - 1 <= MAX_IE_SUBADDERS:
        ie = gear_inclusion_exclusion(config, args.pa, args.pb)
        print(
            f"P(Error) [inclusion-exc] : {ie.p_error:.6f} "
            f"({ie.terms_evaluated} terms)"
        )
    if args.samples:
        mc = engine.run(request, engine="zoo-mc",
                        samples=args.samples, seed=args.seed).p_error
        print(f"P(Error) [monte-carlo]   : {mc:.6f}")
    marginals = gear_subadder_error_probabilities(config, args.pa, args.pb)
    for i, marginal in enumerate(marginals, start=1):
        print(f"  P(sub-adder {i} errs)   : {marginal:.6f}")
    return 0


def _cmd_hybrid(args) -> int:
    from .explore.hybrid_search import greedy_hybrid, optimal_hybrid

    cells = args.cells or [f"LPAA {i}" for i in range(1, 8)]
    result = optimal_hybrid(cells, args.width, args.pa, args.pb, args.pcin,
                            power_weight=args.power_weight,
                            budget=_budget_from_args(args))
    if result.truncated:
        print(f"note          : deadline hit ({result.stop_reason}); "
              "showing the greedy fallback chain")
    print(f"optimal chain : {result.chain.describe()}")
    print(f"P(Error)      : {result.p_error:.6f}  (exact={result.exact})")
    if result.power_nw is not None:
        print(f"power (model) : {result.power_nw:.1f} nW")
    if args.show_greedy:
        greedy = greedy_hybrid(cells, args.width, args.pa, args.pb, args.pcin)
        print(f"greedy chain  : {greedy.chain.describe()} "
              f"(P(Error) = {greedy.p_error:.6f})")
    return 0


def _cmd_power(args) -> int:
    from .circuits.power import PowerModel

    model = PowerModel()
    chain = _chain_from_args(args)
    rows = []
    for name in sorted({cell.name for cell in chain.cells}):
        cost = model.cell_cost(name, args.p)
        rows.append([
            cost.name, cost.area_ge, cost.published_area_ge,
            cost.power_nw, cost.published_power_nw,
        ])
    print(ascii_table(
        ["Cell", "Area GE (model)", "Area GE (paper)",
         "Power nW (model)", "Power nW (paper)"],
        rows, digits=2,
    ))
    print(f"chain area  : {model.chain_area_ge(list(chain.cells)):.2f} GE")
    print(
        "chain power : "
        f"{model.chain_power_nw(list(chain.cells), None, args.p, args.p):.1f} nW"
    )
    return 0


def _cmd_export(args) -> int:
    from .circuits.power import PowerModel
    from .explore.design_space import sweep_design_space
    from .io import export_design_points

    model = PowerModel() if args.power else None
    points = sweep_design_space(
        args.cells or registry.names(),
        args.widths,
        args.probabilities,
        power_model=model,
    )
    manifest = obs.build_manifest(
        "design-space-export",
        cells=[str(c) for c in (args.cells or registry.names())],
        widths=[int(w) for w in args.widths],
        probabilities=[float(p) for p in args.probabilities],
        power=bool(args.power),
    )
    export_design_points(points, args.output, fmt=args.format,
                         manifest=manifest)
    print(f"wrote {len(points)} design points to {args.output}")
    return 0


def _cmd_table(args) -> int:
    """Reproduce a paper table on stdout (subset of the bench suite)."""
    from .core.adders import PAPER_LPAAS
    from .core.matrices import derive_matrices

    table_id = args.id
    if table_id == "4":
        result = trace_chain(
            "LPAA 1", width=4, p_a=[0.9, 0.5, 0.4, 0.8],
            p_b=[0.8, 0.7, 0.6, 0.9], p_cin=0.5,
        )
        print(format_trace_table(result))
    elif table_id == "5":
        rows = []
        for cell in PAPER_LPAAS:
            mkl = derive_matrices(cell)
            fmt = lambda m: "[" + ",".join(map(str, m)) + "]"
            rows.append([cell.name, fmt(mkl.m), fmt(mkl.k), fmt(mkl.l)])
        print(ascii_table(["LPAA", "M", "K", "L"], rows))
    elif table_id == "3":
        from .baselines.operation_counter import table3_row

        rows = [
            [k, *table3_row(k).values()] for k in (4, 8, 12, 16, 20, 24, 28, 32)
        ]
        print(ascii_table(
            ["Stages", "Terms", "Mults", "Adds", "Memory"], rows
        ))
    elif table_id == "7":
        rows = []
        for width in (2, 4, 6, 8, 10, 12):
            rows.append([
                width,
                *[
                    engine.run(cell, width, 0.1, 0.1, 0.1).p_error
                    for cell in PAPER_LPAAS
                ],
            ])
        print(ascii_table(
            ["N", *[c.name for c in PAPER_LPAAS]], rows, digits=5
        ))
    else:
        raise SystemExit(
            f"table {table_id!r} not supported here (use the benchmark "
            "suite for the full set); supported: 3, 4, 5, 7"
        )
    return 0


def _cmd_symbolic(args) -> int:
    from .core.symbolic import symbolic_error_probability

    chain = _chain_from_args(args)
    poly = symbolic_error_probability(list(chain.cells), None, mode=args.mode)
    print(f"chain      : {chain.describe()}")
    print(f"P(Error)   = {poly.to_string()}")
    print(f"degree {poly.degree()}, {len(poly.terms)} terms, "
          f"variables {poly.variables()}")
    return 0


def _cmd_timing(args) -> int:
    from .circuits.timing import cell_delay, ripple_delay
    from .gear.variants import variant_comparison

    if args.llaa:
        rows = [
            [r["name"], r["l"], r["subadders"], r["delay"], r["p_error"]]
            for r in variant_comparison(args.width)
        ]
        print(ascii_table(
            ["adder", "L", "k", "delay", "P(Error)"], rows, digits=4,
            title=f"named LLAA variants at N = {args.width}",
        ))
        return 0
    chain = _chain_from_args(args)
    rows = []
    for name in sorted({cell.name for cell in chain.cells}):
        delays = cell_delay(name)
        rows.append([name, delays["sum"], delays["cout"],
                     delays["cin_to_cout"]])
    print(ascii_table(
        ["cell", "sum delay", "cout delay", "carry increment"],
        rows, digits=2,
    ))
    print(f"chain critical path: "
          f"{ripple_delay(list(chain.cells)):.1f} unit gates")
    return 0


def _cmd_faults(args) -> int:
    from .circuits.faults import fault_detectability

    impacts = fault_detectability(
        args.cell, width=args.width, p_a=args.pa, p_b=args.pb,
        p_cin=args.pcin,
    )
    rows = [
        [fi.fault.describe(), fi.p_error_faulty, fi.delta]
        for fi in impacts[:args.top]
    ]
    print(ascii_table(
        ["fault", "P(Error) faulty", "delta"], rows, digits=4,
        title=f"top {args.top} stuck-at faults of {args.cell} in a "
              f"{args.width}-bit chain "
              f"(healthy P(E) = {impacts[0].p_error_healthy:.4f})",
    ))
    silent = [fi for fi in impacts if fi.statistically_silent]
    if silent:
        print(f"{len(silent)} fault(s) are statistically silent at this "
              "input distribution.")
    return 0


def _cmd_ant(args) -> int:
    from .ant import AntAdder, ant_quality_experiment

    adder = AntAdder(args.width, args.cell, args.truncation,
                     threshold=args.threshold)
    main, ant, usage = ant_quality_experiment(
        args.width, args.cell, args.truncation, p=args.p,
        samples=args.samples, seed=args.seed, threshold=args.threshold,
    )
    print(ascii_table(
        ["datapath", "ER", "MED", "MSE", "WCE"],
        [
            [f"raw {args.cell} x{args.width}", main.error_rate, main.med,
             main.mse, main.wce],
            [f"ANT(k={args.truncation})", ant.error_rate, ant.med,
             ant.mse, ant.wce],
        ],
        digits=4,
    ))
    print(f"replica usage     : {usage:.2%}")
    print(f"hard WCE bound    : {adder.worst_case_error_bound()}")
    return 0


def _serve_config(args):
    """The :class:`~repro.serve.ServeConfig` the ``serve`` flags ask for."""
    from .obs.slo import SloPolicy
    from .serve import ServeConfig

    if args.segment_cache_dir is not None:
        obs.get_logger("cli").warning(
            "--segment-cache-dir is deprecated and ignored: chain "
            "questions always run the float stage kernel")
    config = ServeConfig(
        host=args.host,
        port=args.port,
        max_batch=args.max_batch,
        batch_window_s=args.batch_window_ms / 1000.0,
        queue_limit=args.queue_limit,
        default_deadline_s=args.default_deadline,
        drain_grace_s=args.drain_grace,
        cache_dir=args.cache_dir,
        max_disk_entries=args.max_disk_entries,
        access_log=args.access_log,
        breaker_failures=args.breaker_failures,
        breaker_reset_s=args.breaker_reset,
        rate_limit_rps=(None if args.rate_limit is None
                        or args.rate_limit <= 0 else args.rate_limit),
        rate_limit_burst=args.rate_burst,
        slo=SloPolicy(
            # A negative flag value disables that objective.
            max_p50_s=None if args.slo_p50 < 0 else args.slo_p50,
            max_p99_s=None if args.slo_p99 < 0 else args.slo_p99,
            max_shed_rate=(None if args.slo_shed_rate < 0
                           else args.slo_shed_rate),
        ),
    )
    overrides = {}
    if args.memory_cache_entries is not None:
        overrides["memory_cache_entries"] = args.memory_cache_entries
    if args.access_log_max_bytes is not None:
        overrides["access_log_max_bytes"] = args.access_log_max_bytes
    if args.access_log_backups is not None:
        overrides["access_log_backups"] = args.access_log_backups
    if overrides:
        import dataclasses

        config = dataclasses.replace(config, **overrides)
    return config


def _cmd_serve(args) -> int:
    """Run the batching HTTP/JSON analysis service until SIGTERM."""
    from .serve import run_server

    config = _serve_config(args)
    if args.workers > 1:
        from .serve import SupervisorConfig, run_supervisor

        sup = SupervisorConfig(
            workers=args.workers,
            restart_budget=args.restart_budget,
            heartbeat_timeout_s=args.heartbeat_timeout,
            status_port=args.status_port,
        )
        return run_supervisor(config, sup)
    run_server(config)
    return 0


def _cmd_dashboard(args) -> int:
    """Live curses console over a running server's ``/metrics``."""
    from .serve.dashboard import render_once, run_dashboard

    base_url = args.url.rstrip("/")
    if not base_url.startswith(("http://", "https://")):
        base_url = "http://" + base_url
    if args.once:
        print(render_once(base_url))
        return 0
    return run_dashboard(base_url, interval_s=args.interval,
                         iterations=args.iterations)


def _cmd_cells(args) -> int:
    rows = []
    for cell in registry:
        rows.append([
            cell.name,
            cell.num_error_cases(),
            "".join(str(s) for s, _ in cell.rows),
            "".join(str(c) for _, c in cell.rows),
        ])
    print(ascii_table(
        ["Cell", "Error cases", "Sum row (000..111)", "Cout row"],
        rows,
    ))
    return 0


def _print_metrics_snapshot(data) -> None:
    counters = data.get("counters") or {}
    gauges = data.get("gauges") or {}
    timers = data.get("timers") or {}
    histograms = data.get("histograms") or {}
    service = data.get("service") or {}
    printed = False

    def gap():
        nonlocal printed
        if printed:
            print()
        printed = True

    if counters:
        gap()
        print(ascii_table(
            ["Counter", "Value"], sorted(counters.items()),
        ))
    if gauges:
        gap()
        print(ascii_table(
            ["Gauge", "Value"], sorted(gauges.items()),
        ))
    if timers:
        gap()
        rows = [
            [name, s.get("count"), s.get("total_s"), s.get("mean_s"),
             s.get("p50_s"), s.get("p95_s"), s.get("p99_s"),
             s.get("max_s")]
            for name, s in sorted(timers.items())
        ]
        print(ascii_table(
            ["Timer", "count", "total s", "mean s", "p50 s", "p95 s",
             "p99 s", "max s"],
            rows, digits=6,
        ))
    if histograms:
        gap()
        rows = [
            [name, s.get("count"), s.get("min"), s.get("mean"),
             s.get("p50"), s.get("p95"), s.get("p99"), s.get("max")]
            for name, s in sorted(histograms.items())
        ]
        print(ascii_table(
            ["Histogram", "count", "min", "mean", "p50", "p95", "p99",
             "max"],
            rows, digits=6,
        ))
    if service:
        gap()
        rows = [
            [key, value] for key, value in sorted(service.items())
            if not isinstance(value, dict)
        ]
        for tier, tier_doc in sorted(
            (service.get("result_cache") or {}).items()
        ):
            if isinstance(tier_doc, dict):
                for key, value in sorted(tier_doc.items()):
                    rows.append([f"result_cache.{tier}.{key}", value])
        print(ascii_table(["Service", "Value"], rows, digits=6,
                          title="serve stats"))
    # A serving snapshot carries enough signal to judge the default SLO
    # offline -- same evaluation the live /healthz endpoint runs.
    if service or "serve.http.analyze.seconds" in timers:
        from .obs.slo import SloPolicy, evaluate_slo

        slo = evaluate_slo(data, SloPolicy(),
                           shed_rate=service.get("recent_shed_rate"))
        gap()
        rows = [
            [c["name"], c["status"],
             "" if c.get("observed") is None else c["observed"],
             "" if c.get("threshold") is None else c["threshold"]]
            for c in slo["checks"]
        ]
        print(ascii_table(
            ["SLO check", "status", "observed", "threshold"], rows,
            digits=6, title=f"SLO: {slo['status']}",
        ))
    if not printed:
        print("snapshot contains no metrics (was collection enabled?)")


def _print_trace_summary(data) -> None:
    if "traceEvents" in data:  # Chrome trace_event export
        events = data["traceEvents"]
        rows = [
            [e.get("name"), e.get("ts", 0) / 1e6, e.get("dur", 0) / 1e6]
            for e in events
        ]
        print(ascii_table(["Span", "start s", "duration s"], rows,
                          digits=6,
                          title=f"{len(events)} trace events"))
        return

    def walk(spans, depth):
        for span in spans:
            yield ["  " * depth + span["name"], span.get("start_s"),
                   span.get("duration_s")]
            yield from walk(span.get("children", []), depth + 1)

    rows = list(walk(data.get("spans", []), 0))
    print(ascii_table(["Span", "start s", "duration s"], rows, digits=6,
                      title=f"{len(rows)} spans"))


def _print_manifest(data) -> None:
    rows = [
        [key, ", ".join(map(str, value)) if isinstance(value, list)
         else value]
        for key, value in data.items()
        if key not in ("format", "params")
    ]
    for key, value in sorted((data.get("params") or {}).items()):
        rows.append([f"params.{key}", str(value)])
    print(ascii_table(["Field", "Value"], rows, title="run manifest"))


def _cmd_obs(args) -> int:
    """Pretty-print a saved observability document.

    Accepts anything the suite writes: ``--metrics-out`` snapshots,
    ``--trace`` Chrome/span traces, manifest sidecars and
    ``repro.io.save_result`` documents.
    """
    import json

    try:
        with open(args.file) as handle:
            data = json.load(handle)
    except OSError as exc:
        raise SystemExit(f"cannot read {args.file}: {exc.strerror}")
    except json.JSONDecodeError as exc:
        raise SystemExit(f"{args.file}: not valid JSON ({exc})")
    if not isinstance(data, dict):
        raise SystemExit(f"{args.file}: not an observability document")
    fmt = data.get("format")
    if fmt == obs.METRICS_FORMAT:
        _print_metrics_snapshot(data)
    elif fmt == obs.TRACE_FORMAT or "traceEvents" in data:
        _print_trace_summary(data)
    elif fmt == obs.MANIFEST_FORMAT:
        _print_manifest(data)
    elif fmt == "sealpaa-result-v1":
        rows = [
            [key, value] for key, value in data.items()
            if key not in ("format", "manifest")
        ]
        print(ascii_table(["Field", "Value"], rows, digits=6,
                          title=f"saved result ({data.get('type')})"))
        if data.get("manifest"):
            print()
            _print_manifest(data["manifest"])
    else:
        raise SystemExit(
            f"{args.file}: unrecognised document format {fmt!r}"
        )
    return 0


def _add_obs_arguments(
    parser: argparse.ArgumentParser, stage_trace: bool = False
) -> None:
    """Attach the shared observability flag set to a subcommand.

    ``stage_trace=True`` (the ``analyze`` command) keeps the historical
    bare ``--trace`` behaviour -- print the per-stage table -- while a
    ``--trace PATH`` value writes a Chrome trace-event file.
    """
    group = parser.add_argument_group("observability")
    group.add_argument(
        "-v", "--verbose", action="count", default=0,
        help="provenance header + structured progress logs on stderr "
             "(-vv for debug)",
    )
    group.add_argument(
        "--metrics-out", metavar="PATH", default=None,
        help="write a JSON metrics snapshot (counters/timers) of this run",
    )
    if stage_trace:
        group.add_argument(
            "--trace", nargs="?", const=True, default=None, metavar="PATH",
            help="no value: print the per-stage Table-4-style trace; "
                 "with PATH: write a Chrome trace-event file instead",
        )
    else:
        group.add_argument(
            "--trace", dest="trace_out", metavar="PATH", default=None,
            help="write a Chrome trace-event file of this run to PATH",
        )


def _add_runtime_arguments(
    parser: argparse.ArgumentParser,
    checkpoint: bool = True,
    validate: bool = False,
    caps: bool = False,
) -> None:
    """Attach the shared resilience flag set to a subcommand."""
    group = parser.add_argument_group("resilience")
    group.add_argument(
        "--deadline", type=float, default=None, metavar="SECONDS",
        help="wall-clock budget; the run stops cleanly at the deadline "
             "and partial results are flagged truncated",
    )
    if caps:
        group.add_argument(
            "--max-samples", type=int, default=None, metavar="N",
            help="budget cap on Monte-Carlo samples drawn this run",
        )
        group.add_argument(
            "--max-cases", type=int, default=None, metavar="N",
            help="budget cap on exhaustive cases enumerated this run",
        )
    if checkpoint:
        group.add_argument(
            "--checkpoint", metavar="PATH", default=None,
            help="write crash-safe progress checkpoints to PATH",
        )
        group.add_argument(
            "--resume", action="store_true",
            help="resume from --checkpoint PATH (Monte-Carlo resume is "
                 "bit-identical to an uninterrupted run)",
        )
    if validate:
        group.add_argument(
            "--validate", action="store_true",
            help="cross-check the analytical value against a budgeted "
                 "simulation (Wilson interval); mismatch exits non-zero",
        )


def _add_point_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--pa", type=_prob_list, default=0.5,
                        help="P(A_i = 1): scalar or comma list (default 0.5)")
    parser.add_argument("--pb", type=_prob_list, default=0.5,
                        help="P(B_i = 1): scalar or comma list (default 0.5)")
    parser.add_argument("--pcin", type=_probability, default=0.5,
                        help="P(C_in = 1) (default 0.5)")


def _add_chain_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--cell", help='cell name, e.g. "LPAA 1"')
    parser.add_argument("--width", type=int, help="number of stages N")
    parser.add_argument("--spec",
                        help='hybrid spec, e.g. "LPAA7:4, LPAA1:4"')
    parser.add_argument("--cells-file",
                        help="JSON cell library to load first "
                             "(see repro.io)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sealpaa",
        description="Statistical error analysis for low-power approximate "
                    "adders (DAC'17 reproduction)",
    )
    parser.add_argument("--version", action="version",
                        version=obs.provenance_line())
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="error probability of one chain")
    _add_chain_arguments(p)
    p.add_argument("--adder",
                   help='named zoo config instead of a chain, e.g. '
                        '"loa:16:8" or "axppa-ks:8:2" (see "sealpaa '
                        'zoo --families"); adds with carry-in 0')
    _add_point_arguments(p)
    _add_runtime_arguments(p, checkpoint=False, validate=True)
    _add_obs_arguments(p, stage_trace=True)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("sweep", help="error-vs-width curves (Fig. 5 style)")
    p.add_argument("--cells", nargs="*", help="cells (default: all)")
    p.add_argument("--max-width", type=int, default=12)
    p.add_argument("--p", type=_probability, default=0.5,
                   help="input one-probability for all bits")
    p.add_argument("--pcin", type=_probability, default=0.5)
    p.add_argument("--digits", type=int, default=4)
    _add_obs_arguments(p)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("compare",
                       help="analytical vs exhaustive vs Monte-Carlo")
    _add_chain_arguments(p)
    _add_point_arguments(p)
    p.add_argument("--samples", type=int, default=1_000_000)
    p.add_argument("--seed", type=int, default=0)
    _add_runtime_arguments(p)
    _add_obs_arguments(p)
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser(
        "simulate",
        help="budget-routed simulation (exhaustive -> Monte-Carlo fallback)",
    )
    _add_chain_arguments(p)
    _add_point_arguments(p)
    p.add_argument("--samples", type=int, default=None,
                   help="Monte-Carlo samples if the router falls back "
                        "(default: the paper's 1e6)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--save", metavar="PATH", default=None,
                   help="write the result (with manifest) as JSON")
    _add_runtime_arguments(p, caps=True)
    _add_obs_arguments(p)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser(
        "distribution",
        help="error-magnitude analysis: ED / MED / MRED / WCE",
        description="Analyse how wrong the chain's sum is, not just how "
                    "often: the error-value law D = approx - exact and "
                    "its summary metrics, routed through the exact DP, "
                    "the truncated-support DP, or Monte-Carlo.",
    )
    _add_chain_arguments(p)
    p.add_argument("--adder",
                   help='named zoo config instead of a chain, e.g. '
                        '"aca1:8:4" (see "sealpaa zoo --families"); '
                        'adds with carry-in 0')
    _add_point_arguments(p)
    p.add_argument(
        "--kind", default="med",
        choices=["error_distribution", "med", "mred", "wce"],
        help="which view of the error law to compute (default med)",
    )
    p.add_argument(
        "--engine", default=None,
        help="force a backend: distribution-dp, "
             "distribution-dp-truncated, distribution-exhaustive, "
             "distribution-mc, or for --adder blocks zoo-dp, "
             "zoo-dp-truncated, zoo-exhaustive, zoo-mc "
             "(default: routed)",
    )
    p.add_argument("--samples", type=int, default=None,
                   help="Monte-Carlo sample count (backend default "
                        "200000)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--top", type=int, default=10,
                   help="support points printed for error_distribution "
                        "(default 10)")
    _add_runtime_arguments(p, checkpoint=False)
    _add_obs_arguments(p)
    p.set_defaults(func=_cmd_distribution)

    p = sub.add_parser(
        "zoo",
        help="the approximate-adder zoo: catalog, quality table, Pareto",
        description="Browse the adder-family zoo: list the families and "
                    "their config grammar, describe one named config, or "
                    "sweep the reference catalog at a width across "
                    "ER/MED/WCE/MRED plus abstract delay/area, optionally "
                    "keeping only the Pareto-optimal rows.",
    )
    p.add_argument("--families", action="store_true",
                   help="list the adder families and their config grammar")
    p.add_argument("--adder",
                   help='describe one config, e.g. "gda:8:2:2"')
    p.add_argument("--width", type=int, default=8,
                   help="sweep the reference catalog at this width "
                        "(default 8)")
    p.add_argument("--p", type=_probability, default=0.5,
                   help="input one-probability for every bit (default 0.5)")
    p.add_argument("--pareto", action="store_true",
                   help="keep only the non-dominated rows")
    p.add_argument("--objectives", nargs="+",
                   default=["error", "delay", "area"],
                   choices=["error", "med", "wce", "mred", "delay", "area"],
                   help="Pareto objectives (default: error delay area)")
    _add_runtime_arguments(p, checkpoint=False)
    _add_obs_arguments(p)
    p.set_defaults(func=_cmd_zoo)

    p = sub.add_parser("gear", help="GeAr(N, R, P) error analysis")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--p", dest="p", type=int, required=True)
    p.add_argument("--pa", type=_prob_list, default=0.5)
    p.add_argument("--pb", type=_prob_list, default=0.5)
    p.add_argument("--samples", type=int, default=0,
                   help="Monte-Carlo samples (0 = skip)")
    p.add_argument("--seed", type=int, default=0)
    _add_obs_arguments(p)
    p.set_defaults(func=_cmd_gear)

    p = sub.add_parser("hybrid", help="optimal hybrid chain search")
    p.add_argument("--width", type=int, required=True)
    p.add_argument("--cells", nargs="*",
                   help="candidate cells (default: LPAA 1..7)")
    _add_point_arguments(p)
    p.add_argument("--power-weight", type=float, default=0.0,
                   help="objective = P(Succ) - weight * power_nW")
    p.add_argument("--show-greedy", action="store_true")
    _add_runtime_arguments(p, checkpoint=False)
    _add_obs_arguments(p)
    p.set_defaults(func=_cmd_hybrid)

    p = sub.add_parser("power", help="power/area estimates (Table 2 style)")
    _add_chain_arguments(p)
    p.add_argument("--p", type=_probability, default=0.5)
    _add_obs_arguments(p)
    p.set_defaults(func=_cmd_power)

    p = sub.add_parser("cells", help="list registered cells")
    _add_obs_arguments(p)
    p.set_defaults(func=_cmd_cells)

    p = sub.add_parser("export", help="sweep the design space to CSV/JSON")
    p.add_argument("--cells", nargs="*", help="cells (default: all)")
    p.add_argument("--widths", nargs="+", type=int, default=[4, 8, 12])
    p.add_argument("--probabilities", nargs="+", type=_probability,
                   default=[0.1, 0.5, 0.9])
    p.add_argument("--power", action="store_true",
                   help="attach power/area estimates (slower)")
    p.add_argument("--format", default="", help="csv or json "
                   "(default: from the file suffix)")
    p.add_argument("-o", "--output", required=True,
                   help="output file path")
    _add_obs_arguments(p)
    p.set_defaults(func=_cmd_export)

    p = sub.add_parser("table", help="reproduce a paper table (3/4/5/7)")
    p.add_argument("id", help="paper table number")
    _add_obs_arguments(p)
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser("symbolic",
                       help="closed-form P(Error) expression of a chain")
    _add_chain_arguments(p)
    p.add_argument("--mode", choices=["uniform", "per-bit"],
                   default="uniform")
    _add_obs_arguments(p)
    p.set_defaults(func=_cmd_symbolic)

    p = sub.add_parser("timing", help="cell/chain delays, LLAA comparison")
    _add_chain_arguments(p)
    p.add_argument("--llaa", action="store_true",
                   help="compare named LLAA variants instead")
    _add_obs_arguments(p)
    p.set_defaults(func=_cmd_timing)

    p = sub.add_parser("faults",
                       help="statistical stuck-at fault grading of a cell")
    p.add_argument("--cell", required=True)
    p.add_argument("--width", type=int, default=8)
    p.add_argument("--top", type=int, default=10)
    _add_point_arguments(p)
    _add_obs_arguments(p)
    p.set_defaults(func=_cmd_faults)

    p = sub.add_parser("ant", help="ANT protection quality experiment")
    p.add_argument("--cell", required=True, help="main-block cell")
    p.add_argument("--width", type=int, default=8)
    p.add_argument("--truncation", type=int, default=3,
                   help="replica truncation bits k")
    p.add_argument("--threshold", type=int, default=None)
    p.add_argument("--p", type=_probability, default=0.5)
    p.add_argument("--samples", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    _add_obs_arguments(p)
    p.set_defaults(func=_cmd_ant)

    p = sub.add_parser(
        "serve",
        help="HTTP/JSON analysis service with micro-batching and a "
             "persistent result cache",
    )
    p.add_argument("--host", default="127.0.0.1",
                   help="bind address (default 127.0.0.1)")
    p.add_argument("--port", type=int, default=8080,
                   help="TCP port; 0 picks a free one (default 8080)")
    p.add_argument("--max-batch", type=int, default=64, metavar="N",
                   help="largest engine micro-batch (1 disables "
                        "coalescing; default 64)")
    p.add_argument("--batch-window-ms", type=float, default=5.0,
                   metavar="MS",
                   help="how long a request waits for companions "
                        "(default 5 ms)")
    p.add_argument("--queue-limit", type=int, default=1024, metavar="N",
                   help="bounded queue size; beyond it requests are shed "
                        "with 429 (default 1024)")
    p.add_argument("--default-deadline", type=float, default=None,
                   metavar="SECONDS",
                   help="deadline applied to requests without their own "
                        "deadline_s (default: none)")
    p.add_argument("--drain-grace", type=float, default=5.0,
                   metavar="SECONDS",
                   help="SIGTERM drain grace before pending work is "
                        "failed (default 5)")
    p.add_argument("--cache-dir", metavar="PATH", default=None,
                   help="mount the persistent on-disk result cache at "
                        "PATH (shared across processes and restarts)")
    # Deprecated no-op, still parsed because existing launch scripts
    # pass it; _serve_config logs one warning when it is given.
    p.add_argument("--segment-cache-dir", metavar="PATH", default=None,
                   help=argparse.SUPPRESS)
    fleet = p.add_argument_group("multi-worker supervision")
    fleet.add_argument(
        "--workers", type=int, default=1, metavar="N",
        help="run N supervised worker processes sharing this port "
             "(SO_REUSEPORT), with crash detection and restarts "
             "(default 1: single in-process server)")
    fleet.add_argument(
        "--restart-budget", type=int, default=8, metavar="N",
        help="total worker restarts before the supervisor gives up "
             "and exits nonzero (default 8)")
    fleet.add_argument(
        "--heartbeat-timeout", type=float, default=10.0,
        metavar="SECONDS",
        help="a worker silent this long is declared hung and "
             "restarted (default 10)")
    fleet.add_argument(
        "--status-port", type=int, default=None, metavar="PORT",
        help="supervisor status/merged-metrics port "
             "(default: serve port + 1)")
    robust = p.add_argument_group("admission control and circuit breaker")
    robust.add_argument(
        "--rate-limit", type=float, default=None, metavar="RPS",
        help="per-client token-bucket admission limit in requests/s, "
             "keyed by X-API-Key or peer address; over-limit requests "
             "get 429 + Retry-After before queueing (default: off)")
    robust.add_argument(
        "--rate-burst", type=float, default=None, metavar="N",
        help="token-bucket burst capacity (default: max(1, RPS))")
    robust.add_argument(
        "--breaker-failures", type=int, default=0, metavar="N",
        help="open the engine circuit breaker after N consecutive "
             "batch failures; open = fast 503 + Retry-After until a "
             "half-open probe succeeds (default 0: disabled)")
    robust.add_argument(
        "--breaker-reset", type=float, default=5.0, metavar="SECONDS",
        help="how long the breaker stays open before probing "
             "(default 5)")
    p.add_argument("--memory-cache-entries", type=int, metavar="N",
                   default=None,
                   help="in-memory result LRU size above the disk tier")
    p.add_argument("--max-disk-entries", type=int, metavar="N",
                   default=None,
                   help="cap on on-disk cache entries; oldest are "
                        "evicted (default: unbounded)")
    telemetry = p.add_argument_group("telemetry")
    telemetry.add_argument(
        "--access-log", metavar="PATH", default=None,
        help="append a JSONL access log (one line per request, "
             "request_id correlated) with size-based rotation")
    telemetry.add_argument(
        "--access-log-max-bytes", type=int, metavar="N", default=None,
        help="rotate the access log past N bytes (default 8 MiB)")
    telemetry.add_argument(
        "--access-log-backups", type=int, metavar="N", default=None,
        help="rotated access-log files to keep (default 3)")
    telemetry.add_argument(
        "--slo-p50", type=float, metavar="SECONDS", default=1.0,
        help="degrade /healthz when rolling p50 latency exceeds this "
             "(default 1.0; negative disables)")
    telemetry.add_argument(
        "--slo-p99", type=float, metavar="SECONDS", default=5.0,
        help="degrade /healthz when rolling p99 latency exceeds this "
             "(default 5.0; negative disables)")
    telemetry.add_argument(
        "--slo-shed-rate", type=float, metavar="RATIO", default=0.5,
        help="degrade /healthz when the recent shed rate exceeds this "
             "(default 0.5; negative disables)")
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser(
        "dashboard",
        help="live terminal console over a running `sealpaa serve` "
             "(/metrics + /healthz)",
    )
    p.add_argument("url", nargs="?", default="http://127.0.0.1:8080",
                   help="server base URL (default http://127.0.0.1:8080)")
    p.add_argument("--interval", type=float, default=1.0,
                   metavar="SECONDS",
                   help="poll/refresh interval (default 1 s)")
    p.add_argument("--once", action="store_true",
                   help="print one plain-text sample and exit (no curses; "
                        "for pipes and CI)")
    p.add_argument("--iterations", type=int, default=None, metavar="N",
                   help="stop after N refreshes (default: run until q)")
    p.set_defaults(func=_cmd_dashboard)

    p = sub.add_parser(
        "obs",
        help="pretty-print a saved metrics/trace/manifest/result file",
    )
    p.add_argument("file", help="JSON document written by --metrics-out, "
                   "--trace or repro.io")
    p.set_defaults(func=_cmd_obs)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    from .core.exceptions import ReproError

    args = build_parser().parse_args(argv)
    verbose = getattr(args, "verbose", 0)
    metrics_out = getattr(args, "metrics_out", None)
    trace_out = getattr(args, "trace_out", None)
    if isinstance(getattr(args, "trace", None), str):
        # ``analyze --trace PATH``: a span-trace request, not the legacy
        # bare flag that prints the per-stage table.
        trace_out = args.trace
        args.trace = None

    # Fail fast on unwritable snapshot paths -- losing a metrics file
    # *after* a long Monte-Carlo run would waste the whole run.
    import os

    for out_path in (metrics_out, trace_out):
        if out_path:
            parent = os.path.dirname(os.path.abspath(out_path)) or "."
            if not os.path.isdir(parent):
                print(f"error: output directory does not exist: {parent}",
                      file=sys.stderr)
                return 2

    obs.configure_logging(verbose)
    metrics_registry = None
    tracer = None
    status = 0
    with contextlib.ExitStack() as stack:
        if metrics_out or verbose:
            metrics_registry = obs.MetricsRegistry()
            stack.enter_context(obs.use_registry(metrics_registry))
            if not obs.is_enabled():
                obs.enable()
                stack.callback(obs.disable)
        if trace_out:
            tracer = obs.Tracer()
            stack.enter_context(obs.use_tracer(tracer))
        if verbose:
            print(f"# {obs.provenance_line()}", file=sys.stderr)
        try:
            status = args.func(args)
        except ReproError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        except KeyboardInterrupt:
            # The engines flush their latest checkpoint before letting
            # the interrupt propagate, so the run is resumable.
            message = "interrupted"
            checkpoint = getattr(args, "checkpoint", None)
            if checkpoint:
                message += (f"; progress saved to {checkpoint} "
                            "(add --resume to continue)")
            print(message, file=sys.stderr)
            return 130
    if metrics_out and metrics_registry is not None:
        obs.snapshot_to_json(metrics_out, metrics_registry)
    if trace_out and tracer is not None:
        tracer.write_chrome(trace_out)
    return status


if __name__ == "__main__":
    sys.exit(main())

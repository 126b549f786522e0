"""Command-line interface for the SurfOS reproduction.

Usage::

    python -m repro.cli table1
    python -m repro.cli fig2
    python -m repro.cli fig4 --quick
    python -m repro.cli fig5
    python -m repro.cli fig6
    python -m repro.cli translate "I want to start VR gaming in this room."
    python -m repro.cli recommend "passive surface for 60 GHz"
    python -m repro.cli plan --room bedroom --target-snr 20
    python -m repro.cli trace --jsonl /tmp/trace.jsonl
    python -m repro.cli trace --report /tmp/trace.jsonl
    python -m repro.cli pipeline --requests 10 --json /tmp/bench.json
    python -m repro.cli faults --seed 7 --jsonl /tmp/faults.jsonl
    python -m repro.cli fleet --shards 3 --requests 12 --seed 7
    python -m repro.cli mobility --adaptive-budget --churn-rate 0.4
    python -m repro.cli load --model poisson --rate 20 --requests 100000
    python -m repro.cli load --model flash-crowd --slo "interactive=0.2"
    python -m repro.cli load --sweep --requests 2000 --json /tmp/sweep.json
    python -m repro.cli determinism fleet --seed 7
    python -m repro.cli info

Every experiment prints the same rendering its benchmark asserts on.
``trace`` runs one orchestrated pass on the two-room apartment and
prints the telemetry summary (optionally exporting the raw event log
as JSON lines); ``trace --report`` renders a previously exported file.
``pipeline`` runs the open-loop arrival benchmark (serial vs pipelined
admission) and exits nonzero if the pipelined p99 latency exceeds
serial.

:data:`SCENARIOS` is the one table of scenarios with a sim-only event
log: ``faults`` (two of five panels die mid-run), ``fleet`` (quarantine
spill + roaming handoff across shards), ``mobility`` (motion and churn
through the daemon loop) and ``load`` (a seeded arrival model through
the modeled control plane, gated on an ``--slo`` policy; ``--sweep``
ladders the offered Poisson rate instead, is never gated, and rejects
``--model``, ``--slo``, ``--record-trace`` and ``--jsonl``).  Each gets the
same ``--json`` summary and ``--jsonl`` export flags and the one
epilogue of :func:`repro.experiments.result.finish`: the rendering,
``FAIL:`` lines on stderr, and exit 1 on any gate violation.  The
``--jsonl`` export strips wall-clock fields, so two runs with one seed
write byte-identical files; ``determinism <scenario> [args...]`` runs a
scenario twice in fresh interpreters and exits 1 when they differ.
``pipeline`` is not in the table: its solves charge wall time to the sim
clock, so it has no sim-only log.
"""

from __future__ import annotations

import argparse
import itertools
import os
import sys
from typing import TYPE_CHECKING, Callable, Dict, List, NamedTuple, Optional

if TYPE_CHECKING:
    from .experiments.result import ExperimentResult


def _cmd_info(args: argparse.Namespace) -> int:
    from . import __version__
    from .surfaces import list_designs

    print(f"SurfOS reproduction v{__version__}")
    print("Paper: SurfOS: Towards an Operating System for Programmable")
    print("       Radio Environments (HotNets '24)")
    print(f"Known surface designs: {', '.join(list_designs())}")
    print(f"Commands: {', '.join(args.commands)} (see EXPERIMENTS.md)")
    return 0


def _cmd_table1(args: argparse.Namespace) -> int:
    from .experiments import table1

    print(table1.run().render())
    return 0


def _cmd_fig2(args: argparse.Namespace) -> int:
    from .experiments import fig2

    print(fig2.run().render())
    return 0


def _cmd_fig4(args: argparse.Namespace) -> int:
    from .experiments import fig4

    if args.quick:
        result = fig4.run(
            passive_sizes=(24, 48),
            programmable_sizes=(12, 22),
            hybrid_sizes=((64, 12),),
        )
    else:
        result = fig4.run()
    print(result.render_sweep())
    print()
    print(result.render_targets())
    return 0


def _cmd_fig5(args: argparse.Namespace) -> int:
    from .experiments import fig5

    print(fig5.run().render())
    return 0


def _cmd_fig6(args: argparse.Namespace) -> int:
    from .experiments import fig6

    result = fig6.run()
    print(result.render())
    return 0 if result.all_match else 1


def _cmd_translate(args: argparse.Namespace) -> int:
    from .llm import IntentTranslator, MockLLM

    translator = IntentTranslator(MockLLM())
    calls = translator.translate(args.text)
    if not calls:
        print("(no service calls — demand not understood)")
        return 1
    for call in calls:
        print(call.render())
    return 0


def _cmd_recommend(args: argparse.Namespace) -> int:
    from .llm import recommend_designs

    for spec in recommend_designs(args.text):
        lo, hi = spec.band_hz
        kind = "passive" if spec.is_passive else "programmable"
        print(
            f"{spec.design}: {lo / 1e9:g}-{hi / 1e9:g} GHz, {kind}, "
            f"${spec.cost_per_element_usd:.4g}/element"
        )
    return 0


def _cmd_plan(args: argparse.Namespace) -> int:
    from .autodesign import DeploymentGoal, DeploymentPlanner
    from .core.units import ghz
    from .experiments import build_scenario
    from .orchestrator import Adam

    scenario = build_scenario()
    planner = DeploymentPlanner(
        scenario.env,
        scenario.ap,
        optimizer=Adam(max_iterations=60),
        size_ladder=(8, 12, 16, 24, 32),
        max_sites=4,
    )
    goal = DeploymentGoal(
        room_id=args.room,
        target_median_snr_db=args.target_snr,
        frequency_hz=ghz(args.ghz),
        require_reconfigurable=None if args.any_hardware else True,
    )
    plans = planner.plan(goal)
    for i, plan in enumerate(plans, 1):
        print(f"{i}. {plan.describe()}")
    return 0 if plans[0].meets_target else 1


def _cmd_trace(args: argparse.Namespace) -> int:
    from .core.errors import SurfOSError
    from .telemetry import (
        load_jsonl,
        render_profile,
        render_report,
        render_solver_stats,
    )
    from .telemetry.report import _aggregate_spans

    if args.report:
        try:
            records = load_jsonl(args.report)
            print(render_report(records))
            if args.profile is not None:
                spans, snapshot = _aggregate_spans(records)
                print()
                print(render_profile(spans, top=args.profile))
                solver_block = render_solver_stats(
                    (snapshot or {}).get("counters") or {},
                    (snapshot or {}).get("gauges") or {},
                )
                if solver_block:
                    print()
                    print(solver_block)
        except SurfOSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        return 0

    from . import SurfOS
    from .core.units import ghz
    from .geometry import apartment_sites, two_room_apartment
    from .hwmgr import AccessPoint, ClientDevice
    from .orchestrator import Adam, RandomSearch
    from .surfaces import GENERIC_PROGRAMMABLE_28, SurfacePanel

    frequency = ghz(28)
    sites = apartment_sites()
    # Adaptive budgets need a budget-capable population optimizer with
    # early stop; its candidate batches also fill the evaluator.*
    # counters that Adam, which scores one point per step, leaves idle.
    if args.adaptive_budget:
        optimizer = RandomSearch(
            max_iterations=args.iterations, seed=0, early_stop_eps=1e-3
        )
    else:
        optimizer = Adam(max_iterations=args.iterations)
    solve_budget = None
    if args.adaptive_budget:
        from .orchestrator import SolveBudgetConfig

        solve_budget = SolveBudgetConfig(enabled=True)
    system = SurfOS(
        two_room_apartment(),
        frequency_hz=frequency,
        optimizer=optimizer,
        grid_spacing_m=1.0,
        solve_budget=solve_budget,
    )
    system.add_access_point(
        AccessPoint("ap", sites.ap_position, 4, frequency, boresight=(1, 0.3, 0))
    )
    system.add_surface(
        SurfacePanel(
            "s1",
            GENERIC_PROGRAMMABLE_28,
            16,
            16,
            sites.single_surface_center,
            sites.single_surface_normal,
        )
    )
    system.add_client(ClientDevice("phone", (6.5, 1.5, 1.0)))
    system.boot()
    system.orchestrator.optimize_coverage("bedroom")
    system.orchestrator.enhance_link("phone", snr=25.0)
    result = system.reoptimize(rounds=args.rounds)
    if args.adaptive_budget:
        # A second pass hits the solution store warm: the drift probe
        # and the budget clamp both show up in solver.*.
        result = system.reoptimize(rounds=args.rounds)

    passes = "two reoptimize() passes" if args.adaptive_budget else (
        "one reoptimize()"
    )
    print(f"Traced {passes} on the two-room apartment scenario.")
    print()
    for phase, seconds in result.timing.items():
        print(f"  {phase:>18}: {seconds * 1e3:8.2f} ms")
    print()
    print(system.telemetry.summary())
    if args.profile is not None:
        snapshot = system.telemetry.snapshot()
        print()
        print(render_profile(snapshot.spans, top=args.profile))
        solver_block = render_solver_stats(snapshot.counters, snapshot.gauges)
        if solver_block:
            print()
            print(solver_block)
    if args.jsonl:
        system.telemetry.export_jsonl(args.jsonl)
        print(f"\nevent log written to {args.jsonl}")
    return 0


def _cmd_pipeline(args: argparse.Namespace) -> int:
    from .experiments import arrivals
    from .experiments.result import finish

    result = arrivals.run(
        requests=args.requests,
        rate_hz=args.rate,
        seed=args.seed,
    )
    return finish(result, args.json, artifact_label="benchmark results")


class _UsageError(Exception):
    """Scenario arguments that do not fit together: ``error:`` and exit 2."""


class Scenario(NamedTuple):
    """A :data:`SCENARIOS` entry; ``run`` exports the log to ``args.jsonl``."""

    help: str
    artifact_label: str
    add_arguments: Callable[[argparse.ArgumentParser], None]
    run: Callable[[argparse.Namespace], ExperimentResult]


def _faults_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=0, help="fault-injection seed")
    parser.add_argument(
        "--panels", type=int, default=10, metavar="N", help="elements per panel side (default 10)"
    )
    parser.add_argument(
        "--kill",
        nargs="+",
        default=["rs-2", "rs-4"],
        metavar="ID",
        help="panel ids to kill mid-run (default rs-2 rs-4)",
    )


def _run_faults(args: argparse.Namespace) -> ExperimentResult:
    from .experiments import degradation

    return degradation.run(
        seed=args.seed, kill=tuple(args.kill), panel_size=args.panels, jsonl=args.jsonl
    )


def _fleet_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--shards", type=int, default=3, help="environment shards (zones)")
    parser.add_argument("--requests", type=int, default=12, help="requests in the trace")
    parser.add_argument("--seed", type=int, default=0, help="workload/placement seed")
    parser.add_argument(
        "--strategy",
        choices=("zone", "least-loaded", "congestion"),
        default="congestion",
        help="placement strategy (default congestion-aware)",
    )
    parser.add_argument(
        "--scene",
        default="two-room",
        help="registered scene every shard stands up (see `mobility`)",
    )


def _run_fleet(args: argparse.Namespace) -> ExperimentResult:
    from .experiments import fleet

    return fleet.run(
        shards=args.shards,
        requests=args.requests,
        seed=args.seed,
        strategy=args.strategy,
        jsonl=args.jsonl,
        scene=args.scene,
    )


def _mobility_arguments(parser: argparse.ArgumentParser) -> None:
    from .geometry.scenes import SCENE_NAMES

    parser.add_argument(
        "--scene", choices=SCENE_NAMES, default="apartment", help="registered scene to run in"
    )
    parser.add_argument("--seed", type=int, default=0, help="motion/churn seed")
    parser.add_argument("--steps", type=int, default=60, help="daemon cycles to run")
    parser.add_argument("--dt", type=float, default=0.25, help="simulated seconds per cycle")
    parser.add_argument(
        "--clients", type=int, default=1, help="mobile endpoints on the scene loops"
    )
    parser.add_argument(
        "--walkers", type=int, default=1, help="obstacle walkers on the scene loops"
    )
    parser.add_argument(
        "--churn-rate",
        type=float,
        default=0.0,
        metavar="HZ",
        help="Poisson guest arrival rate (0 = pure motion)",
    )
    parser.add_argument(
        "--no-prefetch", action="store_true", help="disable speculative leg pre-tracing"
    )
    parser.add_argument("--panel-size", type=int, default=8, help="elements per surface side")
    parser.add_argument(
        "--adaptive-budget",
        action="store_true",
        help=(
            "drift-aware adaptive solve budgets with early stop "
            "(same-seed results stay byte-identical)"
        ),
    )


def _run_mobility(args: argparse.Namespace) -> ExperimentResult:
    from .experiments import mobility

    config = mobility.MobilityConfig(
        scene=args.scene,
        seed=args.seed,
        steps=args.steps,
        dt_s=args.dt,
        clients=args.clients,
        walkers=args.walkers,
        churn_rate_hz=args.churn_rate,
        prefetch=not args.no_prefetch,
        panel_size=args.panel_size,
        adaptive_budget=args.adaptive_budget,
    )
    return mobility.run(config, jsonl=args.jsonl)


def _load_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--model",
        choices=("poisson", "diurnal", "flash-crowd", "burst", "trace"),
        help="arrival model (default poisson)",
    )
    parser.add_argument("--requests", type=int, default=10_000, help="requests in the run")
    parser.add_argument(
        "--rate", type=float, default=20.0, metavar="HZ", help="mean arrival rate (default 20)"
    )
    parser.add_argument("--seed", type=int, default=0, help="arrival/class-mix seed")
    parser.add_argument(
        "--trace", metavar="FILE", help="JSONL arrival trace to replay (model=trace)"
    )
    parser.add_argument(
        "--record-trace",
        metavar="FILE",
        help="write the model's arrival times as a JSONL trace first",
    )
    parser.add_argument(
        "--period",
        type=float,
        default=None,
        metavar="S",
        help="diurnal: rate-profile period in seconds",
    )
    parser.add_argument(
        "--depth", type=float, default=None, help="diurnal: modulation depth in [0, 1]"
    )
    parser.add_argument(
        "--flash-at", type=float, default=None, metavar="S", help="flash-crowd: spike start time"
    )
    parser.add_argument(
        "--flash-duration",
        type=float,
        default=None,
        metavar="S",
        help="flash-crowd: spike duration",
    )
    parser.add_argument(
        "--multiplier",
        type=float,
        default=None,
        help="flash-crowd: rate multiplier during the spike",
    )
    parser.add_argument(
        "--slo",
        metavar="SPEC",
        help=(
            "SLO policy, e.g. "
            "'interactive=0.2,normal=1.0,bulk=5.0,satisfaction=0.95,"
            "p99=2.0' — violations exit nonzero"
        ),
    )
    parser.add_argument(
        "--queue-capacity", type=int, default=256, help="admission queue capacity (default 256)"
    )
    parser.add_argument(
        "--window",
        type=float,
        default=0.0,
        metavar="S",
        help="fixed coalesce window; 0 = adaptive (default)",
    )
    parser.add_argument(
        "--sweep",
        action="store_true",
        help=(
            "offered-load sweep: replay the seeded Poisson workload over "
            "an ascending rate ladder and report the saturation knee "
            "(observational; never gated)"
        ),
    )
    parser.add_argument(
        "--sweep-rates",
        metavar="R1,R2,...",
        help="comma-separated ascending rates for --sweep (req/s)",
    )


def _run_load(args: argparse.Namespace) -> ExperimentResult:
    from .core.errors import SurfOSError
    from .load import (
        DEFAULT_SWEEP_RATES,
        LoadConfig,
        LoadHarness,
        SLOPolicy,
        build_model,
        run_sweep,
        write_trace,
    )
    from .pipeline import AdaptiveCoalesceConfig

    if args.window < 0:
        raise _UsageError(f"--window must be >= 0 (0 = adaptive), got {args.window:g}")
    if args.sweep:
        # Every rate of a sweep runs its own seeded Poisson harness,
        # ungated: there is no one log, model, SLO or trace to apply.
        flags = {
            "--jsonl": args.jsonl,
            "--model": args.model,
            "--slo": args.slo,
            "--record-trace": args.record_trace,
        }
        given = [flag for flag, value in flags.items() if value is not None]
        if given:
            raise _UsageError(f"--sweep runs an ungated Poisson ladder; drop {', '.join(given)}")
    try:
        config_kwargs = {"queue_capacity": args.queue_capacity}
        if args.window > 0:
            # A fixed window: the controller clamped to [W, W].
            config_kwargs["adaptive"] = AdaptiveCoalesceConfig(
                min_window_s=args.window, max_window_s=args.window
            )
        config = LoadConfig(**config_kwargs)
        if args.sweep:
            rates = (
                tuple(float(r) for r in args.sweep_rates.split(","))
                if args.sweep_rates
                else DEFAULT_SWEEP_RATES
            )
            return run_sweep(
                rates=rates, requests_per_rate=args.requests, seed=args.seed, config=config
            )
        model = build_model(
            args.model or "poisson",
            requests=args.requests,
            rate_hz=args.rate,
            seed=args.seed,
            trace=args.trace,
            period_s=args.period,
            depth=args.depth,
            flash_at_s=args.flash_at,
            flash_duration_s=args.flash_duration,
            multiplier=args.multiplier,
        )
        slo = SLOPolicy.parse(args.slo) if args.slo else None
    except (SurfOSError, ValueError) as exc:
        raise _UsageError(str(exc)) from exc
    if args.record_trace:
        write_trace(args.record_trace, model.times())
        print(f"arrival trace written to {args.record_trace}")
    return LoadHarness(config).run(model, slo=slo, jsonl=args.jsonl)


#: The scenarios with a sim-only event log, by subcommand name: the one
#: place the parser, the epilogue and ``determinism`` look them up.
SCENARIOS: Dict[str, Scenario] = {
    "faults": Scenario(
        "degraded-mode recovery scenario (panels die mid-run)",
        "scenario results",
        _faults_arguments,
        _run_faults,
    ),
    "fleet": Scenario(
        "multi-shard fleet scenario: quarantine spill + handoff",
        "scenario results",
        _fleet_arguments,
        _run_fleet,
    ),
    "mobility": Scenario(
        "mobility & churn scenario with speculative leg prefetch",
        "scenario results",
        _mobility_arguments,
        _run_mobility,
    ),
    "load": Scenario(
        "trace-driven load harness: arrival models + SLO gate",
        "load results",
        _load_arguments,
        _run_load,
    ),
}


def _cmd_scenario(args: argparse.Namespace) -> int:
    from .experiments.result import finish

    scenario = SCENARIOS[args.command]
    try:
        result = scenario.run(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    code = finish(result, args.json, artifact_label=scenario.artifact_label)
    if args.jsonl:
        print(f"\nsim-only event log written to {args.jsonl}")
    return code


def _cmd_determinism(args: argparse.Namespace) -> int:
    import subprocess
    import tempfile

    if any(arg.startswith("--jsonl") for arg in args.args):
        print("error: determinism passes --jsonl itself", file=sys.stderr)
        return 2
    # Fresh interpreters (each its own hash seed and module counters),
    # importing the same package as this one.
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    path = os.pathsep.join(filter(None, (root, os.environ.get("PYTHONPATH"))))
    env = {**os.environ, "PYTHONPATH": path}
    with tempfile.TemporaryDirectory() as tmp:
        logs = [os.path.join(tmp, f"run{run}.jsonl") for run in (1, 2)]
        for run, log in enumerate(logs, 1):
            argv = [sys.executable, "-m", "repro.cli", args.scenario, *args.args, "--jsonl", log]
            code = subprocess.run(argv, env=env).returncode
            if code != 0:
                print(f"error: run {run} exited {code}", file=sys.stderr)
                return 1
            if not os.path.exists(log) or os.path.getsize(log) == 0:
                print(f"error: run {run} wrote no event log", file=sys.stderr)
                return 1
        with open(logs[0], "rb") as first, open(logs[1], "rb") as second:
            pairs = enumerate(itertools.zip_longest(first, second), 1)
            line = next((n for n, (a, b) in pairs if a != b), None)
    if line is not None:
        print(f"error: the two event logs differ at line {line}", file=sys.stderr)
        return 1
    print(f"{args.scenario} deterministic: two runs wrote identical sim-only event logs")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SurfOS reproduction: experiments and tools",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    info = sub.add_parser("info", help="package and catalog summary")
    info.set_defaults(fn=_cmd_info)
    sub.add_parser("table1", help="regenerate Table 1").set_defaults(
        fn=_cmd_table1
    )
    sub.add_parser(
        "fig2", help="coverage-vs-localization heatmaps"
    ).set_defaults(fn=_cmd_fig2)
    fig4 = sub.add_parser("fig4", help="cost/size trade-off sweep")
    fig4.add_argument(
        "--quick", action="store_true", help="reduced sweep (~30 s)"
    )
    fig4.set_defaults(fn=_cmd_fig4)
    sub.add_parser("fig5", help="multitasking CDFs").set_defaults(fn=_cmd_fig5)
    sub.add_parser("fig6", help="LLM demand translation").set_defaults(
        fn=_cmd_fig6
    )

    translate = sub.add_parser(
        "translate", help="translate a demand into service calls"
    )
    translate.add_argument("text", help="natural-language demand")
    translate.set_defaults(fn=_cmd_translate)

    recommend = sub.add_parser(
        "recommend", help="recommend hardware designs for a request"
    )
    recommend.add_argument("text", help="natural-language hardware request")
    recommend.set_defaults(fn=_cmd_recommend)

    plan = sub.add_parser(
        "plan", help="plan a clean-slate deployment for the apartment"
    )
    plan.add_argument("--room", default="bedroom")
    plan.add_argument("--target-snr", type=float, default=20.0)
    plan.add_argument("--ghz", type=float, default=28.0)
    plan.add_argument(
        "--any-hardware",
        action="store_true",
        help="allow passive designs too",
    )
    plan.set_defaults(fn=_cmd_plan)

    trace = sub.add_parser(
        "trace",
        help="run one orchestrated pass and print its telemetry report",
    )
    trace.add_argument(
        "--report",
        metavar="FILE",
        help="render a previously exported JSON-lines file instead of running",
    )
    trace.add_argument(
        "--jsonl", metavar="FILE", help="export the event log as JSON lines"
    )
    trace.add_argument(
        "--rounds", type=int, default=2, help="block-coordinate rounds"
    )
    trace.add_argument(
        "--iterations", type=int, default=60, help="optimizer iteration budget"
    )
    trace.add_argument(
        "--adaptive-budget",
        action="store_true",
        help=(
            "enable drift-aware adaptive solve budgets and trace a second "
            "warm pass (solver.* stats land in --profile output)"
        ),
    )
    trace.add_argument(
        "--profile",
        type=int,
        nargs="?",
        const=10,
        default=None,
        metavar="N",
        help="also print the top-N telemetry spans by self-time (default 10)",
    )
    trace.set_defaults(fn=_cmd_trace)

    pipeline = sub.add_parser(
        "pipeline",
        help="open-loop arrival benchmark: serial vs pipelined admission",
    )
    pipeline.add_argument(
        "--requests", type=int, default=10, help="requests in the trace"
    )
    pipeline.add_argument(
        "--rate",
        type=float,
        default=0.0,
        metavar="HZ",
        help="Poisson arrival rate; 0 = one burst (default)",
    )
    pipeline.add_argument(
        "--seed", type=int, default=0, help="arrival/placement seed"
    )
    pipeline.add_argument(
        "--json", metavar="FILE", help="write the comparison as JSON"
    )
    pipeline.set_defaults(fn=_cmd_pipeline)

    for name, scenario in SCENARIOS.items():
        command = sub.add_parser(name, help=scenario.help)
        scenario.add_arguments(command)
        command.add_argument(
            "--json",
            metavar="FILE",
            help=f"write the {scenario.artifact_label} as JSON",
        )
        command.add_argument(
            "--jsonl",
            metavar="FILE",
            help="export the sim-only (wall-clock-free) event log",
        )
        command.set_defaults(fn=_cmd_scenario)

    determinism = sub.add_parser(
        "determinism",
        help="run a scenario twice and fail unless its sim-only logs match",
    )
    determinism.add_argument("scenario", choices=tuple(SCENARIOS), help="scenario to run twice")
    determinism.add_argument(
        "args",
        nargs=argparse.REMAINDER,
        help="the scenario's own arguments (not --jsonl)",
    )
    determinism.set_defaults(fn=_cmd_determinism)

    info.set_defaults(commands=[name for name in sub.choices if name != "info"])
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point."""
    args = build_parser().parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout (``| head``).  Point it at devnull so
        # the interpreter's own flush at exit cannot raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

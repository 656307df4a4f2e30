"""Command-line interface.

``python -m repro <command>`` exposes the reproduction's main entry
points without writing code:

- ``demo`` — enroll a simulated user and run authentications + attacks;
- ``experiment <id>`` — regenerate one of the paper's tables/figures
  (``fig8``..``fig17``, ``tab1``, or ``all``) at a chosen scale;
- ``robustness`` — sweep fault injectors against enrolled victims and
  report FRR/FAR/quality-rejection per (fault, intensity) cell;
- ``scenarios`` — sweep daily-wear scenarios (motion states, template
  aging, cross-device transfer) and compare template-maintenance
  policies as FRR/FAR-vs-age curves;
- ``simulate`` — synthesize a PIN-entry trial and dump it as CSV;
- ``serve`` — run the HTTP authentication service over a registry
  (synthetic demo population or an existing packed store);
- ``list`` — list the available experiments.
"""

from __future__ import annotations

import argparse
import sys
from typing import TYPE_CHECKING, Callable, Dict, List, Optional

import numpy as np

from . import __version__

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from .config import PipelineConfig
    from .core import EnrollmentOptions
    from .data import StudyData
    from .eval.experiments import ExperimentResult
    from .service import AuthService
    from .types import PinEntryTrial


def _all_runners() -> "Dict[str, Callable[..., ExperimentResult]]":
    from .eval.experiments import RUNNERS
    from .eval.extensions import EXTENSION_RUNNERS

    runners = dict(RUNNERS)
    runners.update(EXTENSION_RUNNERS)
    return runners


_JOBS_HELP = (
    "worker processes for evaluation fan-out "
    "(default: REPRO_N_JOBS or 1; 0 = all cores)"
)


def _add_common_options(
    sub: argparse.ArgumentParser,
    *,
    jobs_help: str = _JOBS_HELP,
    seed_help: str = "seed override",
    seed_default: Optional[int] = None,
) -> None:
    """Give a subcommand the uniform ``--jobs`` / ``--seed`` options."""
    sub.add_argument("--jobs", type=int, default=None, help=jobs_help)
    sub.add_argument("--seed", type=int, default=seed_default, help=seed_help)


def _cmd_list(_args: argparse.Namespace) -> int:
    print("Available experiments:")
    for name, runner in _all_runners().items():
        doc = (runner.__doc__ or "").strip().splitlines()[0]
        print(f"  {name:10s} {doc}")
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    from dataclasses import replace as dc_replace

    from .eval.experiments import DEFAULT, PAPER, SMOKE

    scales = {"smoke": SMOKE, "default": DEFAULT, "paper": PAPER}
    scale = scales[args.scale]
    if args.seed is not None:
        scale = dc_replace(scale, seed=args.seed)
    runners = _all_runners()
    names = list(runners) if args.id == "all" else [args.id]
    unknown = [n for n in names if n not in runners]
    if unknown:
        print(f"unknown experiment(s): {', '.join(unknown)}", file=sys.stderr)
        print(f"choose from: {', '.join(runners)} or 'all'", file=sys.stderr)
        return 2
    for name in names:
        result = runners[name](scale, n_jobs=args.jobs)
        print(result)
        print()
    return 0


def _cmd_robustness(args: argparse.Namespace) -> int:
    import json

    from .data import StudyData
    from .eval.robustness import (
        DEFAULT_INTENSITIES,
        build_report,
        render_markdown,
        run_robustness_sweep,
    )
    from .faults import FAULT_TYPES, resolve_fault_seed

    faults = args.faults.split(",") if args.faults else sorted(FAULT_TYPES)
    unknown = [f for f in faults if f not in FAULT_TYPES]
    if unknown:
        print(f"unknown fault(s): {', '.join(unknown)}", file=sys.stderr)
        print(f"choose from: {', '.join(sorted(FAULT_TYPES))}", file=sys.stderr)
        return 2
    intensities = (
        tuple(float(x) for x in args.intensities.split(","))
        if args.intensities
        else DEFAULT_INTENSITIES
    )
    seed = resolve_fault_seed(args.seed)

    data = StudyData(n_users=6, seed=5)
    cells = run_robustness_sweep(
        data,
        faults=faults,
        intensities=intensities,
        victim_ids=(0, 1),
        attacker_ids=(4, 5),
        num_features=args.features,
        n_jobs=args.jobs,
        seed=seed,
    )
    report = build_report(cells, seed=seed, label="cli")
    if args.json:
        json.dump(report, sys.stdout, indent=2)
        print()
    else:
        print(render_markdown(report))
    return 0


def _cmd_scenarios(args: argparse.Namespace) -> int:
    import json

    from .data import StudyData
    from .eval.robustness import (
        DEFAULT_AGE_GRID,
        DEFAULT_INTENSITIES,
        build_scenario_report,
        render_scenario_markdown,
        run_mitigation_sweep,
        run_scenario_sweep,
    )
    from .faults import SCENARIO_TYPES, resolve_fault_seed

    scenarios = (
        args.scenarios.split(",") if args.scenarios else sorted(SCENARIO_TYPES)
    )
    unknown = [s for s in scenarios if s not in SCENARIO_TYPES]
    if unknown:
        print(f"unknown scenario(s): {', '.join(unknown)}", file=sys.stderr)
        print(
            f"choose from: {', '.join(sorted(SCENARIO_TYPES))}",
            file=sys.stderr,
        )
        return 2
    intensities = (
        tuple(float(x) for x in args.intensities.split(","))
        if args.intensities
        else DEFAULT_INTENSITIES
    )
    ages = (
        tuple(float(x) for x in args.ages.split(","))
        if args.ages
        else DEFAULT_AGE_GRID
    )
    seed = resolve_fault_seed(args.seed)

    data = StudyData(n_users=6, seed=5)
    common = dict(
        victim_ids=(0, 1),
        attacker_ids=(4, 5),
        num_features=args.features,
        n_jobs=args.jobs,
        seed=seed,
    )
    cells = run_scenario_sweep(
        data,
        scenarios=scenarios,
        intensities=intensities,
        age_grid=ages,
        **common,
    )
    mitigation = run_mitigation_sweep(data, age_grid=ages, **common)
    report = build_scenario_report(cells, mitigation, seed=seed, label="cli")
    if args.json:
        json.dump(report, sys.stdout, indent=2)
        print()
    else:
        print(render_scenario_markdown(report))
    return 0


def _cmd_demo(args: argparse.Namespace) -> int:
    from .core import EmulatingAttacker, EnrollmentOptions, P2Auth, RandomAttacker
    from .physio import TrialSynthesizer, sample_population

    pin = args.pin
    rng = np.random.default_rng(args.seed)
    users = sample_population(12, seed=args.seed)
    synth = TrialSynthesizer()
    legit = users[0]

    print(f"Enrolling simulated user 0 with PIN {pin!r} ...")
    enrollment = [synth.synthesize_trial(legit, pin, rng) for _ in range(9)]
    third_party = [
        synth.synthesize_trial(u, pin, rng) for u in users[1:10] for _ in range(10)
    ]
    auth = P2Auth(pin=pin, options=EnrollmentOptions(num_features=2520))
    auth.enroll(enrollment, third_party)

    accepted = sum(
        auth.authenticate(synth.synthesize_trial(legit, pin, rng)).accepted
        for _ in range(args.attempts)
    )
    print(f"legitimate entries accepted : {accepted}/{args.attempts}")

    random_attacker = RandomAttacker(users[10], synth, rng)
    rejected = sum(
        not auth.authenticate(random_attacker.attempt()).accepted
        for _ in range(args.attempts)
    )
    print(f"random attacks rejected     : {rejected}/{args.attempts}")

    emulator = EmulatingAttacker(users[11], legit, synth, rng)
    rejected = sum(
        not auth.authenticate(emulator.attempt(pin)).accepted
        for _ in range(args.attempts)
    )
    print(f"emulating attacks rejected  : {rejected}/{args.attempts}")
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    from .physio import TrialSynthesizer, sample_population

    users = sample_population(args.user + 1, seed=args.seed)
    synth = TrialSynthesizer()
    rng = np.random.default_rng(args.trial_seed)
    trial = synth.synthesize_trial(
        users[args.user], args.pin, rng, one_handed=not args.two_handed
    )
    rec = trial.recording

    out = open(args.out, "w") if args.out else sys.stdout
    try:
        labels = ",".join(info.label for info in rec.channels)
        out.write(f"time,{labels}\n")
        times = rec.time_axis()
        for i in range(rec.n_samples):
            row = ",".join(f"{v:.6f}" for v in rec.samples[:, i])
            out.write(f"{times[i]:.3f},{row}\n")
    finally:
        if args.out:
            out.close()

    print(
        f"# user={trial.user_id} pin={trial.pin} fs={rec.fs:.0f}Hz "
        f"samples={rec.n_samples}",
        file=sys.stderr,
    )
    for event in trial.events:
        print(
            f"# key {event.key}: true={event.true_time:.3f}s "
            f"reported={event.reported_time:.3f}s hand={event.hand.value}",
            file=sys.stderr,
        )
    return 0


def _gate_passing_trials(
    data: "StudyData",
    user: int,
    pin: str,
    n_trials: int,
    config: "PipelineConfig",
    options: "EnrollmentOptions",
) -> "List[PinEntryTrial]":
    """The first ``n_trials`` of ``user``'s one-handed entries of
    ``pin`` that pass the enrollment quality gate on their own.

    Some synthetic entries fail the gate (weak keystroke artifacts),
    exactly as real captures would; this emulates the re-prompt by
    generating extras.
    """
    from .core import check_enrollment_quality
    from .errors import EnrollmentError

    picked = []
    for index in range(4 * n_trials):
        trial = data.trials(user, pin, "one_handed", index + 1)[index]
        try:
            check_enrollment_quality([trial], config, options)
        except EnrollmentError:
            continue
        picked.append(trial)
        if len(picked) == n_trials:
            return picked
    raise EnrollmentError(
        f"synthetic user {user} produced only {len(picked)}/"
        f"{n_trials} gate-passing trials; try another --seed"
    )


def _build_service(args: argparse.Namespace) -> "AuthService":
    """The service ``serve`` runs: registry, negative bank and users.

    Two simulated donors supply the server-side negative corpus. It is
    preprocessed and featurized once, into the bank that every
    enrollment trains against (wire and ``--synthetic`` alike), so
    enrollments add one record each and no extractor beyond the bank's.

    BLAS runs on one thread from here on: the ``--workers`` engine pool
    is the server's parallelism, and a ridge fit's helper threads would
    only busy-wait beside it (``repro.blas``).
    """
    from .blas import set_blas_threads
    from .config import PipelineConfig
    from .core import EnrollmentOptions, ModelRegistry, build_negative_bank
    from .data import StudyData
    from .service import AuthService

    set_blas_threads(1)
    backend = None
    if args.packed:
        from .core.backends import ShardedPackedBackend

        backend = ShardedPackedBackend(args.packed)
    config = PipelineConfig()
    options = EnrollmentOptions(num_features=args.features)
    registry = ModelRegistry(
        capacity=args.capacity,
        backend=backend,
        config=config,
        options=options,
    )

    n = args.synthetic or 0
    pin = args.pin
    n_trials = 9
    data = StudyData(n_users=n + 2, seed=args.seed or 0)

    # The last two simulated users are donors, never enrolled themselves.
    print(
        f"building the negative bank ({args.features} features) ...",
        file=sys.stderr,
    )
    donors = [
        t
        for v in (n, n + 1)
        for t in _gate_passing_trials(data, v, pin, n_trials, config, options)
    ]
    bank = build_negative_bank(donors, config, options)

    service = AuthService(
        registry,
        shared_negatives=bank,
        stripes=args.stripes,
        max_workers=args.workers,
        session_capacity=args.sessions,
    )

    if args.synthetic:
        print(
            f"enrolling {n} synthetic users (pin {pin!r}, "
            f"{args.features} features) ...",
            file=sys.stderr,
        )
        for u in range(n):
            uid = f"u{u:07d}"
            trials = _gate_passing_trials(data, u, pin, n_trials, config, options)
            registry.enroll(uid, pin, trials, (), shared_negatives=bank)
            service.adopt_user(uid, pin)
    elif args.packed:
        users = registry.list_users()
        print(
            f"adopting {len(users)} packed users (pin {pin!r}) ...",
            file=sys.stderr,
        )
        for uid in users:
            service.adopt_user(uid, pin)
    return service


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from .service.http import serve as http_serve

    service = _build_service(args)
    print(f"listening on http://{args.host}:{args.port}", file=sys.stderr)
    try:
        asyncio.run(http_serve(service, args.host, args.port))
    except KeyboardInterrupt:
        pass
    finally:
        service.close()
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Build the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="P2Auth reproduction (ICDCS 2023) command-line interface",
    )
    parser.add_argument(
        "--version",
        action="version",
        version=f"%(prog)s {__version__}",
        help="print the package version and exit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    lst = sub.add_parser("list", help="list available experiments")
    _add_common_options(
        lst,
        jobs_help="accepted for interface uniformity; listing runs no jobs",
        seed_help="accepted for interface uniformity; listing uses no seed",
    )
    lst.set_defaults(func=_cmd_list)

    exp = sub.add_parser("experiment", help="run a paper experiment")
    exp.add_argument("id", help="fig8..fig17, tab1, or 'all'")
    exp.add_argument(
        "--scale",
        choices=("smoke", "default", "paper"),
        default="smoke",
        help="evaluation scale (default: smoke)",
    )
    _add_common_options(
        exp, seed_help="override the scale's population seed"
    )
    exp.set_defaults(func=_cmd_experiment)

    rob = sub.add_parser(
        "robustness", help="fault-injection sweep (FRR/FAR per fault cell)"
    )
    rob.add_argument(
        "--faults",
        default=None,
        help="comma-separated fault names (default: all registered faults)",
    )
    rob.add_argument(
        "--intensities",
        default=None,
        help="comma-separated intensities in [0,1] (default: 0,0.25,0.5,1)",
    )
    rob.add_argument(
        "--features",
        type=int,
        default=2520,
        help="MiniRocket feature count for enrollment (default: 2520)",
    )
    _add_common_options(
        rob,
        jobs_help="worker processes (default: REPRO_N_JOBS or 1; 0 = all cores)",
        seed_help="fault seed (default: REPRO_FAULT_SEED or 0)",
    )
    rob.add_argument(
        "--json", action="store_true", help="emit the JSON report on stdout"
    )
    rob.set_defaults(func=_cmd_robustness)

    scen = sub.add_parser(
        "scenarios",
        help="daily-wear scenario sweep: motion states, template aging, "
        "cross-device transfer, and mitigation policies",
    )
    scen.add_argument(
        "--scenarios",
        default=None,
        help="comma-separated scenario names (default: all registered)",
    )
    scen.add_argument(
        "--intensities",
        default=None,
        help="comma-separated intensities in [0,1] (default: 0,0.25,0.5,1)",
    )
    scen.add_argument(
        "--ages",
        default=None,
        help="comma-separated template ages in days (default: 0,30,60,120)",
    )
    scen.add_argument(
        "--features",
        type=int,
        default=2520,
        help="MiniRocket feature count for enrollment (default: 2520)",
    )
    _add_common_options(
        scen,
        jobs_help="worker processes (default: REPRO_N_JOBS or 1; 0 = all cores)",
        seed_help="fault seed (default: REPRO_FAULT_SEED or 0)",
    )
    scen.add_argument(
        "--json", action="store_true", help="emit the JSON report on stdout"
    )
    scen.set_defaults(func=_cmd_scenarios)

    demo = sub.add_parser("demo", help="enroll + authenticate + attacks")
    demo.add_argument("--pin", default="1628")
    demo.add_argument("--attempts", type=int, default=10)
    _add_common_options(
        demo,
        jobs_help="accepted for interface uniformity; the demo runs serially",
        seed_help="population and trial seed (default: 7)",
        seed_default=7,
    )
    demo.set_defaults(func=_cmd_demo)

    sim = sub.add_parser("simulate", help="dump one synthetic trial as CSV")
    sim.add_argument("--user", type=int, default=0)
    sim.add_argument("--pin", default="1628")
    sim.add_argument("--trial-seed", type=int, default=0)
    sim.add_argument("--two-handed", action="store_true")
    sim.add_argument("--out", help="output CSV path (default: stdout)")
    _add_common_options(
        sim,
        jobs_help="accepted for interface uniformity; simulation is serial",
        seed_help="population seed (default: 0)",
        seed_default=0,
    )
    sim.set_defaults(func=_cmd_simulate)

    srv = sub.add_parser(
        "serve", help="run the HTTP authentication service"
    )
    srv.add_argument("--host", default="127.0.0.1")
    srv.add_argument("--port", type=int, default=8314)
    srv.add_argument(
        "--synthetic",
        type=int,
        default=0,
        metavar="N",
        help="enroll N synthetic demo users before serving",
    )
    srv.add_argument(
        "--packed",
        default=None,
        metavar="DIR",
        help="serve an existing sharded packed store",
    )
    srv.add_argument(
        "--pin",
        default="1628",
        help="PIN shared by synthetic/packed populations (default: 1628)",
    )
    srv.add_argument(
        "--features",
        type=int,
        default=840,
        help="MiniRocket feature count of the negative bank built at "
        "boot and of every enrollment, wire and --synthetic (default: 840)",
    )
    srv.add_argument(
        "--capacity",
        type=int,
        default=None,
        help="registry LRU capacity (default: unbounded)",
    )
    srv.add_argument(
        "--sessions", type=int, default=1024, help="live session slots"
    )
    srv.add_argument(
        "--workers", type=int, default=4, help="engine thread-pool size"
    )
    srv.add_argument(
        "--stripes", type=int, default=64, help="per-user lock stripes"
    )
    _add_common_options(
        srv,
        jobs_help="accepted for interface uniformity; the service "
        "sizes its own pool via --workers",
        seed_help="synthetic population seed (default: 0)",
        seed_default=0,
    )
    srv.set_defaults(func=_cmd_serve)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())

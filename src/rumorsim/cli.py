"""Command-line front end.

Subcommands: sim, compare, bounds, oracle, phases, check.  Experiment flags
can also come from a flat key=value config file (--config); explicit flags
win over file values.  Exit codes: 0 ok, 1 invalid configuration, 2 I/O
error, 3 failed bound check.
"""

from __future__ import annotations

import argparse
import functools
import sys

from . import bounds as bounds_mod
from . import oracle as oracle_mod
from .harness import (
    CONFIG_KEYS,
    ConfigError,
    ExperimentConfig,
    check_bounds,
    compare,
    run_experiment,
    write_json,
)
from .engine import Protocol
from .phases import upper_bound_schedule
from .topology import _content_lines, _read_lines, _write_text


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad usage; this artifact reserves 2 for I/O
    def error(self, message):
        raise ConfigError(message)


def _read_config_file(path: str) -> dict:
    values = {}
    for lineno, raw, line in _content_lines(_read_lines(path)):
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        if key not in CONFIG_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            values[key] = CONFIG_KEYS[key][1](val.strip())
        except ValueError:
            raise ConfigError(f"{path}:{lineno}: bad value for {key}: {val!r}") from None
    return values


def _add_flags(sp: argparse.ArgumentParser, keys, required: bool = False) -> None:
    """One --flag per config key, typed, restricted and described by CONFIG_KEYS."""
    for key in keys:
        _, typ, choices, help_text = CONFIG_KEYS[key]
        sp.add_argument(
            "--" + key.replace("_", "-"),
            dest=key, type=typ, choices=choices, required=required, help=help_text,
        )


def _add_experiment_flags(sp: argparse.ArgumentParser, with_protocol: bool = True) -> None:
    _add_flags(sp, [key for key in CONFIG_KEYS if with_protocol or key != "protocol"])
    sp.add_argument("--config", help="key=value config file; flags override it")


def _build_config(args: argparse.Namespace, force_protocol: str | None = None) -> ExperimentConfig:
    values = _read_config_file(args.config) if getattr(args, "config", None) else {}
    for key in CONFIG_KEYS:
        flag = getattr(args, key, None)
        if flag is not None:
            values[key] = flag
    if force_protocol is not None:
        values["protocol"] = force_protocol
    cfg = ExperimentConfig(**{CONFIG_KEYS[key][0]: val for key, val in values.items()})
    cfg.validate()
    return cfg


def _print_summary(result) -> None:
    s = result.summary
    print(
        f"trials={s.trials} completed={s.completion_rate:.4f} "
        f"min={s.t_min:g} mean={s.t_mean:.4f} median={s.t_median:g} "
        f"p95={s.t_p95:g} max={s.t_max:g}"
    )


def _cmd_sim(args) -> int:
    result = run_experiment(_build_config(args))
    _print_summary(result)
    return 0


def _cmd_compare(args) -> int:
    base = argparse.Namespace(**{**vars(args), "config": args.config_a})
    cfg_a = _build_config(base)
    base_b = argparse.Namespace(**{**vars(args), "config": args.config_b})
    cfg_b = _build_config(base_b)
    result = compare(cfg_a, cfg_b)
    r = result.to_dict()["ratio"]
    print(
        f"median_ratio={r['median']:.4f} ci95=[{r['median_ci95'][0]:.4f}, {r['median_ci95'][1]:.4f}] "
        f"mean_ratio={r['mean']:.4f} ci95=[{r['mean_ci95'][0]:.4f}, {r['mean_ci95'][1]:.4f}]"
    )
    return 0


def _cmd_bounds(args) -> int:
    report = bounds_mod.bound_report(args.n, args.p, args.eps)
    for key, val in report.to_dict().items():
        print(f"{key}={val:.6g}" if isinstance(val, float) else f"{key}={val}")
    if args.summary:
        write_json(report.to_dict(), args.summary)
    return 0


def _cmd_oracle(args) -> int:
    cfg = _build_config(args)
    if cfg.protocol == "random":
        if cfg.topology != "complete":
            raise ConfigError(
                f"topology: the fully random oracle covers only the complete graph, "
                f"got {cfg.topology!r}"
            )
        dist = oracle_mod.exact_fully_random(cfg.n, cfg.p, args.horizon)
    else:
        lists = cfg.build_lists()
        dist = oracle_mod.exact_quasirandom(cfg.n, lists, cfg.p, args.horizon, cfg.start_vertex_for(0))
    lines = ["t,probability"]
    lines += [f"{t},{dist.prob(t):.17g}" for t in range(dist.horizon + 1)]
    lines.append(f"tail,{dist.tail:.17g}")
    text = "\n".join(lines) + "\n"
    if args.out:
        _write_text(args.out, [text])
    else:
        sys.stdout.write(text)
    return 0


def _cmd_phases(args) -> int:
    if args.print_theoretical:
        if args.n is None or args.p is None:
            raise ConfigError("--print-theoretical needs --n and --p")
        built = upper_bound_schedule(args.n, args.p, args.eps)
        c = built.constants
        print(f"k={c.k} (exact {c.k_exact:.4f}) log_zeta={c.log_zeta:.6g} log_S={c.log_s:.6g}")
        print(f"feasible={str(built.feasible).lower()} phases={len(built.schedule)}")
        for ph in built.schedule[:8]:
            print(f"  {ph.kind.value},{ph.length}")
        if len(built.schedule) > 8:
            print(f"  ... {len(built.schedule) - 8} more")
        return 0
    result = run_experiment(_build_config(args, force_protocol="delayed"))
    _print_summary(result)
    if result.phase_records:
        for rec in result.phase_records[0]:
            print(
                f"phase {rec.index} {rec.kind.value} len={rec.length} "
                f"ran={rec.executed} informed={rec.informed_after} newly={rec.newly_after}"
            )
    return 0


def _cmd_check(args) -> int:
    cfg = _build_config(args)
    report = check_bounds(cfg, args.eps)
    print(
        f"n={report.n} p={report.p} eps={report.eps} lower={report.lower:.3f} "
        f"upper={report.upper:.3f} below={report.frac_below_lower:.4f} "
        f"above={report.frac_above_upper:.4f} passed={str(report.passed).lower()}"
    )
    return 0 if report.passed else 3


@functools.cache
def _parser() -> _Parser:
    """The argument parser, built on the first call and kept: a parse leaves it
    as it was, and building the six subcommands costs more than most of them run."""
    parser = _Parser(prog="rumorsim", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("sim", parents=[], help="run one experiment")
    _add_experiment_flags(sp)
    sp.set_defaults(fn=_cmd_sim)

    sp = sub.add_parser("compare", help="run two configs, report b/a ratios")
    sp.add_argument("--config-a", required=True, help="config file for arm a (denominator)")
    sp.add_argument("--config-b", required=True, help="config file for arm b (numerator)")
    sp.add_argument("--summary", help="JSON output with both summaries and ratios")
    sp.set_defaults(fn=_cmd_compare)

    sp = sub.add_parser("bounds", help="print the closed-form bound report")
    _add_flags(sp, ("n", "p"), required=True)
    sp.add_argument("--eps", type=float, required=True)
    sp.add_argument("--summary", help="JSON output path")
    sp.set_defaults(fn=_cmd_bounds)

    sp = sub.add_parser("oracle", help="exact distribution as CSV (t,probability)")
    oracles = [Protocol.FULLY_RANDOM.value, Protocol.QUASIRANDOM.value]
    sp.add_argument("--protocol", choices=oracles, required=True)
    _add_flags(sp, ("n", "p"), required=True)
    sp.add_argument("--horizon", type=int, required=True)
    _add_flags(sp, ("lists", "list_seed", "lists_path", "start", "topology"))
    sp.add_argument("--out", help="CSV path; stdout when omitted")
    sp.set_defaults(fn=_cmd_oracle)

    sp = sub.add_parser("phases", help="delayed runs from a schedule file")
    _add_experiment_flags(sp, with_protocol=False)
    sp.add_argument("--eps", type=float, default=0.5)
    sp.add_argument(
        "--print-theoretical",
        action="store_true",
        help="print the constructed upper-bound schedule instead of running",
    )
    sp.set_defaults(fn=_cmd_phases)

    sp = sub.add_parser("check", help="bound-violation report; exit 3 on failure")
    _add_experiment_flags(sp)
    sp.add_argument("--eps", type=float, required=True)
    sp.set_defaults(fn=_cmd_check)
    return parser


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        return args.fn(args)
    except ValueError as exc:  # ConfigError included
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        # a run's trial columns are allocated up front, and a trial count they
        # cannot hold is a ConfigError naming trials; trials then run in capped
        # chunks, so only n outgrows memory here
        print(f"error: n: too large for memory: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

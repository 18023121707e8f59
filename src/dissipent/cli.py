"""Command-line front end.

Subcommands: sweep, kink, regime-map, oracle, preset.  A sweep or kink run
can start from a JSON config file with the keys of a sweep preset; the
flags given on the command line are laid over it.  Exit codes: 0 success,
2 configuration error, 3 numerical error, 4 regime / no-solution error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from .errors import ConfigError, DomainError, NumericalError, RegimeError
from .sweep import (
    MODEL_PARAMS,
    MODELS,
    SWEEP_KEYS,
    KinkReport,
    _ORACLE_READS,
    detect_kink,
    format_value,
    oracle_run,
    oracle_to_csv,
    preset_doc,
    preset_names,
    read_doc,
    regime_map_from_doc,
    regime_map_to_csv,
    run_sweep,
    sweep_config,
    table_to_csv,
    table_to_json,
)

# every model parameter, each with its default (omega_c is shared)
_PARAMS = {key: val for params in MODEL_PARAMS.values() for key, val in params.items()}
# every oracle input, each with its default (eta has none and is a float);
# an unset flag takes the default of the chosen oracle
_ORACLE_INPUTS = {key: val for reads in _ORACLE_READS.values() for key, val in reads.items()}


def _add_sweep_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON sweep document, with the keys of a sweep preset")
    parser.add_argument("--model", choices=MODELS)
    parser.add_argument("--alpha-min", type=float)
    parser.add_argument("--alpha-max", type=float)
    parser.add_argument("--alpha-points", type=int, dest="n_points")
    for key, default in _PARAMS.items():
        parser.add_argument(f"--{key.replace('_', '-')}", type=type(default), dest=key)
    parser.add_argument("--format", choices=["csv", "json"])
    parser.add_argument("--output", help="write here instead of stdout")


def _lay_flags(doc: dict, args) -> dict:
    """`doc` with the sweep flags given on the command line laid over it."""
    given = {key: val for key, val in vars(args).items() if val is not None}
    fixed = {key: val for key, val in given.items() if key in _PARAMS}
    if fixed and isinstance(doc.get("fixed", {}), dict):  # else sweep_config refuses it
        doc = {**doc, "fixed": {**doc.get("fixed", {}), **fixed}}
    return {**doc, **{key: val for key, val in given.items() if key in SWEEP_KEYS}}


def _sweep_doc(args) -> dict:
    return _lay_flags(read_doc(Path(args.config)) if args.config else {}, args)


def _sweep_text(doc: dict) -> str:
    cfg = sweep_config(doc)
    table = run_sweep(cfg)
    return table_to_json(table) if cfg.format == "json" else table_to_csv(table)


def _write(text: str, output: str | None) -> None:
    """text to the --output file, or to stdout without one; a file that
    cannot be written is a ConfigError, as one that cannot be read is."""
    if not output:
        sys.stdout.write(text)
        return
    try:
        with open(output, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write {output}: {exc.strerror}") from None


# each command returns its text, and main writes it with _write
def _cmd_sweep(args) -> str:
    return _sweep_text(_sweep_doc(args))


def _cmd_kink(args) -> str:
    return _kink_json(detect_kink(run_sweep(sweep_config(_sweep_doc(args))), args.column))


def _kink_json(report: KinkReport | None) -> str:
    if report is None:
        return "null\n"
    doc = {k: format_value(v) for k, v in report._asdict().items()}
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _cmd_regime_map(args) -> str:
    return regime_map_to_csv(regime_map_from_doc(vars(args)))


def _cmd_oracle(args) -> str:
    params = {key: getattr(args, key) for key in _ORACLE_INPUTS if getattr(args, key) is not None}
    return oracle_to_csv(oracle_run(args.model, params))


def _cmd_preset(args) -> str:
    if args.list:
        return "\n".join(preset_names()) + "\n"
    if args.name is None:
        raise ConfigError("preset name required (or --list)")
    doc = preset_doc(args.name)
    if doc["kind"] != "regime-map":
        return _sweep_text(_lay_flags(doc, args))
    if args.format == "json":
        raise ConfigError(f"preset {args.name} is a regime map, written as CSV only")
    return regime_map_to_csv(regime_map_from_doc(doc))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dissipent",
        description="Entanglement entropy and coherence sweeps for dissipative quantum models",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sweep = sub.add_parser("sweep", help="evaluate a model over a coupling grid")
    _add_sweep_flags(p_sweep)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_kink = sub.add_parser("kink", help="run a sweep and locate a derivative kink")
    _add_sweep_flags(p_kink)
    p_kink.add_argument("--column", default="S")
    p_kink.set_defaults(func=_cmd_kink)

    p_map = sub.add_parser("regime-map", help="sub-Ohmic regime classification grid")
    p_map.add_argument("--s", type=float, required=True)
    p_map.add_argument("--ratio-min", type=float, default=1e-3)
    p_map.add_argument("--ratio-max", type=float, default=0.9)
    p_map.add_argument("--ratio-points", type=int, default=25)
    p_map.add_argument("--alpha-min", type=float, default=1e-4)
    p_map.add_argument("--alpha-max", type=float, default=2.0)
    p_map.add_argument("--alpha-points", type=int, default=25)
    p_map.add_argument("--output")
    p_map.set_defaults(func=_cmd_regime_map)

    p_oracle = sub.add_parser("oracle", help="closed forms vs brute-force oracles")
    p_oracle.add_argument("--model", required=True, choices=list(_ORACLE_READS))
    for key, default in _ORACLE_INPUTS.items():
        kind = float if default is None else type(default)
        p_oracle.add_argument(f"--{key.replace('_', '-')}", type=kind, dest=key)
    p_oracle.add_argument("--output")
    p_oracle.set_defaults(func=_cmd_oracle)

    p_preset = sub.add_parser("preset", help="run a canned figure-reproduction config")
    p_preset.add_argument("name", nargs="?")
    p_preset.add_argument("--list", action="store_true")
    p_preset.add_argument("--format", choices=["csv", "json"])
    p_preset.add_argument("--output")
    p_preset.set_defaults(func=_cmd_preset)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser main uses: built once per process, since parsing leaves
    it unchanged."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        _write(args.func(args), args.output)
        return 0
    except (ConfigError, DomainError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3
    except RegimeError as exc:
        print(f"regime error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())

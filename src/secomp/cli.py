"""Command-line front end.

Subcommands: ``measures``, ``region uncoded``, ``region coded``, ``order``,
``simulate binning``, ``simulate erasure-scheme``, ``preset erasure``.
Distributions travel as a self-describing JSON file (variable names prevent
axis-order bugs); region sweeps emit CSV for plotting, everything else JSON.

Exit codes: 0 success, 1 malformed file or flags or too little memory, 2
invariant breach (for example a PMF that does not normalize, or a simplex
that rounding stops from reaching an optimum). All numeric output is
printed with 12 significant digits and all randomness flows from explicit
--seed flags, so repeated runs with identical arguments are byte-identical.
The JSON is byte for byte what ``json.dump(indent=2)`` writes for the
output with every float rounded to 12 digits; it is built whole and written
at once, so a value that cannot be encoded prints nothing.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys
from json.encoder import encode_basestring_ascii

import numpy as np

from .binning import run_erasure_encoder_scheme, run_sw_binning
from .erasure import ErasureParams, make_erasure_joint
from .orderings import check_stochastic_degradation, search_less_noisy_violation
from .probability import (
    Alphabet,
    Channel,
    DistributionError,
    JointPMF,
    entropy_of,
    mutual_information_of,
    require_variables,
)
from .regions import (
    OptimizerConfig,
    OptResult,
    SwitchConfig,
    coded_inner_bound_sample,
    maximize_equivocation,
)
from .streams import Streams


class CliError(Exception):
    """Malformed input file or flag combination (exit code 1)."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # argparse defaults to exit code 2
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _json_text(obj, memo: dict, indent: str = "\n") -> str:
    """``json.dumps(obj, indent=2)`` of ``obj`` with every float rounded to 12 digits.

    ``indent`` is the newline and indent that close ``obj``; ``memo`` maps
    (float, sign) to its text, the sign because -0.0 == 0.0 prints apart.
    Keys must be strings. A value json cannot encode, or a key that is not
    a string, raises TypeError.
    """
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if isinstance(obj, float):
        key = (obj, math.copysign(1.0, obj))
        text = memo.get(key)
        if text is None:
            value = float(f"{obj:.12g}")
            if value != value:
                text = "NaN"
            elif math.isinf(value):
                text = "Infinity" if value > 0 else "-Infinity"
            else:
                text = float.__repr__(value)
            memo[key] = text
        return text
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    inner = indent + "  "
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [_json_text(v, memo, inner) for v in obj]
        return "[" + inner + ("," + inner).join(items) + indent + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [encode_basestring_ascii(k) + ": " + _json_text(v, memo, inner)
                 for k, v in obj.items()]
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _emit_json(obj, stream) -> None:
    """Write ``obj`` as indented JSON in one write; nothing is written if it cannot be encoded."""
    stream.write(_json_text(obj, {}) + "\n")


def channel_to_dict(channel: Channel) -> dict:
    shape = tuple(a.size for _, a in channel.from_vars)
    pmfs = channel.rows.reshape(-1, channel.to_var[1].size).tolist()
    rows = [
        {
            "given": {name: alph.symbols[i] for (name, alph), i in zip(channel.from_vars, idx)},
            "pmf": pmf,
        }
        for idx, pmf in zip(np.ndindex(*shape), pmfs)
    ]
    return {
        "conditioning": list(channel.from_names),
        "output": channel.to_var[0],
        "output_symbols": list(channel.to_var[1].symbols),
        "rows": rows,
    }


def load_distribution(path: str) -> JointPMF:
    """Read the JSON distribution format into a joint PMF."""
    # open(), not pathlib: a Path interns its parts, which die with it, and
    # that churn regrows the interned-string table (about 1 MB) after a few
    # hundred in-process calls.
    try:
        with open(path) as stream:
            data = json.load(stream)
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # bad JSON or text encoding, or nesting too deep
        raise CliError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict) or "alphabets" not in data or "pmf" not in data:
        raise CliError(f"{path} must be an object with 'alphabets' and 'pmf'")
    alphabets = data["alphabets"]
    if not isinstance(alphabets, dict) or not alphabets:
        raise CliError("'alphabets' must map variable names to symbol lists")
    variables = []
    for name, symbols in alphabets.items():
        if name == "p":
            raise CliError("no variable may be named 'p': it is the key of a pmf record's mass")
        if not isinstance(symbols, list) or not all(isinstance(s, str) for s in symbols):
            raise CliError(f"alphabet {name!r} must be a list of strings")
        try:
            variables.append((name, Alphabet(name, tuple(symbols))))
        except DistributionError as exc:  # empty, or a repeated symbol
            raise CliError(str(exc)) from exc
    shape = tuple(alph.size for _, alph in variables)
    mass = np.zeros(shape)
    records = data["pmf"]
    if not isinstance(records, list):
        raise CliError("'pmf' must be a list of records")
    for rec in records:
        if not isinstance(rec, dict) or "p" not in rec:
            raise CliError(f"pmf record {rec!r} needs a 'p' field")
        # A JSON number loads as int or float (bool is an int subclass); the
        # magnitude test fails for NaN, infinities and ints past the float range.
        p = rec["p"]
        numeric = isinstance(p, (int, float)) and not isinstance(p, bool)
        if not (numeric and abs(p) <= sys.float_info.max):
            raise CliError(f"pmf record {rec!r} has a non-numeric or non-finite 'p'")
        p = float(p)
        idx = []
        for name, alph in variables:
            if name not in rec:
                raise CliError(f"pmf record {rec!r} misses variable {name!r}")
            symbol = rec[name]
            if symbol not in alph.symbols:
                raise CliError(f"symbol {symbol!r} not in alphabet {name!r}")
            idx.append(alph.symbols.index(symbol))
        if len(rec) != len(variables) + 1:
            raise CliError(f"pmf record {rec!r} has a key that is neither a variable nor 'p'")
        mass[tuple(idx)] += p
    return JointPMF(tuple(variables), mass)  # DistributionError -> exit 2


def _load_over(path: str, names: tuple[str, ...]) -> JointPMF:
    """``load_distribution``; a file over other variables than ``names`` is exit 1."""
    joint = load_distribution(path)
    try:
        require_variables(joint, names)
    except DistributionError as exc:
        raise CliError(f"{path}: {exc}") from exc
    return joint


def distribution_to_dict(joint: JointPMF) -> dict:
    """The JSON distribution format of ``joint``; raises ValueError for a variable named 'p'."""
    if "p" in joint.var_names:
        raise ValueError("no variable may be named 'p': it is the key of a pmf record's mass")
    records = []
    for idx, p in zip(np.ndindex(*joint.mass.shape), joint.mass.ravel().tolist()):
        if p == 0.0:
            continue
        rec = {
            name: alph.symbols[i] for (name, alph), i in zip(joint.variables, idx)
        }
        rec["p"] = p
        records.append(rec)
    return {
        "alphabets": {name: list(alph.symbols) for name, alph in joint.variables},
        "pmf": records,
    }


def _cmd_measures(args) -> int:
    joint = load_distribution(args.input)
    names = joint.var_names
    out = {
        "variables": list(names),
        "entropies": {x: entropy_of(joint, x) for x in names},
        "conditional_entropies": {
            f"{x}|{y}": entropy_of(joint, x, y) for x in names for y in names if x != y
        },
        "mutual_informations": {
            f"{x};{y}": mutual_information_of(joint, x, y)
            for i, x in enumerate(names)
            for y in names[i + 1 :]
        },
        "conditional_mutual_informations": {
            f"{x};{y}|{z}": mutual_information_of(joint, x, y, z)
            for i, x in enumerate(names)
            for y in names[i + 1 :]
            for z in names
            if z not in (x, y)
        },
    }
    _emit_json(out, sys.stdout)
    return 0


def _from_flags(make, *args, **kwargs):
    """``make(*args, **kwargs)``; its ValueError for an out-of-range flag is exit 1."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        raise CliError(str(exc)) from exc


def _optimizer_config(args) -> OptimizerConfig:
    return _from_flags(OptimizerConfig, starts=args.starts, seed=args.seed)


def _diagnostics(opt: OptResult, upper_bound: float) -> dict:
    """How a solve was obtained: the fields ``--diagnostics`` appends."""
    return {
        "upper_bound": upper_bound,
        "rounds": opt.rounds,
        "hit_max_rounds": opt.hit_max_rounds,
        "evaluations": opt.evaluations,
        "certified": opt.certified,
    }


def _cmd_region_uncoded(args) -> int:
    joint = _load_over(args.input, ("A", "B", "E"))
    switches = SwitchConfig.from_name(args.switches)
    cfg = _optimizer_config(args)
    result = maximize_equivocation(joint, switches, cfg)
    out = {
        "r_a_min": entropy_of(joint, "A", "B"),
        "delta_star": result.delta_star,
        "best_u": channel_to_dict(result.best_u),
        "starts_agreeing": result.starts_agreeing,
    }
    if args.diagnostics:
        out.update(_diagnostics(result, result.upper_bound))
    _emit_json(out, sys.stdout)
    return 0


def _sample_v_channels(alph_c: Alphabet, count: int, seed: int) -> list[Channel]:
    """Identity and constant corners, then seeded Dirichlet quantizers.

    Quantizer i's rows are ``default_rng((seed, 2, i)).dirichlet(ones, |C|)``
    over |C| + 2 outputs, drawn by ``secomp.streams`` without importing
    ``numpy.random``, so the sweep does not depend on the installed
    ``numpy.random``'s algorithms.
    """
    channels = [
        Channel.copy_of(("C", alph_c), "V"),
        Channel.uniform((("C", alph_c),), ("V", Alphabet("V", ("v0",)))),
    ]
    n_v = alph_c.size + 2
    v_alph = Alphabet("V", tuple(f"v{i}" for i in range(n_v)))
    index = np.arange(count - 2, dtype=np.uint32)
    for rows in Streams(seed, [np.full_like(index, 2), index]).dirichlet(n_v, alph_c.size):
        channels.append(Channel((("C", alph_c),), ("V", v_alph), rows))
    return channels[:count]


def _cmd_region_coded(args) -> int:
    joint = _load_over(args.input, ("A", "C", "E"))
    cfg = _optimizer_config(args)
    if args.v_grid < 1:
        raise CliError(f"--v-grid must be >= 1, got {args.v_grid}")
    channels = _sample_v_channels(joint.alphabet("C"), args.v_grid, args.seed)
    # Every corner is solved before the table is written, so a failed one leaves stdout empty.
    corners = [coded_inner_bound_sample(joint, channel, cfg) for channel in channels]
    sys.stdout.write("r_a,r_c,delta_star\n")
    for corner in corners:
        sys.stdout.write(f"{corner.r_a:.12g},{corner.r_c:.12g},{corner.delta:.12g}\n")
    return 0


# ``order --check`` value -> the direction argument of its library call.
_ORDER_DIRECTIONS = {
    "degraded-eb": "e_degraded_wrt_b",
    "degraded-be": "b_degraded_wrt_e",
    "less-noisy-eb": "b_less_noisy_than_e",
    "less-noisy-be": "e_less_noisy_than_b",
}


def _cmd_order(args) -> int:
    joint = _load_over(args.input, ("A", "B", "E"))
    # Every check takes --starts and --seed, so every check validates them.
    cfg = _optimizer_config(args)
    direction = _ORDER_DIRECTIONS[args.check]
    if args.check.startswith("degraded"):
        if args.diagnostics:
            raise CliError("--diagnostics applies to the less-noisy checks only")
        verdict = check_stochastic_degradation(joint, direction)
    else:
        verdict = search_less_noisy_violation(joint, cfg, direction=direction)
    out = {
        "check": args.check,
        "kind": verdict.kind,
        "certificate": channel_to_dict(verdict.certificate)
        if verdict.certificate
        else None,
        "witness": channel_to_dict(verdict.witness) if verdict.witness else None,
        "gap": verdict.gap,
        "budget_used": verdict.budget_used,
        "physically_degraded": verdict.physically_degraded,
    }
    if args.diagnostics:
        out.update(_diagnostics(verdict.opt, verdict.upper_bound))
    _emit_json(out, sys.stdout)
    return 0


def _emit_report(args, run, *run_args) -> int:
    out = dataclasses.asdict(_from_flags(run, *run_args))
    if not args.diagnostics:
        del out["ties"], out["wrong_decodes"]
    _emit_json(out, sys.stdout)
    return 0


def _cmd_simulate_binning(args) -> int:
    joint = _load_over(args.input, ("A", "B", "E"))
    return _emit_report(args, run_sw_binning, joint, args.n, args.rate, args.trials, args.seed)


def _cmd_simulate_erasure_scheme(args) -> int:
    params = _from_flags(ErasureParams, p_b=args.pb, p_e=args.pe)
    return _emit_report(
        args, run_erasure_encoder_scheme, params, args.n, args.trials, args.seed
    )


def _cmd_preset_erasure(args) -> int:
    params = _from_flags(ErasureParams, p_b=args.pb, p_e=args.pe)
    data = distribution_to_dict(make_erasure_joint(params))
    if args.output:
        try:
            with open(args.output, "w") as stream:
                _emit_json(data, stream)
        except OSError as exc:
            raise CliError(f"cannot write {args.output}: {exc}") from exc
    else:
        _emit_json(data, sys.stdout)
    return 0


def _flag(*names: str, **kwargs) -> argparse.ArgumentParser:
    """A parent parser holding one flag, shared by the subcommands that take it."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(*names, **kwargs)
    return parent


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process; ``parse_args`` leaves it unchanged."""
    parser = _Parser(prog="secomp", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    input_flag = _flag("-i", "--input", required=True)
    seed_flag = _flag("--seed", type=int, default=0)
    starts_flag = _flag(
        "--starts", type=int, default=OptimizerConfig().starts,
        help="random pricing starts of the column-generation search (default %(default)s); "
             "validated but unused where the value is exact: --switches se, a binary A with S_B "
             "open (--switches none, region coded, less-noisy checks), the degradation checks "
             "(order --check degraded-*, which run no search), and wherever a channel scored "
             "before the search meets the upper bound (--switches sb and both on the erasure "
             "preset with --pb <= 0.5)",
    )
    optimizer_flags = [input_flag, starts_flag, seed_flag]
    diagnostics_flag = _flag(
        "--diagnostics", action="store_true",
        help="append upper_bound, rounds (column-generation pricing rounds), hit_max_rounds, "
             "evaluations and certified (no search ran) to the output",
    )

    p = sub.add_parser("measures", parents=[input_flag],
                       help="entropy and mutual-information table")
    p.set_defaults(func=_cmd_measures)

    region = sub.add_parser("region", help="rate-equivocation region values")
    region_sub = region.add_subparsers(dest="region_kind", required=True, parser_class=_Parser)

    p = region_sub.add_parser("uncoded", parents=optimizer_flags + [diagnostics_flag],
                              help="side information seen directly by Bob")
    p.add_argument(
        "--switches", choices=["none", "sb", "se", "both"], default="none",
        help="what the encoder also sees: nothing, Bob's B, Eve's E or both "
             "(default %(default)s); with sb and both, delta_star is the maximum of the "
             "single-letter objective I(A;B|U) - I(A;E|U): an achievable (inner) value, "
             "not the region's equivocation",
    )
    p.set_defaults(func=_cmd_region_uncoded)

    p = region_sub.add_parser("coded", parents=optimizer_flags,
                              help="helper-quantized side information sweep")
    p.add_argument("--v-grid", type=int, default=16, help="number of sampled quantizers")
    p.set_defaults(func=_cmd_region_coded)

    p = sub.add_parser("order", parents=optimizer_flags + [diagnostics_flag],
                       help="degradation / less-noisy verdicts (--diagnostics: less-noisy only)")
    p.add_argument("--check", required=True, choices=list(_ORDER_DIRECTIONS))
    p.set_defaults(func=_cmd_order)

    simulate = sub.add_parser("simulate", help="small-blocklength Monte Carlo")
    sim_sub = simulate.add_subparsers(dest="sim_kind", required=True, parser_class=_Parser)
    sim_diagnostics_flag = _flag(
        "--diagnostics", action="store_true",
        help="append ties and wrong_decodes, the decoding failures behind p_e_hat split by "
             "cause (both 0 for erasure-scheme, which decodes exactly), to the output",
    )

    p = sim_sub.add_parser("binning", parents=[input_flag, seed_flag, sim_diagnostics_flag],
                           help="random binning with uncoded side information")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--rate", type=float, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.set_defaults(func=_cmd_simulate_binning)

    p = sim_sub.add_parser("erasure-scheme", parents=[seed_flag, sim_diagnostics_flag],
                           help="transmit-the-gaps encoder scheme")
    p.add_argument("--pb", type=float, required=True)
    p.add_argument("--pe", type=float, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.set_defaults(func=_cmd_simulate_erasure_scheme)

    preset = sub.add_parser("preset", help="write a built-in distribution file")
    preset_sub = preset.add_subparsers(dest="preset_kind", required=True, parser_class=_Parser)

    p = preset_sub.add_parser("erasure", help="independent erasures of a fair bit")
    p.add_argument("--pb", type=float, required=True)
    p.add_argument("--pe", type=float, required=True)
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_preset_erasure)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        print("error: the command needs more memory than is available", file=sys.stderr)
        return 1
    except (DistributionError, ArithmeticError) as exc:
        print(f"invariant breach: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

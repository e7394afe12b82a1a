"""Command-line surface: state construction, Fisher reports, QSNR sweeps,
and Cramer-Rao benchmarks, emitting JSON or CSV.

Each subcommand takes only its parsed arguments, which carry its own parser
(a usage error found after parsing prints that subcommand's usage), and
returns its document; main encodes it through serialize, which reads the
CSV layout from the document, and writes it once.  Value checks, such as
the --shots and --reps minimums, are the library's domain errors.

Exit codes: 0 success, 1 usage error, a closed output pipe or an
unwritable --out, 2 domain error (including inputs too large to allocate),
3 numerical divergence.  Output files are written atomically (temp file +
rename); stdout is used when --out is omitted.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import tempfile
import warnings
from typing import Any, Dict, Iterable, List, NoReturn, Optional, Sequence

from . import serialize
from .algebra import DeformationKind, DeformationParams
from .errors import (
    BenchmarkError,
    DivergenceError,
    DomainError,
)
from .estimation import (
    calibrate_intensity,
    estimation_report,
    family_class_of,
    leading_order_qsnr,
)
from .montecarlo import crb_benchmark
from .states import DEFAULT_TOL, FAMILIES, ProbeSpec, build_distribution

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DOMAIN = 2
EXIT_NUMERICAL = 3


class _Parser(argparse.ArgumentParser):
    """argparse exits with code 2 on usage errors; the contract wants 1.
    Flags are matched in full only, not by prefix (--epsilon is not
    --epsilons); every subparser is a _Parser too."""

    def __init__(self, **kwargs: Any) -> None:
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message: str) -> NoReturn:
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(EXIT_USAGE)


def _write_output(text: str, out: Optional[str]) -> None:
    if not text.endswith("\n"):
        text += "\n"
    if out is None or out == "-":
        sys.stdout.write(text)
        sys.stdout.flush()  # a closed pipe fails here, inside main
        return
    directory = os.path.dirname(os.path.abspath(out))
    fd, tmp_path = tempfile.mkstemp(dir=directory, prefix=".qdeform-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
        os.replace(tmp_path, out)
    except BaseException:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
        raise


def _add_common(parser: argparse.ArgumentParser, epsilon: bool = True) -> None:
    parser.add_argument("--kind", required=True, choices=["M", "P"],
                        help="deformation kind; under P photon counting sees only "
                             "|ln q|, so epsilon and -epsilon/(1+epsilon) give the "
                             "same counts")
    if epsilon:
        parser.add_argument("--epsilon", required=True, type=float,
                            help="deformation strength (must be > -1); use "
                                 "--epsilon=-1e-3 for negative values")
    parser.add_argument("--tol", type=float, default=DEFAULT_TOL,
                        help="certified tail tolerance, in (0, 1e-6]")
    parser.add_argument("--format", choices=["json", "csv"], default="json")
    parser.add_argument("--out", default=None, help="output path (default stdout)")


def _flag(field: str) -> str:
    return "--" + field.replace("_", "-")


def _takes_n_mean(cls) -> bool:
    """A family whose spec exposes n_mean (thermal) may be given by it."""
    return hasattr(cls, "n_mean")


def _add_spec_flags(parser: argparse.ArgumentParser, classes: Iterable[type]) -> None:
    """Each family's field flag, and --n-mean where a family takes it, in one
    required exclusive group; a flag that several families share is added once."""
    users: Dict[str, List[str]] = {}
    for cls in classes:
        users.setdefault(_flag(cls.field), []).append(cls.family)
        if _takes_n_mean(cls):
            users.setdefault("--n-mean", []).append(cls.family)
    group = parser.add_mutually_exclusive_group(required=True)
    for flag, families in users.items():
        group.add_argument(flag, type=float, help=f"for {'/'.join(families)} probes")


def _spec_from_args(args: argparse.Namespace) -> ProbeSpec:
    """The spec from the one spec flag given, if it is one the family takes;
    else a usage error from the subcommand's own parser."""
    cls = FAMILIES[args.family]
    value = getattr(args, cls.field)
    if value is not None:
        return cls(**{cls.field: value})
    if _takes_n_mean(cls) and args.n_mean is not None:
        return cls.from_mean_photon(args.n_mean)
    args.parser.error(f"family {args.family} takes {_flag(cls.field)}"
                 + (" or --n-mean" if _takes_n_mean(cls) else ""))


def _floats(text: str) -> List[float]:
    """argparse type: a nonempty comma-separated list of floats."""
    items = [part for part in text.split(",") if part.strip()]
    if not items:
        raise argparse.ArgumentTypeError("must be a nonempty comma-separated list")
    try:
        return [float(part) for part in items]
    except ValueError:
        raise argparse.ArgumentTypeError(f"could not parse {text!r}") from None


def _eps_range(text: str) -> List[float]:
    """argparse type: LO:HI:COUNT as COUNT log-spaced values from LO to HI."""
    try:
        lo_text, hi_text, count_text = text.split(":")
        lo, hi, count = float(lo_text), float(hi_text), int(count_text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be LO:HI:COUNT, got {text!r}") from None
    if count < 1 or not (0 < lo <= hi < math.inf):
        raise argparse.ArgumentTypeError("needs 0 < LO <= HI and COUNT >= 1")
    if count == 1:
        return [lo]
    step = (math.log(hi) - math.log(lo)) / (count - 1)
    return [math.exp(math.log(lo) + k * step) for k in range(count)]


def build_parser() -> _Parser:
    parser = _Parser(prog="qdeform",
                     description="Photon statistics and deformation-estimation "
                                 "bounds for q-deformed optical states.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_state = sub.add_parser("state", help="emit a photon-number distribution")
    state_sub = p_state.add_subparsers(dest="family", required=True)
    for family, cls in FAMILIES.items():
        sp = state_sub.add_parser(family)
        sp.set_defaults(run=_cmd_state, parser=sp)
        _add_spec_flags(sp, [cls])
        _add_common(sp)

    p_fisher = sub.add_parser("fisher", help="Fisher/QFI/QSNR report at one point")
    p_fisher.set_defaults(run=_cmd_fisher, parser=p_fisher)
    p_fisher.add_argument("--family", required=True, choices=list(FAMILIES))
    _add_spec_flags(p_fisher, FAMILIES.values())
    _add_common(p_fisher)
    p_fisher.add_argument("--hold", choices=["mean-photon", "intensity"],
                          default="mean-photon",
                          help="family parametrization for the derivative")

    p_qsnr = sub.add_parser("qsnr", help="QSNR sweep against the leading-order table")
    p_qsnr.set_defaults(run=_cmd_qsnr, parser=p_qsnr)
    p_qsnr.add_argument("--family", required=True, choices=list(FAMILIES))
    grid = p_qsnr.add_mutually_exclusive_group(required=True)
    grid.add_argument("--epsilons", type=_floats,
                      help="comma-separated epsilon values")
    grid.add_argument("--eps-range", dest="epsilons", type=_eps_range,
                      metavar="LO:HI:COUNT",
                      help="log-spaced epsilon range (alternative to --epsilons)")
    p_qsnr.add_argument("--n-values", required=True, type=_floats,
                        help="comma-separated target mean photon numbers")
    p_qsnr.add_argument("--raw-intensity", action="store_true",
                        help="treat --n-values as raw |alpha|^2 / n_T instead of "
                             "calibrating the deformed mean")
    _add_common(p_qsnr, epsilon=False)

    p_bench = sub.add_parser("benchmark", help="Monte Carlo Cramer-Rao benchmark")
    p_bench.set_defaults(run=_cmd_benchmark, parser=p_bench)
    p_bench.add_argument("--family", required=True, choices=list(FAMILIES))
    _add_spec_flags(p_bench, FAMILIES.values())
    _add_common(p_bench)
    p_bench.add_argument("--shots", required=True, type=int)
    p_bench.add_argument("--reps", required=True, type=int)
    p_bench.add_argument("--seed", required=True, type=int)
    return parser


def _cmd_state(args: argparse.Namespace) -> Dict[str, Any]:
    spec = _spec_from_args(args)
    params = DeformationParams(DeformationKind(args.kind), args.epsilon)
    return serialize.distribution_to_dict(build_distribution(spec, params, args.tol))


def _cmd_fisher(args: argparse.Namespace) -> Dict[str, Any]:
    spec = _spec_from_args(args)
    kind = DeformationKind(args.kind)
    hold = args.hold.replace("-", "_")
    report = estimation_report(spec, kind, args.epsilon, args.tol, hold)
    return serialize.report_to_dict(report)


def _cmd_qsnr(args: argparse.Namespace) -> Dict[str, Any]:
    for n_value in args.n_values:
        if not 0.0 < n_value < math.inf:
            raise DomainError(f"--n-values must be positive and finite, got {n_value}")
    kind = DeformationKind(args.kind)
    points = []
    for eps in args.epsilons:
        params = DeformationParams(kind, eps)
        for n_value in args.n_values:
            spec = FAMILIES[args.family].from_mean_photon(n_value)
            if not args.raw_intensity:
                spec = calibrate_intensity(spec, params, n_value, args.tol)
            report = estimation_report(spec, kind, eps, args.tol, hold="mean_photon")
            leading = leading_order_qsnr(family_class_of(spec), kind, eps, n_value)
            points.append((eps, n_value, report, leading))
    return serialize.sweep_to_dict(args.family, kind, not args.raw_intensity, points)


def _cmd_benchmark(args: argparse.Namespace) -> Dict[str, Any]:
    spec = _spec_from_args(args)
    kind = DeformationKind(args.kind)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            bench = crb_benchmark(spec, kind, args.epsilon, args.shots, args.reps,
                                  args.seed, args.tol)
        finally:
            # One line per distinct message, without the source path and
            # line that Python's own warning format prints.
            for message in dict.fromkeys(str(w.message) for w in caught):
                sys.stderr.write(f"qdeform: warning: {message}\n")
    return serialize.benchmark_to_dict(bench, spec, kind)


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        doc = args.run(args)
        text = serialize.to_json(doc) if args.format == "json" else serialize.to_csv(doc)
        _write_output(text, args.out)
        return EXIT_OK
    except SystemExit as exc:
        return int(exc.code or 0)
    except (DomainError, MemoryError) as exc:
        # A MemoryError comes from inputs too large to hold in memory, such as
        # a --shots or --reps count beyond any address space.
        sys.stderr.write(f"qdeform: domain error: {exc}\n")
        return EXIT_DOMAIN
    except (DivergenceError, BenchmarkError) as exc:
        sys.stderr.write(f"qdeform: numerical error: {exc}\n")
        return EXIT_NUMERICAL
    except BrokenPipeError:
        # The reader closed stdout early (`| head -1`).  Point stdout at
        # devnull so the interpreter's final flush cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_USAGE
    except OSError as exc:
        # Past parsing only the write does I/O: a missing directory, or a
        # directory given as --out.  _write_output has removed its temp file.
        sys.stderr.write(f"qdeform: cannot write {args.out or '-'}: "
                         f"{exc.strerror or exc}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())

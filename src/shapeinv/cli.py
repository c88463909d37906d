"""Command-line frontend.

Subcommands::

    check EXPR   verify that an operator expression is the zero operator
    suite        run the registered verification battery
    eigen2d      display and check one two-angle eigenfunction
    shape2d      ladder and reconstruction checks at one two-angle level
    osc3d        display and check one oscillator eigenfunction
    dump NAME    print an operator in derived and transcribed forms

One exit-code contract holds across subcommands and output formats: 0 when
every reported check passes, 1 when any check fails, and 2 for usage
errors: bad input, which each command raises as ValueError before any
check runs, a plan that cannot decide (`PlanDegenerate`), and an ``--out``
that cannot be opened; `_dispatch` maps all of them.  The default sampling
seed may be supplied through the SHAPEINV_SEED environment variable; an
explicit ``--seed`` always wins.
"""
from __future__ import annotations

import argparse
import math
import os
import sys
from contextlib import nullcontext
from fractions import Fraction

from . import ladders2d, osc3d, su2
from .dsl import GENERATOR_NAMES, parse_and_build
from .ladders2d import QNum2D
from .osc3d import QNum3D
from .suite import (SuiteConfig, render_text, report_json, run_suite,
                    summary_line)
from .symx import collector_paused, memo, render
from .verify import (TOL_EIGEN, TOL_OPERATOR, IdentityReport, PlanDegenerate,
                     SamplePlan, check_op_zero)

# highest --twol of eigen2d and shape2d, and highest n + n3 + n4 of osc3d
# (at frequencies 1 and 2): the sampled checks lose float precision with
# the level, and up to these every check stays within TOL_EIGEN/10 over
# seeds 0-9 at the default points
EIGEN2D_MAX_TWOL = 14
SHAPE2D_MAX_TWOL = 7
OSC3D_MAX_LEVEL = 9
# most --points: a run's time grows with the count, so a larger count is
# refused before the run, as the levels above are
MAX_POINTS = 1000


def _plan_of(args: argparse.Namespace, default_count: int) -> SamplePlan:
    """The sample plan of `--seed`, with `--points` or `default_count`."""
    return SamplePlan(seed=args.seed, count=args.points or default_count)


def _tol_of(args: argparse.Namespace, default: float) -> float:
    """`--tol` when given, else `default`."""
    return args.tol if args.tol is not None else default


def _usage_error(command: str, message: str) -> int:
    print(f"shapeinv {command}: {message}", file=sys.stderr)
    return 2


def _finish(args: argparse.Namespace, header: list, payload: dict,
            reports: list) -> tuple:
    """The report in the requested format, and its exit code by pass/fail."""
    summary = summary_line(r.passed for r in reports)
    if args.format == "json":
        doc = dict(payload)
        doc["checks"] = [r.as_dict() for r in reports]
        doc["summary"] = summary
        text = report_json(doc)
    else:
        lines = list(header) + [str(r) for r in reports] + [summary]
        text = "\n".join(lines) + "\n"
    return text, 0 if all(r.passed for r in reports) else 1


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_check(args: argparse.Namespace) -> tuple:
    """Parse an operator expression and verify it vanishes on the battery."""
    expr = args.expr.strip()
    op, summands = parse_and_build(args.expr, omega=args.omega)
    rep = check_op_zero(op, _plan_of(args, 32), reference_ops=summands,
                        tol=_tol_of(args, TOL_OPERATOR), name=expr)
    payload = {"expression": expr, "lattice": op.param}
    return _finish(args, [], payload, [rep])


def cmd_suite(args: argparse.Namespace) -> tuple:
    """Run the sectors of the battery that `args.sectors` names (None: all)."""
    config = SuiteConfig(seed=args.seed,
                         points=args.points or SuiteConfig.points,
                         tol_eigen=_tol_of(args, SuiteConfig.tol_eigen))
    report = run_suite(config, sectors=args.sectors)
    text = report_json(report) if args.format == "json" else render_text(report)
    passed = all(e["pass"] for e in report["checks"])
    return text, 0 if passed else 1


def cmd_eigen2d(args: argparse.Namespace) -> tuple:
    if args.twol > EIGEN2D_MAX_TWOL:
        raise ValueError(f"level label --twol must be at most {EIGEN2D_MAX_TWOL}")
    qn = QNum2D(args.twol, args.q, args.m)
    plan, tol = _plan_of(args, 32), _tol_of(args, TOL_EIGEN)
    chi = ladders2d.chi_reduced(qn)
    reports = ladders2d.verify_eigen(qn, plan, tol=tol)
    header = [
        f"state: 2l={qn.twol} q={qn.q} m={qn.m}",
        f"eigenvalue: {qn.eigenvalue()}",
        f"eigenfunction: {render(chi)}",
    ]
    payload = {
        "state": {"twol": qn.twol, "q": qn.q, "m": qn.m},
        "eigenvalue": str(qn.eigenvalue()),
        "eigenfunction": render(chi),
    }
    return _finish(args, header, payload, reports)


def cmd_shape2d(args: argparse.Namespace) -> tuple:
    if args.twol < 0:
        raise ValueError("level label --twol must be nonnegative")
    if args.twol > SHAPE2D_MAX_TWOL:
        raise ValueError(f"level label --twol must be at most {SHAPE2D_MAX_TWOL}")
    if (args.q is None) != (args.m is None):
        raise ValueError("--q and --m must be given together")
    qn = None if args.q is None else QNum2D(args.twol, args.q, args.m)
    plan, tol = _plan_of(args, 24), _tol_of(args, TOL_EIGEN)
    reports = [ladders2d.verify_ladder_actions(args.twol, plan, tol=tol)]
    reports.append(IdentityReport(
        "lowering-pair exchange identity",
        exact=ladders2d.reorder_identity_holds(),
        notes="the two descending compositions agree exactly once the "
              "leading label sits one site down"))
    header = [f"level: 2l={args.twol}"]
    payload = {"level": {"twol": args.twol}}
    if qn is not None:
        reports.extend(ladders2d.reconstruct_chain_reports(qn, plan, tol=tol))
        reports.extend(ladders2d.annihilation_reports(qn, plan, tol))
        header[0] += f"  (state q={args.q} m={args.m})"
        payload["level"].update(q=args.q, m=args.m)
    return _finish(args, header, payload, reports)


def cmd_osc3d(args: argparse.Namespace) -> tuple:
    if args.run_suite:
        return cmd_suite(args)
    if args.n is None or args.m is None:
        raise ValueError("--n and --m are required (or use --suite)")
    qn = QNum3D(args.n, args.m, args.n3, args.n4, args.omega)
    if qn.n + qn.n3 + qn.n4 > OSC3D_MAX_LEVEL:
        raise ValueError(f"level n + n3 + n4 must be at most {OSC3D_MAX_LEVEL}")
    plan, tol = _plan_of(args, 32), _tol_of(args, TOL_EIGEN)
    closed = osc3d.psi_closed(qn)
    ladder = osc3d.psi_ladder(qn)
    reports = [
        osc3d.verify_eigen(qn, plan, closed=True, tol=tol),
        osc3d.verify_eigen(qn, plan, closed=False, tol=tol),
        osc3d.ladder_closed_ratio(qn, plan, tol=tol),
    ]
    reports.extend(osc3d.verify_pair_eigen(qn, plan, tol=tol))
    header = [
        f"state: n={qn.n} m={qn.m} n3={qn.n3} n4={qn.n4} omega={qn.omega}",
        f"energy: {qn.energy()}",
        f"pair scalar: {osc3d.pair_energy(qn.n, qn.m)}",
        f"closed form: {render(closed)}",
        f"ladder form: {render(ladder)}",
    ]
    payload = {
        "state": {"n": qn.n, "m": qn.m, "n3": qn.n3, "n4": qn.n4,
                  "omega": str(qn.omega)},
        "energy": str(qn.energy()),
        "pair_scalar": str(osc3d.pair_energy(qn.n, qn.m)),
        "closed_form": render(closed),
        "ladder_form": render(ladder),
    }
    return _finish(args, header, payload, reports)


def _dump_entry(name: str, omega, plan: SamplePlan):
    """Derived/transcribed operator pair plus a note on their relation."""
    if name in ("Lp", "Lm", "L3", "Rp", "Rm", "R3"):
        derived = getattr(su2.build_reduced_generators(), name)
        printed = su2.reduced_ladder_reference(name)
        full = getattr(su2.build_raw_generators(), name)
        return derived, printed, (
            "generator reduced to the integer lattice, against the "
            "transcribed shift-operator closed form"), \
            {"full_form": full.render()}
    if name == "Casimir":
        return su2.casimir(su2.build_raw_generators()), \
            su2.casimir_reference(), (
            "assembled from the generators, against the transcribed "
            "second-order closed form"), {}
    if name == "Hq":
        bundle = su2.build_Hq(plan)
        offset = bundle.offset.data["value"]
        return bundle.derived, bundle.reference, (
            "weight-conjugated derivation against the transcribed potential "
            f"form; measured additive offset magnitude {abs(offset):.3e}"), {}
    if name == "Hm":
        return osc3d.build_Hm(omega), osc3d.hm_reference(omega), (
            "radial-lattice Hamiltonian; the transcription is correct as "
            "printed"), {}
    # one of the eight oscillators: the parser admits no other name
    notes = {
        "A1": "the transcribed form flips only the psi-derivative sign",
        "A1d": "the transcribed form flips its whole derivative group, "
               "collapsing onto the second lowering combination",
        "A2": "printed and derived forms agree exactly",
        "A2d": "printed and derived forms agree exactly",
    }.get(name)
    printed = (None if notes is None else
               osc3d.combo_reference(name, omega, printed=True))
    return getattr(osc3d.build_combos(omega), name), printed, notes or (
        "built from the chart gradient of its cartesian coordinate; no "
        "separately transcribed closed form is tracked"), {}


def cmd_dump(args: argparse.Namespace) -> tuple:
    name = args.name
    derived, printed, notes, extra = _dump_entry(name, args.omega,
                                                 _plan_of(args, 120))
    match = derived.same_operator(printed) if printed is not None else None
    if args.format == "json":
        payload = {
            "name": name,
            "omega": str(args.omega),
            "derived": {"form": derived.render(), **derived.to_json()},
            "printed": (None if printed is None else
                        {"form": printed.render(), **printed.to_json()}),
            "match": match,
            "notes": notes,
        }
        payload.update(extra)
        text = report_json(payload)
    else:
        lines = [f"operator: {name} (omega = {args.omega})"]
        lines += [f"{k.replace('_', ' ')}: {v}" for k, v in extra.items()]
        lines.append(f"derived: {derived.render()}")
        if printed is not None:
            lines.append(f"printed: {printed.render()}")
            lines.append(f"match: {'yes' if match else 'no'}")
        lines.append(f"notes: {notes}")
        text = "\n".join(lines) + "\n"
    return text, 0


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

def _checked(kind, ok, rule: str):
    """An argparse type: `kind(text)`, refused with `rule` unless `ok` holds."""
    def parse(text: str):
        try:
            value = kind(text)
        except (ValueError, ZeroDivisionError):
            value = None
        if value is None or not ok(value):
            raise argparse.ArgumentTypeError(f"{rule} (got {text!r})")
        return value
    return parse


_positive_fraction = _checked(Fraction, lambda v: v > 0,
                              "frequency must be positive")
_point_count = _checked(int, lambda v: 1 <= v <= MAX_POINTS,
                        "point count must be an integer of at least 1 "
                        f"and at most {MAX_POINTS}")
_tolerance = _checked(float, lambda v: 0 < v < math.inf,
                      "tolerance must be a positive finite number")


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--seed", type=int, default=None,
                   help="sampling seed (default: SHAPEINV_SEED or 0)")
    p.add_argument("--points", type=_point_count, default=None,
                   help="sample points per check")
    p.add_argument("--tol", type=_tolerance, default=None,
                   help="relative-tolerance override")
    p.add_argument("--format", choices=("text", "json"), default="text",
                   help="report format (default: text)")
    p.add_argument("--out", metavar="PATH", default=None,
                   help="write the report to PATH instead of stdout")


class _Parser(argparse.ArgumentParser):
    """Argument parser whose missing-EXPR error names the `--` rule.

    argparse reads an operand such as ``-L3`` as an unknown option and then
    reports EXPR as missing; such an expression must follow ``--``.
    """

    def error(self, message):
        if message.endswith("required: EXPR"):
            message += ("; an expression that starts with '-' must follow "
                        "'--', for example: shapeinv check -- -L3")
        super().error(message)


@memo({})
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once: argparse leaves a parser in reference
    cycles, and parsing does not change it."""
    parser = _Parser(
        prog="shapeinv",
        description="symbolic-numeric verification of a pair of "
                    "ladder-generated Hamiltonian families")
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar="COMMAND")

    p = sub.add_parser("check",
                       help="verify that an operator expression is zero")
    p.add_argument("expr", metavar="EXPR",
                   help="operator expression, e.g. '[Lp, Lm] - 2*L3'")
    p.add_argument("--omega", type=_positive_fraction, default=Fraction(1),
                   help="frequency used by the oscillator generators")
    p.set_defaults(run=cmd_check)
    _add_common(p)

    p = sub.add_parser("suite", help="run the registered verification battery")
    p.set_defaults(run=cmd_suite, sectors=None)
    _add_common(p)

    p = sub.add_parser("eigen2d",
                       help="display and check one two-angle eigenfunction")
    p.add_argument("--twol", type=int, required=True,
                   help="doubled level label")
    p.add_argument("--q", type=int, required=True, help="lattice label")
    p.add_argument("--m", type=int, required=True, help="axis label")
    p.set_defaults(run=cmd_eigen2d)
    _add_common(p)

    p = sub.add_parser("shape2d",
                       help="ladder and reconstruction checks at one level")
    p.add_argument("--twol", type=int, required=True,
                   help="doubled level label")
    p.add_argument("--q", type=int, default=None,
                   help="state for reconstruction checks (with --m)")
    p.add_argument("--m", type=int, default=None,
                   help="state for reconstruction checks (with --q)")
    p.set_defaults(run=cmd_shape2d)
    _add_common(p)

    p = sub.add_parser("osc3d",
                       help="display and check one oscillator eigenfunction")
    p.add_argument("--n", type=int, default=None, help="pair-ladder level")
    p.add_argument("--m", type=int, default=None, help="lattice label")
    p.add_argument("--n3", type=int, default=0, help="third cartesian level")
    p.add_argument("--n4", type=int, default=0, help="fourth cartesian level")
    p.add_argument("--omega", type=_positive_fraction, default=Fraction(1),
                   help="oscillator frequency")
    p.add_argument("--suite", action="store_true", dest="run_suite",
                   help="run the oscillator sector of the battery instead")
    p.set_defaults(run=cmd_osc3d, sectors=("3d",))  # for --suite
    _add_common(p)

    p = sub.add_parser("dump",
                       help="print an operator in derived and transcribed "
                            "forms")
    p.add_argument("name", metavar="NAME", choices=GENERATOR_NAMES,
                   help="one of: " + ", ".join(GENERATOR_NAMES))
    p.add_argument("--omega", type=_positive_fraction, default=Fraction(1),
                   help="frequency used by the oscillator operators")
    p.set_defaults(run=cmd_dump)
    _add_common(p)

    return parser


def main(argv=None) -> int:
    """Run one subcommand with the cyclic collector paused
    (`symx.collector_paused`); its state is restored on return."""
    with collector_paused():
        return _dispatch(argv)


def _dispatch(argv) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.seed is None:
        raw = os.environ.get("SHAPEINV_SEED", "0")
        try:
            args.seed = int(raw)
        except ValueError:
            parser.error(f"SHAPEINV_SEED must be an integer (got {raw!r})")
    # the one usage-error boundary; --out is opened before the run, as the
    # shell's `>` does
    try:
        with (open(args.out, "w", encoding="utf-8") if args.out
              else nullcontext(sys.stdout)) as out:
            text, code = args.run(args)
            out.write(text)
    except OSError as exc:
        return _usage_error(args.command, f"cannot write the report to "
                            f"{args.out or 'stdout'!r}: {exc.strerror or exc}")
    except (ValueError, PlanDegenerate) as exc:
        return _usage_error(args.command, str(exc))
    return code


if __name__ == "__main__":
    sys.exit(main())

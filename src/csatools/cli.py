"""Command-line front end.

Every library operation is exposed as a subcommand with explicit named
flags (no positional numbers: five interacting integer parameters invite
transposition errors).  Results render as aligned text by default, or as
one stable single-line record with `--format json-like-stable-schema`:

    {"command": ..., "inputs": {...}, "outputs": {...}, "provenance": [...]}

with every number as a full decimal string and field order fixed, so the
emitted record re-renders byte-identically after parsing.  Exit codes:
0 success, 1 domain error, 2 usage error, 3 internal-consistency
failure, and 141 from main() when the reader closes stdout early.
`--vp` (offered exactly on the subcommands that take `--p`)
additionally reports the p-adic valuation of each numeric output.

Each subcommand is one row of the table COMMANDS: help text, flags in
input order, and a handler that returns its outputs and provenance.
build_parser() builds the argparse tree from the table, adding `--format`
everywhere and `--vp` wherever the flags include `p`.  run() does the
rest: the inputs block (the parsed flags unless a handler gives its own),
`--vp` decoration, rendering, and the mapping of errors to exit codes.
Handlers look library functions up through their modules at call time,
so a test or tracer that replaces a module attribute reaches them.  They
reach each module through the package (`cs.bounds`, ...), which imports
it on first use, so one call loads only the module its subcommand needs:
`vp` loads `valuation` alone, and only `verify` loads the test suites.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Callable, NamedTuple

import csatools as cs
from .errors import ConsistencyError

RECORD_FORMAT = "json-like-stable-schema"


class UsageError(Exception):
    """Flag combination errors detected after argparse."""


class Result(NamedTuple):
    """What a handler computed; run() names, decorates and renders it."""

    outputs: dict
    provenance: list
    inputs: dict | None = None  # None: the parsed flags, in table order
    text: Callable[[dict], str] | None = None  # renders the outputs in place of _text
    failures: tuple = ()  # lines for stderr; any makes the exit status 3


class Command(NamedTuple):
    help: str
    flags: dict  # flag name -> add_argument keywords, in input order
    handler: Callable[[argparse.Namespace], Result]


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ",".join(map(str, value))
    return str(value)


def _record(command: str, inputs: dict, outputs: dict, provenance: list) -> str:
    import json  # only the record format needs it

    payload = {
        "command": command,
        "inputs": {k: _fmt(v) for k, v in inputs.items()},
        "outputs": {k: _fmt(v) for k, v in outputs.items()},
        "provenance": list(provenance),
    }
    return json.dumps(payload, separators=(", ", ": "))


def _columns(lines: list) -> list:
    """Join each line's cells two spaces apart, padding all but the last to its column's widest."""
    widths = [max(map(len, column)) for column in list(zip(*lines))[:-1]]
    return ["  ".join([*(f"{cell:<{w}}" for cell, w in zip(line, widths)), line[-1]])
            for line in lines]


def _text(inputs: dict, outputs: dict, provenance: list) -> str:
    lines = _columns([(k, _fmt(v)) for k, v in [*inputs.items(), *outputs.items()]])
    return "\n".join(lines + [f"# {note}" for note in provenance])


def _with_vp(outputs: dict, p: int) -> dict:
    decorated = {}
    for key, value in outputs.items():
        decorated[key] = value
        if isinstance(value, int) and not isinstance(value, bool) and value >= 1:
            decorated[f"vp({key})"] = cs.valuation.vp(p, value)
    return decorated


def _csv_ints(text: str):
    if text == "":
        return ()
    try:
        return tuple(int(chunk) for chunk in text.split(","))
    except ValueError:
        msg = f"expected comma-separated integers, got {text!r}"
        raise argparse.ArgumentTypeError(msg) from None


def _deg_res_pair(text: str):
    try:
        deg, res = text.split(":")
        return (int(deg), int(res))
    except ValueError:
        msg = f"expected DEGREE:RESIDUE (for example 2:1), got {text!r}"
        raise argparse.ArgumentTypeError(msg) from None


INT = {"type": int, "required": True}
CSV = {"type": _csv_ints, "required": True}


# --method -> (valuation function, flags after --p in call order, provenance)
_FACTORIAL = {
    "oracle": ("vp_factorial_oracle", ("n",), "sum of floor(n/p^i) over i >= 1"),
    "prime-power": ("vp_factorial_prime_power", ("n",), "vp((p^n)!) = (p^n - 1)/(p - 1)"),
    "k-prime-power": ("vp_factorial_k_times_prime_power", ("k", "n"),
                      "vp((k*p^n)!) = k * vp((p^n)!) for 1 <= k < p"),
    "misc": ("vp_factorial_misc", ("k", "n"),
             "vp((p^k(p^n - 1))!) = vp((p^(k+n))!) - vp((p^k)!) - n"),
}


def _vp_factorial(a) -> Result:
    function, flags, note = _FACTORIAL[a.method]
    if a.k is not None and "k" not in flags:
        raise UsageError(f"--k is not used by --method {a.method}")
    if a.k is None and "k" in flags:
        raise UsageError(f"--k is required for --method {a.method}")
    args = {flag: getattr(a, flag) for flag in flags}
    value = getattr(cs.valuation, function)(a.p, *args.values())
    return Result({"vp": value}, [note], inputs={"p": a.p, "method": a.method, **args})


def _segre_degree(a) -> Result:
    closed = cs.chowring.segre_degree_closed_form(a.shape)  # refuses a degree past the size limit
    expansion = cs.chowring.segre_degree_expansion(a.shape)
    if expansion != closed:
        raise ConsistencyError(
            f"expansion {expansion} != closed form {closed} on shape {a.shape}"
        )
    # the top monomial is the only one of degree sum(d_i - 1) inside the box
    top = tuple(d - 1 for d in a.shape)
    top_power = cs.chowring.ChowClass(a.shape, {top: expansion})
    outputs = {"expansion": expansion, "closed_form": closed, "agree": True,
               "top_power_class": top_power.to_text()}
    return Result(outputs, [
        "expansion: coefficient of the point class in (l1+...+lm)^(sum d_i - m)",
        "closed form: multinomial (sum d_i - m; d_1 - 1, ..., d_m - 1)",
    ])


def _bound_general(a) -> Result:
    shape = cs.bounds.AlgebraShape(a.shape, a.index, a.period)
    report = cs.bounds.general_bound(shape)
    r, top = report.remainder, sum(shape.degrees) - len(shape.degrees)
    outputs = {"multinomial_factor": report.multinomial_factor, "r": r,
               "period_power": report.period_power, "total": report.total}
    inputs = {"shape": shape.degrees, "index": a.index, "period": a.period}
    return Result(outputs, [
        f"multinomial ({top}; {', '.join(str(d - 1) for d in shape.degrees)})",
        f"r = {top} mod {a.index} = {r}",
        f"period_power = {a.period}^{r}",
        "total = multinomial_factor * period_power",
    ], inputs=inputs)


def _bound_prime_power(a) -> Result:
    p, k, n = a.p, a.k, a.n
    report = cs.bounds.prime_power_bound(p, k, n)
    outputs = {"p_part": report.p_part, "m": report.cofactor, "total": report.total}
    return Result(outputs, [
        f"p_part = {p}^({n}*({p}^{k} - 1))",
        f"cofactor = ({p}^{k}*({p}^{n} - 1))! / (({p}^{n} - 1)!)^({p}^{k}) / p_part",
        "total = p_part * cofactor",
    ])


def _bound_baseline(a) -> Result:
    return Result(
        {"total": cs.bounds.baseline_bound(a.point)},
        ["prod (component degree)^(residue degree)"],
        inputs={"points": ";".join(f"{deg}:{res}" for deg, res in a.point)},
    )


def _prop1_table(a) -> Result:
    rows = cs.brauer.prop1_case_table(a.p)
    outputs = {"rows": len(rows)}
    for row in rows:
        outputs[f"term[{row['i']}]"] = row["term"]
        outputs[f"case[{row['i']}]"] = row["case"]

    def table(outputs):  # under --vp, run() has added vp(term[i]) for each i
        cells = [{**row, "vp(term)": outputs.get(f"vp(term[{row['i']}])")} for row in rows]
        header = [k for k in ("i", "factor", "index", "term", "vp(term)", "case")
                  if cells[0][k] is not None]
        return "\n".join(_columns([header, *([_fmt(cell[k]) for k in header] for cell in cells)]))
    return Result(outputs, [
        "term(i) = (p^2/gcd(p^2, i)) * index(A' + i*A) for i = 1..p^2",
        "each term checked against its residue-case value",
    ], text=table)


def _paper_range(a) -> list:
    """The provenance line that marks an answer at r >= p as the formula's, outside the paper."""
    if a.r < a.p:
        return []
    return ["r >= p: outside the paper's range (odd p, n = rp < p^2); the formula's answer"]


def _verify(a) -> Result:
    if a.all and a.suite:
        raise UsageError("--all and --suite cannot be combined")
    if a.suite and len(set(a.suite)) < len(a.suite):
        raise UsageError("--suite cannot name a suite twice")
    try:
        results = cs.verify.run_suites(a.suite)
    except ValueError as exc:  # an unknown suite name
        raise UsageError(exc) from None
    all_ok = all(res.ok for res in results)
    outputs = {}
    for res in results:
        status = "ok" if res.ok else f"FAIL ({len(res.failures)} failures)"
        outputs[res.name] = f"{status}, {res.checks} checks"
    outputs["overall"] = "ok" if all_ok else "FAIL"

    def summary(outputs):
        lines = _columns([(res.name, f"{len(res.failures):>3} failed  {res.checks:>5} checks  "
                                     f"{'ok' if res.ok else 'FAIL'}") for res in results])
        passed = sum(1 for res in results if res.ok)
        return "\n".join(lines + [f"result: {outputs['overall']} ({passed}/{len(results)} suites)"])
    return Result(
        outputs,
        ["deterministic regression, oracle and invariant suites"],
        inputs={"suites": ",".join(res.name for res in results)},
        text=summary,
        failures=tuple(f"{res.name}: {msg}" for res in results for msg in res.failures[:20]),
    )


GROUP_HELP = {"bound": "splitting-field degree bounds"}

COMMANDS = {
    "vp": Command(
        "p-adic valuation of an integer",
        {"p": INT, "n": INT},
        lambda a: Result({"vp": cs.valuation.vp(a.p, a.n)}, ["vp = max e such that p^e divides n"]),
    ),
    "vp-factorial": Command(
        "valuation of a factorial: Legendre oracle or a closed form",
        {"p": INT, "method": {"choices": tuple(_FACTORIAL), "default": "oracle"},
         "n": INT, "k": {"type": int}},
        _vp_factorial,
    ),
    "multinomial": Command(
        "exact multinomial coefficient",
        {"top": INT, "parts": CSV},
        lambda a: Result(
            {"multinomial": cs.valuation.multinomial(a.top, list(a.parts))},
            ["top! / prod(part_i!), computed by iterated binomials"],
        ),
    ),
    "segre-degree": Command(
        "Segre-image degree by ring expansion and closed form", {"shape": CSV}, _segre_degree
    ),
    "bound general": Command(
        "etale bound from index and period",
        {"shape": {**CSV, "help": "component degrees"}, "index": INT, "period": INT},
        _bound_general,
    ),
    "bound prime-power": Command(
        "p-power bound with its cofactor", {"p": INT, "k": INT, "n": INT}, _bound_prime_power
    ),
    "bound baseline": Command(
        "a-priori bound, no index hypothesis",
        {"point": {"type": _deg_res_pair, "action": "append", "required": True,
                   "help": "DEGREE:RESIDUE, repeatable"}},
        _bound_baseline,
    ),
    "bound improvement": Command(
        "baseline p-power vs the index-aware p-part",
        {"p": INT, "k": INT, "n": INT},
        lambda a: Result(
            cs.bounds.bound_improvement(a.p, a.k, a.n)._asdict(),
            ["baseline = p^(n*p^k); improved p-part = p^(n(p^k - 1))"],
        ),
    ),
    "cofactor-m": Command(
        "prime-to-p cofactor of the bound",
        {"p": INT, "k": INT, "n": INT},
        lambda a: Result(
            {"m": cs.bounds.cofactor_m(a.p, a.k, a.n)},
            ["m = (p^k(p^n - 1))! / ((p^n - 1)!)^(p^k) / p^(n(p^k - 1))"],
        ),
    ),
    "karpenko-bound": Command(
        "cycle-degree valuation lower bound (closed form)",
        {"p": INT, "n": INT, "codim": INT},
        lambda a: Result(
            {"lower_bound": cs.karpenko.karpenko_lower_bound(a.p, a.n, a.codim)},
            ["min({ i + n - vp(codim - i) : 0 <= i < codim } u { codim })"],
        ),
    ),
    "corestriction-cert": Command(
        "numeric witness that a corestriction presentation fails",
        {"p": INT, "r": INT},
        lambda a: Result(cs.karpenko.corestriction_certificate(a.p, a.r)._asdict(), [
            "codim = p^(r*p) - p^r - p - 1",
            "observed valuation = r*p - r",
            "violated = observed valuation < cycle-degree lower bound",
            *_paper_range(a),
        ]),
    ),
    "proof-inequalities": Command(
        "symbolic (loop-free) version of the certificate",
        {"p": INT, "r": INT},
        lambda a: Result(
            {"holds": cs.karpenko.proof_inequalities(a.p, a.r),
             **cs.karpenko.auxiliary_inequalities(a.p, a.r)._asdict()},
            [
                "symbolic certificate: proved for every odd p and r >= 1, not computed",
                "auxiliary comparisons p^r >= r+2 and p^r >= r*p evaluated exactly",
                *_paper_range(a),
            ],
        ),
    ),
    "index-reduction": Command(
        "index over the function field of a generalized Severi-Brauer variety",
        {"p": INT, "target": CSV, "fiber": CSV, "d": INT},
        lambda a: Result(
            {"index": cs.brauer.index_reduction(cs.brauer.BrauerVector(a.p, a.target),
                                                cs.brauer.BrauerVector(a.p, a.fiber), a.d)},
            ["gcd over i=1..p^d of (p^d/gcd(p^d, i)) * index(target + i*fiber)"],
        ),
    ),
    "prop1": Command(
        "index-p^2 sharpness scenario",
        {"p": INT},
        lambda a: Result(cs.brauer.prop1_scenario(a.p), [
            "A has all exponents 1; A' has exponents 1,1,2,...,p-1",
            "both indices over the function field of X_{p^2}(A); expected (p^2, p^p)",
        ]),
    ),
    "prop1-table": Command("per-term case table of the prop1 gcd", {"p": INT}, _prop1_table),
    "prop2": Command(
        "index-p^d sharpness scenario (d < n < p)",
        {"p": INT, "d": INT, "n": INT},
        lambda a: Result(cs.brauer.prop2_scenario(a.p, a.d, a.n), [
            "A has all exponents 1; A' has exponents 1,2,...,n",
            "both indices over the function field of X_{p^d}(A); expected (p^d, p^n)",
        ]),
    ),
    "verify": Command(
        "run the regression and oracle suites",
        {"all": {"action": "store_true", "help": "run every suite (default)"},
         "suite": {"action": "append", "help": "run only the named suite(s), repeatable"}},
        _verify,
    ),
}


class _Parser(argparse.ArgumentParser):
    """Quotes each choice in an invalid-choice error, as Python 3.10 to 3.13.0 do (3.13.13 does not)."""

    def _check_value(self, action, value):
        if action.choices is not None and value not in action.choices:
            choices = ", ".join(map(repr, action.choices))
            raise argparse.ArgumentError(action, f"invalid choice: {value!r} (choose from {choices})")


def _lister(level: str):
    """Help formatter for a parser that lists the commands under `level` ("" is the top).

    Python 3.13 measures the listed names at their own indent, two columns
    deeper than 3.10-3.12 do.  Capping the help column at 4 + the longest
    name listed gives every version the same layout.
    """
    names = [name[len(level):].split()[0] for name in COMMANDS if name.startswith(level)]
    position = min(24, 4 + max(map(len, names)))
    return lambda prog: argparse.HelpFormatter(prog, max_help_position=position)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="csatools",
        formatter_class=_lister(""),
        description=(
            "Exact-arithmetic invariants of central simple and Azumaya "
            "algebras: valuations, Segre degrees, splitting bounds, "
            "cycle-degree certificates and index reduction."
        ),
    )
    # "" is the top level; a group such as "bound" gets its own level on first use.
    levels = {"": parser.add_subparsers(required=True, metavar="command")}
    for name, command in COMMANDS.items():
        group, _, leaf = name.rpartition(" ")
        if group not in levels:
            group_parser = levels[""].add_parser(group, help=GROUP_HELP[group],
                                                 formatter_class=_lister(f"{group} "))
            levels[group] = group_parser.add_subparsers(required=True, metavar="kind")
        cmd = levels[group].add_parser(leaf, help=command.help)
        cmd.set_defaults(command=name)
        cmd.add_argument("--format", choices=("text", RECORD_FORMAT), default="text",
                         help="output rendering (default: aligned text)")
        if "p" in command.flags:
            cmd.add_argument("--vp", action="store_true",
                             help="also report the p-adic valuation of each numeric output")
        for flag, options in command.flags.items():
            cmd.add_argument(f"--{flag}", **options)
    return parser


def run(argv=None) -> int:
    """Parse and execute; returns the process exit status."""
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2

    command = COMMANDS[args.command]
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)  # flags were parsed under the cap; nothing after is
    try:
        result = command.handler(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ConsistencyError as exc:
        print(f"internal consistency failure: {exc}", file=sys.stderr)
        return 3
    else:
        inputs = result.inputs
        if inputs is None:
            inputs = {flag: getattr(args, flag) for flag in command.flags}
        outputs = result.outputs
        if getattr(args, "vp", False):
            outputs = _with_vp(outputs, args.p)

        for line in result.failures:
            print(line, file=sys.stderr)
        if args.format == RECORD_FORMAT:
            print(_record(args.command, inputs, outputs, result.provenance))
        elif result.text is not None:
            print(result.text(outputs))
        else:
            print(_text(inputs, outputs, result.provenance))
        return 3 if result.failures else 0
    finally:
        sys.set_int_max_str_digits(saved)


def main() -> None:
    try:
        code = run()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout (`| head` does).  Point stdout at devnull
        # so the flush at exit cannot fail again, and exit with 128 + SIGPIPE,
        # as a Unix tool cut off by its reader does.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(141)
    sys.exit(code)

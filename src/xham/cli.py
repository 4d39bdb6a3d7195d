"""Command-line entry point.

Output follows SAT-solver conventions: `s` status lines, `v` value lines
of signed literals terminated by 0, exit code 10 when an answer/model was
found, 20 for unsatisfiable, 0 for non-decision subcommands, 1 for usage
or input errors.

A call after a known subcommand is read straight off that subcommand's
argparse action table when every token is an exact option string, that
option's value or a lone positional, and the options are plain stores,
`store_true` flags and single positionals (see `parse_args`). argparse
answers everything else, with one parser level: the arguments after a
known subcommand go to its parser, and the top-level parser answers the
rest (no arguments, `-h`, an unknown command) and reports arguments the
subcommand leaves over, so every message and exit code is the one the
two-level parse gives.
"""

from __future__ import annotations

import argparse
import functools
import io
import sys
import time

from .branching import max_hamming_q
from .dimacs import ParseError, load_formula, serialize_formula
from .formula import Assignment, Formula, SearchStats, hamming_distance, verify_xmodel
from .gen import planted_formula, random_formula
from .oracle import CapExceeded, enumerate_xmodels, max_hamming_brute
from .solver import find_xmodel
from .subset_scan import max_hamming_p
from .tau import parse_branch_spec, tau_root

EXIT_ANSWER = 10
EXIT_UNSAT = 20
EXIT_OK = 0
EXIT_ERROR = 1


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on usage errors; the CLI contract wants 1.

    `build_parser` sets `commands` on the top-level parser, each
    subcommand's name mapped to its own parser, and `tables`, each name
    mapped to that parser's `_action_table`.
    """

    def error(self, message):
        self.exit(EXIT_ERROR, f"{self.prog}: error: {message}\n")


def _value_line(model: Assignment, variables) -> str:
    lits = [v if model[v] else -v for v in sorted(variables)]
    return "v " + " ".join(str(l) for l in lits + [0])


def _planted_spec(text: str) -> tuple[int, int]:
    try:
        length, degree = (int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected K,D, got {text!r}") from None
    return length, degree


@functools.cache  # built on the first call to main, not at import; parsing leaves it unchanged
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="xham", description="Max Hamming distance between XSAT models")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="decide x-satisfiability, print one model")
    p_solve.add_argument("file")

    p_max = sub.add_parser("maxham", help="maximum Hamming distance between x-models")
    p_max.add_argument("--algo", choices=("p", "q", "brute"), default="q")
    p_max.add_argument("--witness", action="store_true", help="print a maximizing model pair (p/brute)")
    p_max.add_argument("--stats", action="store_true", help="print search statistics")
    p_max.add_argument(
        "--count-free",
        action="store_true",
        help="count declared-but-unused variables as free flips",
    )
    p_max.add_argument("file")

    p_models = sub.add_parser("models", help="enumerate all x-models")
    p_models.add_argument("file")

    p_tau = sub.add_parser(
        "tau",
        help="largest root of a branching recurrence; comma separates several specs",
    )
    p_tau.add_argument("spec", nargs="+", help="decrements like 7^2 3^6")

    p_gen = sub.add_parser("gen", help="generate a random instance")
    p_gen.add_argument("--vars", type=int, required=True)
    p_gen.add_argument("--clauses", type=int, default=None, help="uniform instances only")
    p_gen.add_argument("--len", type=int, default=None, dest="length", help="uniform instances only")
    p_gen.add_argument(
        "--planted",
        type=_planted_spec,
        default=None,
        metavar="K,D",
        help="degree-regular instance with a hidden x-model: clauses of length K, each variable in D of them",
    )
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("-o", "--output", default=None)

    p_bench = sub.add_parser("bench", help="run seeded instances, emit CSV")
    p_bench.add_argument("--algo", choices=("p", "q", "brute"), default="q")
    p_bench.add_argument("--runs", type=int, required=True)
    p_bench.add_argument("--vars", type=int, required=True)
    p_bench.add_argument("--clauses", type=int, required=True)
    p_bench.add_argument("--len", type=int, required=True, dest="length")
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("-o", "--output", default=None)

    p_verify = sub.add_parser("verify", help="check a witness pair against an instance")
    p_verify.add_argument("file")
    p_verify.add_argument("witnesses")

    parser.commands = {
        "solve": p_solve,
        "maxham": p_max,
        "models": p_models,
        "tau": p_tau,
        "gen": p_gen,
        "bench": p_bench,
        "verify": p_verify,
    }
    parser.tables = {name: _action_table(command) for name, command in parser.commands.items()}
    return parser


def _action_table(command: argparse.ArgumentParser):
    """(option string -> action, the positional actions in order, each
    dest's default in action order, the dests of required options), read
    off a subcommand parser's own actions; None when it holds an action
    `_read_table` cannot stand in for.

    The help action is left out, so `-h` reaches argparse. A plain store
    takes one value and `store_true` none; any other kind of action (a
    `nargs` list, a count, an append), a string default that argparse
    would pass through `type`, a parser-level default or a mutually
    exclusive group leaves the parser to argparse.
    """
    if command._defaults or command._mutually_exclusive_groups:
        return None
    options, positionals, defaults = {}, [], {}
    for action in command._actions:
        if isinstance(action, argparse._HelpAction):
            continue
        store = type(action) is argparse._StoreAction and action.nargs is None
        flag = type(action) is argparse._StoreTrueAction
        if not (store or flag) or (isinstance(action.default, str) and action.type is not None):
            return None
        for option in action.option_strings:
            options[option] = action
        if not action.option_strings:
            positionals.append(action)
        if action.default is not argparse.SUPPRESS:
            defaults[action.dest] = action.default
    required = {action.dest for action in options.values() if action.required}
    return options, positionals, defaults, required


def _read_table(table, argv) -> argparse.Namespace | None:
    """The Namespace argparse gives for argv, a known subcommand and its
    arguments, read off the subcommand's `_action_table`; None where only
    argparse can tell.

    Each token is an exact option string, the value after a plain store
    or the next positional. A token starting with `-` that is no option
    string, a value starting with `-` or missing, a `type` that raises, a
    value outside `choices`, a positional too many or too few and a
    required option left out all go to argparse, which gives their
    message or reading.
    """
    if table is None:
        return None
    options, positionals, defaults, required = table
    given = {}
    tokens, free = iter(argv[1:]), iter(positionals)
    for token in tokens:
        action = options.get(token)
        if action is None:
            if token[:1] == "-":
                return None
            action, value = next(free, None), token
            if action is None:
                return None
        elif action.nargs == 0:
            given[action.dest] = action.const
            continue
        else:
            value = next(tokens, None)
            if value is None or value[:1] == "-":
                return None
        if action.type is not None:
            try:
                value = action.type(value)
            except (argparse.ArgumentTypeError, TypeError, ValueError):  # argparse's error
                return None
        if action.choices is not None and value not in action.choices:
            return None
        given[action.dest] = value
    if next(free, None) is not None or not required <= given.keys():
        return None
    return argparse.Namespace(command=argv[0], **{**defaults, **given})


def parse_args(argv=None) -> argparse.Namespace:
    """What `build_parser().parse_args(argv)` returns or raises.

    An argv that starts with a known subcommand, whose other tokens are
    exact option strings of that subcommand, their values and its
    positionals, is read off the subcommand's action table
    (`_read_table`). argparse answers everything else, with one parser
    level when argv starts with a known subcommand: `-h`, abbreviations,
    `--opt=value`, `--`, a token or value starting with `-`, a missing or
    extra argument, a value its `type` or `choices` refuses, and every
    argv of a subcommand whose actions the table does not cover, such as
    `tau`'s list of specs.
    """
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser()
    command = parser.commands.get(argv[0]) if argv else None
    if command is None:
        return parser.parse_args(argv)
    args = _read_table(parser.tables[argv[0]], argv)
    if args is not None:
        return args
    args, extra = command.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
    if extra:
        parser.error(f"unrecognized arguments: {' '.join(extra)}")
    return args


def main(argv=None) -> int:
    try:
        args = parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _HANDLERS[args.command](args)
    except (ParseError, CapExceeded, OSError, ValueError) as exc:
        print(f"xham: error: {exc}", file=sys.stderr)
        return EXIT_ERROR


def _cmd_solve(args) -> int:
    formula = load_formula(args.file)
    model = find_xmodel(formula)
    if model is None:
        print("s UNSAT")
        return EXIT_UNSAT
    print("s XSAT")
    print(_value_line(model, formula.variables()))
    return EXIT_ANSWER


def _run_maxham(formula: Formula, algo: str, stats: SearchStats):
    if algo == "q":
        return max_hamming_q(formula, stats)
    if algo == "p":
        return max_hamming_p(formula, stats)
    return max_hamming_brute(formula)


def _cmd_maxham(args) -> int:
    if args.witness and args.algo == "q":
        print("xham: error: --witness needs --algo p or brute", file=sys.stderr)
        return EXIT_ERROR
    formula = load_formula(args.file)
    stats = SearchStats()
    result = _run_maxham(formula, args.algo, stats)
    if result.unsat:
        print("s UNSATISFIABLE")
        return EXIT_UNSAT

    distance = result.distance
    witnesses = result.witnesses
    if args.count_free:
        unused = formula.num_vars - len(formula.variables())
        distance += unused
        if witnesses is not None and unused:
            first, second = (dict(w) for w in witnesses)
            for v in range(1, formula.num_vars + 1):
                if v not in first:
                    first[v] = True
                    second[v] = False
            witnesses = (first, second)
    print(f"s MAXHAM {distance}")
    if args.witness and witnesses is not None:
        variables = witnesses[0].keys()
        print(_value_line(witnesses[0], variables))
        print(_value_line(witnesses[1], variables))
    if args.stats:
        if args.algo == "q":
            print(f"c stats nodes={stats.nodes} leaves={stats.leaves}")
        elif args.algo == "p":
            print(f"c stats solver_calls={stats.solver_calls} subsets={stats.subsets_checked}")
    return EXIT_ANSWER


def _cmd_models(args) -> int:
    formula = load_formula(args.file)
    for model in enumerate_xmodels(formula):
        print(_value_line(model, formula.variables()))
    return EXIT_OK


def _cmd_tau(args) -> int:
    joined = " ".join(args.spec)
    for spec in joined.split(","):
        if not spec.strip():
            continue
        root = tau_root(parse_branch_spec(spec))
        print(f"{root:.6f}")
    return EXIT_OK


def _cmd_gen(args) -> int:
    if args.planted is not None:
        if args.clauses is not None or args.length is not None:
            raise ValueError("--planted sets the clause count and length; drop --clauses and --len")
        formula = planted_formula(args.vars, *args.planted, args.seed)
    elif args.clauses is None or args.length is None:
        raise ValueError("gen needs --clauses and --len, or --planted K,D")
    else:
        formula = random_formula(args.vars, args.clauses, args.length, args.seed)
    text = serialize_formula(formula)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _cmd_bench(args) -> int:
    import csv  # only bench writes CSV; loading it at import would cost every call

    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(["id", "n", "m", "len", "algo", "result", "nodes", "leaves", "ms"])
    for run in range(args.runs):
        seed = args.seed + run
        formula = random_formula(args.vars, args.clauses, args.length, seed)
        stats = SearchStats()
        start = time.perf_counter()
        result = _run_maxham(formula, args.algo, stats)
        elapsed_ms = (time.perf_counter() - start) * 1000.0
        outcome = "unsat" if result.unsat else str(result.distance)
        nodes, leaves = stats.nodes, stats.leaves
        if args.algo == "p":
            nodes, leaves = stats.solver_calls, 0
        writer.writerow(
            [f"s{seed}", args.vars, args.clauses, args.length, args.algo, outcome, nodes, leaves, f"{elapsed_ms:.3f}"]
        )
    text = buffer.getvalue()
    if args.output:
        with open(args.output, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _parse_witness_file(path, num_vars: int) -> list[Assignment]:
    """One assignment per value line; a literal outside 1..num_vars, or a
    variable named with both signs, raises ValueError."""
    assignments: list[Assignment] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            tokens = line.split()
            if not tokens:
                continue
            if tokens[0] == "v":
                tokens = tokens[1:]
            elif tokens[0] in ("c", "s"):
                continue
            assignment: Assignment = {}
            for lit in map(int, tokens):
                if abs(lit) > num_vars:
                    raise ValueError(f"witness literal {lit} out of range for {num_vars} variables")
                if lit and assignment.setdefault(abs(lit), lit > 0) != (lit > 0):
                    raise ValueError(f"witness names variable {abs(lit)} with both signs")
            assignments.append(assignment)
    return assignments


def _cmd_verify(args) -> int:
    formula = load_formula(args.file)
    assignments = _parse_witness_file(args.witnesses, formula.num_vars)
    if len(assignments) != 2:
        print(f"xham: error: expected 2 witness lines, found {len(assignments)}", file=sys.stderr)
        return EXIT_ERROR
    first, second = assignments
    if first.keys() != second.keys():
        print("xham: error: witness variable sets differ", file=sys.stderr)
        return EXIT_ERROR
    try:
        ok = verify_xmodel(formula, first) and verify_xmodel(formula, second)
    except ValueError as exc:
        print(f"xham: error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    if not ok:
        print("xham: error: witness is not an x-model", file=sys.stderr)
        return EXIT_ERROR
    print(f"s VERIFIED {hamming_distance(first, second)}")
    return EXIT_ANSWER


_HANDLERS = {
    "solve": _cmd_solve,
    "maxham": _cmd_maxham,
    "models": _cmd_models,
    "tau": _cmd_tau,
    "gen": _cmd_gen,
    "bench": _cmd_bench,
    "verify": _cmd_verify,
}


if __name__ == "__main__":
    sys.exit(main())

"""Reading and writing the instance file format.

DIMACS-inspired: comment lines start with `c`, the header is
`p xsat <num_vars> <num_clauses>`, and each clause is a whitespace
separated run of nonzero integers terminated by 0. Newlines carry no
meaning beyond whitespace, so clauses may span or share lines.

`parse_formula` splits the text into tokens once, converts the clause
tokens to integers in bulk and cuts them into clauses at the zeros, in
one pass over the literals. No token carries its line: an error message
finds the line of the offending token only when a check fails.
"""

from __future__ import annotations

from .formula import Formula


class ParseError(ValueError):
    """Malformed instance text; the message names the offending line."""


def _tokens(text: str) -> list[str]:
    """The whitespace-separated tokens of every line that is not a comment."""
    if "c" not in text:  # no comment line; one split of the whole text is faster
        return text.split()
    return " ".join([line for line in text.splitlines() if not line.lstrip().startswith("c")]).split()


def _line_of(text: str, index: int) -> int:
    """The line number of token `index`, counted as `_tokens` counts tokens."""
    for lineno, line in enumerate(text.splitlines(), start=1):
        words = line.split()
        if words and words[0].startswith("c"):
            continue
        index -= len(words)
        if index < 0:
            return lineno
    raise IndexError("token index past the last token")


def _clause_token_error(text: str, tokens: list[str], num_vars: int) -> ParseError:
    """The error for the first clause token that is not an integer or names a
    variable above `num_vars`; the caller knows there is one."""
    for index in range(4, len(tokens)):
        try:
            var = abs(int(tokens[index]))
        except ValueError:
            return ParseError(f"line {_line_of(text, index)}: expected integer literal, got {tokens[index]!r}")
        if var > num_vars:
            return ParseError(f"line {_line_of(text, index)}: variable {var} exceeds declared count {num_vars}")
    raise AssertionError("no clause token fails a check")


def parse_formula(text: str) -> Formula:
    """Parse instance text into a Formula.

    Clause literal order is preserved. Variable indices above the
    declared count are rejected rather than auto-extended.

    The clause tokens are converted to integers in one `map` and cut
    into clauses at their zeros in one pass. Tokens carry no line
    numbers: when a check fails, `_line_of` counts the tokens again up to
    the offending one, so the message names the line a token-by-token
    reading names. These checks are the ones `Formula.__post_init__`
    makes, so the formula is built without running them again.
    """
    tokens = _tokens(text)
    if not tokens:
        raise ParseError("line 1: missing 'p xsat <vars> <clauses>' header")
    if len(tokens) < 4 or tokens[0] != "p" or tokens[1] != "xsat":
        raise ParseError(f"line {_line_of(text, 0)}: malformed header, expected 'p xsat <vars> <clauses>'")
    try:
        num_vars = int(tokens[2])
        num_clauses = int(tokens[3])
        if num_vars < 0 or num_clauses < 0:
            raise ValueError
    except ValueError:
        raise ParseError(f"line {_line_of(text, 2)}: header counts must be non-negative integers") from None

    try:
        lits = list(map(int, tokens[4:]))
    except ValueError:
        lits = None
    if lits is None or (lits and (max(lits) > num_vars or min(lits) < -num_vars)):
        raise _clause_token_error(text, tokens, num_vars)

    clauses: list[tuple[int, ...]] = []
    clause: list[int] = []
    for lit in lits:
        if lit:
            clause.append(lit)
        else:
            clauses.append(tuple(clause))
            clause = []
    if clause:
        raise ParseError(f"line {_line_of(text, len(tokens) - 1)}: clause missing terminating 0")
    if len(clauses) != num_clauses:
        raise ParseError(
            f"line {_line_of(text, len(tokens) - 1)}: header declares {num_clauses} clauses, found {len(clauses)}"
        )
    formula = object.__new__(Formula)
    object.__setattr__(formula, "num_vars", num_vars)
    object.__setattr__(formula, "clauses", tuple(clauses))
    return formula


def serialize_formula(formula: Formula) -> str:
    """Render a formula in the instance format; parse round-trips it."""
    lines = [f"p xsat {formula.num_vars} {len(formula.clauses)}"]
    for clause in formula.clauses:
        lines.append(" ".join(str(lit) for lit in clause + (0,)))
    return "\n".join(lines) + "\n"


def load_formula(path) -> Formula:
    """Read and parse an instance file, which must be UTF-8."""
    with open(path, "rb") as handle:
        return parse_formula(handle.read().decode("utf-8"))

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from xham import Formula, ParseError, parse_formula, serialize_formula

from conftest import formula


class TestParse:
    def test_single_clause(self):
        f = parse_formula("p xsat 3 1\n1 2 3 0")
        assert f.num_vars == 3
        assert f.clauses == ((1, 2, 3),)

    def test_unit_clauses(self):
        f = parse_formula("p xsat 2 2\n1 0\n-1 0")
        assert f.num_vars == 2
        assert f.clauses == ((1,), (-1,))

    def test_index_above_declared_count(self):
        with pytest.raises(ParseError, match="exceeds"):
            parse_formula("p xsat 2 1\n1 3 0")

    def test_comments_and_layout_are_free(self):
        f = parse_formula("c header comment\np xsat 3 2\n1 2\n3 0 -1\nc mid\n-2 -3 0\n")
        assert f.clauses == ((1, 2, 3), (-1, -2, -3))

    def test_missing_terminator(self):
        with pytest.raises(ParseError, match="terminating 0"):
            parse_formula("p xsat 2 1\n1 2")

    def test_malformed_header(self):
        with pytest.raises(ParseError, match="header"):
            parse_formula("p cnf 2 1\n1 2 0")

    def test_wrong_clause_count(self):
        with pytest.raises(ParseError, match="declares"):
            parse_formula("p xsat 2 2\n1 2 0")

    def test_error_names_line(self):
        with pytest.raises(ParseError, match="line 3"):
            parse_formula("p xsat 2 1\nc filler\n1 9 0")

    def test_empty_clause_round_trips(self):
        f = parse_formula("p xsat 0 1\n0")
        assert f.clauses == ((),)


class TestSerialize:
    def test_single_clause(self):
        assert serialize_formula(formula((1, 2, 3))) == "p xsat 3 1\n1 2 3 0\n"

    def test_empty_formula(self):
        assert serialize_formula(Formula(0, ())) == "p xsat 0 0\n"

    def test_num_vars_inferred_when_unset(self):
        f = Formula.from_clauses([(1,), (-1,)])
        assert serialize_formula(f) == "p xsat 1 2\n1 0\n-1 0\n"


@given(
    st.integers(1, 8).flatmap(
        lambda n: st.lists(
            st.lists(
                st.integers(1, n).flatmap(lambda v: st.sampled_from([v, -v])),
                max_size=5,
            ).map(tuple),
            max_size=6,
        ).map(lambda cs: Formula(n, tuple(cs)))
    )
)
def test_round_trip(f):
    assert parse_formula(serialize_formula(f)) == f


def reference_parse(text: str) -> Formula:
    """The token-by-token parser `parse_formula` replaced: each token keeps
    its line, and each one is converted and checked on its own."""
    tokens: list[tuple[str, int]] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("c"):
            continue
        for tok in stripped.split():
            tokens.append((tok, lineno))

    if not tokens:
        raise ParseError("line 1: missing 'p xsat <vars> <clauses>' header")
    if len(tokens) < 4 or tokens[0][0] != "p" or tokens[1][0] != "xsat":
        raise ParseError(f"line {tokens[0][1]}: malformed header, expected 'p xsat <vars> <clauses>'")
    try:
        num_vars = int(tokens[2][0])
        num_clauses = int(tokens[3][0])
        if num_vars < 0 or num_clauses < 0:
            raise ValueError
    except ValueError:
        raise ParseError(f"line {tokens[2][1]}: header counts must be non-negative integers") from None

    clauses: list[tuple[int, ...]] = []
    current: list[int] = []
    last_line = tokens[3][1]
    for tok, lineno in tokens[4:]:
        last_line = lineno
        try:
            lit = int(tok)
        except ValueError:
            raise ParseError(f"line {lineno}: expected integer literal, got {tok!r}") from None
        if lit == 0:
            clauses.append(tuple(current))
            current = []
            continue
        if abs(lit) > num_vars:
            raise ParseError(f"line {lineno}: variable {abs(lit)} exceeds declared count {num_vars}")
        current.append(lit)
    if current:
        raise ParseError(f"line {last_line}: clause missing terminating 0")
    if len(clauses) != num_clauses:
        raise ParseError(f"line {last_line}: header declares {num_clauses} clauses, found {len(clauses)}")
    return Formula(num_vars, tuple(clauses))


def outcome(parse, text):
    try:
        return parse(text)
    except ParseError as exc:
        return f"ParseError: {exc}"


COMMENTS = ["c", "c a comment", "  c indented", "\tcnf 1 0", "c p xsat 9 9"]
BLANKS = ["", "   ", "\t"]


def spoil(tokens: list[str], rng: random.Random) -> None:
    """Spoil the tokens [p, xsat, n, m, clause tokens...] of an instance
    with n >= 1 in one of six ways."""
    anywhere = rng.randrange(4, len(tokens) + 1)
    kind = rng.randrange(6)
    if kind == 0:
        tokens.insert(anywhere, rng.choice(["x", "1.5", "--1", "abc"]))
    elif kind == 1:
        tokens.insert(anywhere, rng.choice(["", "-"]) + str(int(tokens[2]) + 1))
    elif kind == 2:
        tokens.append(rng.choice(["1", "-1", "+1"]))  # a clause without its 0
    elif kind == 3:
        tokens[3] = str(int(tokens[3]) + rng.choice([-1, 1]))
    elif kind == 4:
        tokens[rng.choice([2, 3])] = rng.choice(["-1", "two", ""])
    else:
        tokens[rng.choice([0, 1])] = rng.choice(["P", "cnf", "q"])


def random_text(rng: random.Random) -> str:
    """An instance laid out at random: clauses spanning and sharing lines,
    clause tokens on the header line, the header itself split over lines,
    comments, blank lines, tabs, LF or CRLF, positive literals spelt
    `+k`, and clause terminators spelt `-0`, `+0` or `00`, which `int`
    reads as 0 too. About a third are spoiled."""
    n = rng.randint(1, 6)
    clauses = [
        [rng.choice([v, -v]) for v in rng.sample(range(1, n + 1), rng.randint(0, min(n, 4)))]
        for _ in range(rng.randint(0, 5))
    ]
    tokens = ["p", "xsat", str(n), str(len(clauses))]
    for clause in clauses:
        tokens += [f"+{lit}" if lit > 0 and rng.random() < 0.2 else str(lit) for lit in clause]
        tokens.append(rng.choice(["-0", "+0", "00"]) if rng.random() < 0.2 else "0")
    if rng.random() < 0.35:
        spoil(tokens, rng)
    lines, line = [], []
    for tok in tokens:
        line.append(tok)
        if rng.random() < 0.35:
            lines.append(line)
            line = []
    lines.append(line)
    out = []
    for line in lines:
        while rng.random() < 0.25:
            out.append(rng.choice(COMMENTS + BLANKS))
        out.append(rng.choice(["", " ", "\t"]) + rng.choice([" ", "  ", "\t"]).join(line))
    newline = rng.choice(["\n", "\r\n"])
    return newline.join(out) + rng.choice(["", newline])


def test_random_layouts_match_the_reference():
    rng = random.Random(20)
    texts = [random_text(rng) for _ in range(3000)]
    errors = 0
    for text in texts:
        expected = outcome(reference_parse, text)
        assert outcome(parse_formula, text) == expected, text
        errors += isinstance(expected, str)
    # Both the accepting and the rejecting side are well covered.
    assert 600 < errors < 2000


MALFORMED = [
    "p xsat 2 1\n1 x 0\n",
    "p xsat 2 1\n1 abc 0\n",
    "p xsat 2 1\n1 2 c 0\n",
    "p xsat 2 2\n1 3 0\nfoo 0\n",
    "p xsat 2 2\n1 0\nfoo 3 0\n",
    "p xsat 2 1\n1 -3 0\n",
    "p xsat 2 1\n1 2\n",
    "p xsat 2 1\n1 2 0\nc trailing\n-1",
    "p xsat 2 2\n1 2 -0\n-1\n",
    "p xsat 2 2\n1 2 0\n",
    "p xsat 2 1\n1 0\n2 0\n",
    "p xsat 2 1\n",
    "p cnf 2 1\n1 2 0\n",
    "p xsat 2\n",
    "xsat p 2 1\n1 2 0\n",
    "p xsat -1 0\n",
    "p xsat 2 -1\n",
    "p xsat two 1\n1 0\n",
    "p xsat 2 1.0\n1 0\n",
    "",
    "\n\n  \n",
    "c only a comment\n",
    "c one\n  c two\n",
    "c\np\nxsat\n\n2\n1 1 2\n",
    "\ufeffp xsat 1 1\n1 0\n",
    "p xsat 1 1\n1\x00 0\n",
]


@pytest.mark.parametrize("text", MALFORMED)
def test_malformed_text_gives_the_reference_error(text):
    expected = outcome(reference_parse, text)
    assert isinstance(expected, str)
    assert outcome(parse_formula, text) == expected


def test_parsing_makes_the_formula_checks_once(monkeypatch):
    """The parser's own range checks are `Formula.__post_init__`'s, so it
    builds its formula without running them again: with `__post_init__`
    made to raise, every text parses to the same formula or fails with the
    same message, and every other construction still checks."""
    rng = random.Random(23)
    texts = MALFORMED + [random_text(rng) for _ in range(1000)]
    expected = [outcome(reference_parse, text) for text in texts]
    assert sum(isinstance(want, Formula) for want in expected) > 500

    def refuse(self):
        raise AssertionError("the parser ran Formula.__post_init__")

    with monkeypatch.context() as patched:
        patched.setattr(Formula, "__post_init__", refuse)
        got = [outcome(parse_formula, text) for text in texts]
        with pytest.raises(AssertionError, match="ran Formula.__post_init__"):
            Formula(2, ((1, 2),))
    assert got == expected
    for f in got:
        if isinstance(f, Formula):
            assert type(f.clauses) is tuple and all(type(clause) is tuple for clause in f.clauses)
            assert all(type(lit) is int for clause in f.clauses for lit in clause)
    for bad in [((1, 3),), ((0, 1),), ((1.0,),)]:
        with pytest.raises(ValueError):
            Formula(2, bad)

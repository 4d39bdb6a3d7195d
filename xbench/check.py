"""Checking one `xham maxham` call against the instance's reference answer.

A call fails when it raises, exits with a code other than 10 or 20, or
answers wrongly. A wrong answer is a wrong SAT/UNSAT verdict, a wrong
distance, or, when witnesses were asked for, a witness pair that is not
two x-models over Var(F) at the reported distance. Only wrong answers make
a run incorrect; the other failures are counted against the run.
"""

from __future__ import annotations

from dataclasses import dataclass, field

EXIT_ANSWER = 10
EXIT_UNSAT = 20


@dataclass
class Outcome:
    failure: str | None = None  # None: the call answered correctly
    wrong: bool = False
    answer: int | None = None  # printed distance; None for UNSAT or no answer
    counts: dict[str, int] = field(default_factory=dict)  # the `c stats` line

    @property
    def ok(self) -> bool:
        return self.failure is None


def is_xmodel(clauses, model) -> bool:
    return all(sum(model[abs(lit)] == (lit > 0) for lit in clause) == 1 for clause in clauses)


def check_call(clauses, reference, code, output, raised=None, witness=False) -> Outcome:
    """Judge one call; `reference` is the distance, or None for no x-model."""
    if raised is not None:
        return Outcome(f"raised {type(raised).__name__}")
    if code not in (EXIT_ANSWER, EXIT_UNSAT):
        return Outcome(f"exit code {code}")
    lines = output.splitlines()
    counts = {}
    for line in lines:
        if line.startswith("c stats "):
            counts = {k: int(v) for k, v in (item.split("=") for item in line.split()[2:])}
    status = [line.split() for line in lines if line.startswith("s ")]
    if code == EXIT_UNSAT:
        if status != [["s", "UNSATISFIABLE"]]:
            return Outcome(f"exit 20 with status {status}", wrong=True)
        if reference is not None:
            return Outcome(f"reported UNSAT, reference distance {reference}", wrong=True)
        return Outcome(counts=counts)
    if len(status) != 1 or status[0][:2] != ["s", "MAXHAM"] or len(status[0]) != 3:
        return Outcome(f"exit 10 with status {status}", wrong=True)
    answer = int(status[0][2])
    if reference is None:
        return Outcome(f"reported distance {answer} for an instance without x-models", wrong=True, answer=answer)
    if answer != reference:
        return Outcome(f"distance {answer}, reference {reference}", wrong=True, answer=answer)
    if witness:
        problem = _witness_problem(clauses, answer, [line for line in lines if line.startswith("v ")])
        if problem:
            return Outcome(problem, wrong=True, answer=answer)
    return Outcome(answer=answer, counts=counts)


def _witness_problem(clauses, distance, value_lines) -> str | None:
    if len(value_lines) != 2:
        return f"expected 2 witness lines, found {len(value_lines)}"
    variables = {abs(lit) for clause in clauses for lit in clause}
    models = []
    for line in value_lines:
        lits = [int(tok) for tok in line.split()[1:]]
        if not lits or lits[-1] != 0:
            return "witness line not terminated by 0"
        model = {abs(lit): lit > 0 for lit in lits[:-1]}
        if model.keys() != variables:
            return "witness does not cover exactly Var(F)"
        if not is_xmodel(clauses, model):
            return "witness is not an x-model"
        models.append(model)
    apart = sum(models[0][v] != models[1][v] for v in variables)
    if apart != distance:
        return f"witnesses are {apart} apart, reported {distance}"
    return None

"""Core types for exact satisfiability (XSAT).

Variables are dense positive integers 1..num_vars. A literal is a signed
variable index: k > 0 is the positive literal of variable k, -k its
negation. A clause is a tuple of literals, a formula an ordered multiset
of clauses. An assignment is an x-model when every clause contains
exactly one true literal. A formula holding an empty clause has no
x-model.
"""

from __future__ import annotations

from dataclasses import dataclass

Clause = tuple[int, ...]
Assignment = dict[int, bool]


class _Bottom:
    """The "unsatisfiable" distance: below every integer, absorbs +k."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "BOTTOM"

    def __add__(self, other):
        return self

    __radd__ = __add__

    def __lt__(self, other):
        return other is not self

    def __le__(self, other):
        return True

    def __gt__(self, other):
        return False

    def __ge__(self, other):
        return other is self


#: Answer for unsatisfiable instances. BOTTOM < 0 and BOTTOM + 1 is BOTTOM;
#: the builtin max passes it over unless every argument is BOTTOM.
BOTTOM = _Bottom()


@dataclass(frozen=True)
class HammingResult:
    """Answer of a max-Hamming computation.

    `distance` is BOTTOM for unsatisfiable input, otherwise the maximum
    pairwise Hamming distance over x-models (0 means a unique model).
    When witnesses are present they are two x-models realizing the
    distance.
    """

    distance: "int | _Bottom"
    witnesses: tuple[Assignment, Assignment] | None = None

    @property
    def unsat(self) -> bool:
        return self.distance is BOTTOM


@dataclass
class SearchStats:
    """How much work a search did.

    q counts nodes and leaves, and leaves never exceeds nodes. A node is
    a search call whose branch steps propagate without a conflict, plus
    one per branched part of a node that splits into connected parts. A
    leaf is a node whose simplification retired variables, which `gen_h`
    then scores. A connected part that q values from its x-models instead
    of branching adds neither. p counts subsets checked, the allowed
    subsets with no sign contradiction that it lists over the rows that
    probing leaves in each connected component, up to that component's
    answer, summed over the components, and solver calls: the base check
    plus one per listed subset. Probes are not solver calls."""

    nodes: int = 0
    leaves: int = 0
    subsets_checked: int = 0
    solver_calls: int = 0


@dataclass(frozen=True)
class Formula:
    """An XSAT instance: clause order and duplicate clauses are kept."""

    num_vars: int
    clauses: tuple[Clause, ...]

    def __post_init__(self):
        object.__setattr__(self, "clauses", tuple(tuple(c) for c in self.clauses))
        if self.num_vars < 0:
            raise ValueError("num_vars must be >= 0")
        for clause in self.clauses:
            for lit in clause:
                if not isinstance(lit, int) or lit == 0:
                    raise ValueError(f"bad literal {lit!r}: literals are nonzero ints")
                if abs(lit) > self.num_vars:
                    raise ValueError(
                        f"literal {lit} out of range for {self.num_vars} variables"
                    )

    @classmethod
    def from_clauses(cls, clauses, num_vars: int | None = None) -> "Formula":
        """Build a formula, inferring num_vars from the largest index if unset."""
        clauses = tuple(tuple(c) for c in clauses)
        if num_vars is None:
            num_vars = max((abs(l) for c in clauses for l in c), default=0)
        return cls(num_vars, clauses)

    def variables(self) -> list[int]:
        """Sorted variables actually occurring in clauses (Var(F))."""
        return sorted({abs(lit) for clause in self.clauses for lit in clause})

    @property
    def num_clauses(self) -> int:
        return len(self.clauses)


def verify_xmodel(formula: Formula, assignment: Assignment) -> bool:
    """True iff every clause has exactly one true literal under `assignment`.

    The assignment must be total over Var(formula); a partial one is a
    contract violation.
    """
    for clause in formula.clauses:
        count = 0
        for lit in clause:
            value = assignment.get(abs(lit))
            if value is None:
                raise ValueError(f"assignment misses variable {abs(lit)}")
            if value == (lit > 0):
                count += 1
        if count != 1:
            return False
    return True


def hamming_distance(a: Assignment, b: Assignment) -> int:
    """Number of variables on which two assignments disagree."""
    if a.keys() != b.keys():
        raise ValueError("assignments cover different variables")
    return sum(1 for v in a if a[v] != b[v])

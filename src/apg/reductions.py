"""Compilers from CNF/QBF formulas to achievement games, plus the brute-force
logic oracles and the fixed Right strategy they are checked against.

The strategy's rule is ``kernel.canonical_right_reply``; this module names
its moves.  On blue<=3 / red<=2 boards the strategy wins whenever Right
can (the paper's lemma, checked against a brute-force play of the
strategy in the tests), so surviving it is the game value "can Left avoid
losing moving first?".  ``Solver.survives_canonical_right`` searches that
value, and this module maps its answer to ``CanonicalRightResult``.

Each builder returns the game together with a provenance map from formula
symbols to vertex names, covering every vertex exactly once.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

from .core import (
    Game,
    Hypergraph,
    Player,
    Position,
    StatusKind,
    new_game,
    new_hypergraph,
    status,
)
from .errors import (
    ApgParseError,
    BadClauseSizeError,
    EdgeTooLargeError,
    OddVarCountError,
    ScriptViolationError,
    TooLargeError,
)
from .gadgets import butterfly
from .kernel import canonical_right_reply, mask_indices, unit_mask
from .solver import Solver


# ---------------------------------------------------------------------------
# Formulas

Literal = int  # signed 1-based variable index
Clause = tuple[Literal, Literal, Literal]


@dataclass(frozen=True)
class CnfFormula:
    """A 3-CNF: clause list over variables 1..num_vars; repeats allowed."""

    num_vars: int
    clauses: tuple[Clause, ...]

    def __post_init__(self):
        if not self.clauses:
            raise BadClauseSizeError("a formula needs at least one clause")
        for clause in self.clauses:
            if len(clause) != 3:
                raise BadClauseSizeError(f"clause {clause} must have three literal slots")
            for lit in clause:
                if lit == 0 or abs(lit) > self.num_vars:
                    raise ValueError(f"literal {lit} out of range for {self.num_vars} variables")


@dataclass(frozen=True)
class QbfFormula:
    """A 3-CNF whose variables are assigned alternately in index order.

    The first player (Satisfier) sets the odd-indexed variables, the second
    (Falsifier) the even-indexed ones; Satisfier wins iff the final valuation
    satisfies every clause.  The variable count must be even.
    """

    num_vars: int
    clauses: tuple[Clause, ...]

    def __post_init__(self):
        if self.num_vars < 2 or self.num_vars % 2 != 0:
            raise OddVarCountError("the variable count must be even and >= 2")
        CnfFormula(self.num_vars, self.clauses)  # shared validation


@dataclass(frozen=True)
class ReductionOutput:
    game: Game
    provenance: dict[str, str]


def _finish(verts: list[str], blue, red, provenance: dict[str, str]) -> ReductionOutput:
    game = new_game(verts, blue, red)
    assert sorted(provenance.values()) == sorted(verts), \
        "provenance must cover every vertex exactly once"
    return ReductionOutput(game, provenance)


# ---------------------------------------------------------------------------
# DIMACS input

def parse_dimacs(text: str, source: str = "<string>") -> CnfFormula:
    """Parse DIMACS CNF: a ``p cnf`` header, then 0-terminated clause lines.

    Clauses must have exactly three literal slots (repeats permitted).  A
    line starting with ``%`` ends the formula: SATLIB's files close with
    one, followed by a stray ``0`` line.
    """
    num_vars: Optional[int] = None
    clauses: list[Clause] = []
    pending: list[int] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line.startswith("%"):
            break
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise ApgParseError(source, lineno, "malformed problem line")
            try:
                num_vars = int(parts[2])
                int(parts[3])
            except ValueError:
                raise ApgParseError(source, lineno, "malformed problem line") from None
            continue
        if num_vars is None:
            raise ApgParseError(source, lineno, "clause before the p cnf header")
        try:
            values = [int(tok) for tok in line.split()]
        except ValueError:
            raise ApgParseError(source, lineno, "clause lines must hold integers") from None
        for v in values:
            if v == 0:
                if len(pending) != 3:
                    raise ApgParseError(source, lineno,
                                        f"clause has {len(pending)} literals; need exactly 3")
                clauses.append((pending[0], pending[1], pending[2]))
                pending = []
            else:
                pending.append(v)
    if pending:
        raise ApgParseError(source, len(text.splitlines()), "unterminated clause")
    if num_vars is None:
        raise ApgParseError(source, 1, "missing p cnf header")
    try:
        return CnfFormula(num_vars, tuple(clauses))
    except (BadClauseSizeError, ValueError) as exc:
        raise ApgParseError(source, 1, str(exc)) from None


def parse_dimacs_qbf(text: str, source: str = "<string>") -> QbfFormula:
    """DIMACS body with the alternation implied by variable index (no
    quantifier prefix lines)."""
    cnf = parse_dimacs(text, source)
    return QbfFormula(cnf.num_vars, cnf.clauses)


# ---------------------------------------------------------------------------
# Brute-force logic oracles

MAX_SAT_VARS = 24
MAX_QBF_VARS = 12


def sat_brute(phi: CnfFormula) -> bool:
    """Exhaustive satisfiability scan."""
    if phi.num_vars > MAX_SAT_VARS:
        raise TooLargeError(f"{phi.num_vars} variables exceeds {MAX_SAT_VARS}")
    for bits in range(1 << phi.num_vars):
        if all(any((bits >> (abs(l) - 1) & 1) == (l > 0) for l in clause)
               for clause in phi.clauses):
            return True
    return False


class QbfWinner(Enum):
    SATISFIER = "Satisfier"
    FALSIFIER = "Falsifier"


def qbf_brute(psi: QbfFormula) -> QbfWinner:
    """Minimax over alternating valuation choices in index order."""
    if psi.num_vars > MAX_QBF_VARS:
        raise TooLargeError(f"{psi.num_vars} variables exceeds {MAX_QBF_VARS}")

    def play(i: int, bits: int) -> bool:  # True iff Satisfier wins from here
        if i > psi.num_vars:
            return all(any((bits >> (abs(l) - 1) & 1) == (l > 0) for l in clause)
                       for clause in psi.clauses)
        results = (play(i + 1, bits), play(i + 1, bits | (1 << (i - 1))))
        return any(results) if i % 2 == 1 else all(results)

    return QbfWinner.SATISFIER if play(1, 0) else QbfWinner.FALSIFIER


# ---------------------------------------------------------------------------
# SAT gadgets (blue edges of size <= 3, red of size <= 2)

def _lit_vertex(lit: Literal) -> str:
    return f"x{lit}" if lit > 0 else f"nx{-lit}"


def sat_draw_game(phi: CnfFormula) -> ReductionOutput:
    """Game where Left, moving first, has a non-losing strategy iff ``phi``
    is satisfiable (and never a winning one).

    Per variable: vertices x / nx joined by a blue pair.  Per clause: six
    fresh vertices, one main/spare pair per literal slot; each slot gets a
    blue triple with its literal vertex, and the three mains form a red
    triangle.  A final red two-edge star forces Left to keep the initiative
    until every triangle is broken.
    """
    out = _finish(*_sat_draw_lists(phi))
    assert all(m.bit_count() <= 3 for m in out.game.blue)
    assert all(m.bit_count() <= 2 for m in out.game.red)
    return out


def _sat_draw_lists(phi: CnfFormula):
    # The vertices, blue and red edges and provenance of sat_draw_game.
    verts: list[str] = []
    prov: dict[str, str] = {}
    blue: list[list[str]] = []
    red: list[list[str]] = []
    for i in range(1, phi.num_vars + 1):
        pos, neg = _lit_vertex(i), _lit_vertex(-i)
        verts += [pos, neg]
        prov[f"+x{i}"] = pos
        prov[f"-x{i}"] = neg
        blue.append([pos, neg])
    for j, clause in enumerate(phi.clauses):
        mains = []
        for s, lit in enumerate(clause):
            main, spare = f"c{j}s{s}", f"c{j}s{s}p"
            verts += [main, spare]
            prov[f"clause{j}.slot{s}"] = main
            prov[f"clause{j}.slot{s}'"] = spare
            blue.append([_lit_vertex(lit), main, spare])
            mains.append(main)
        red += [[mains[0], mains[1]], [mains[1], mains[2]], [mains[2], mains[0]]]
    verts += ["omega", "omega1", "omega2"]
    prov["omega"] = "omega"
    prov["omega'"] = "omega1"
    prov["omega''"] = "omega2"
    red += [["omega", "omega1"], ["omega", "omega2"]]
    return verts, blue, red, prov


def sat_win_game(phi: CnfFormula) -> ReductionOutput:
    """Game where Left, moving first, wins iff ``phi`` is satisfiable.

    The draw construction plus two disjoint blue butterflies: once Left has
    broken every red triangle, Right can kill only one of them.
    """
    verts, blue, red, prov = _sat_draw_lists(phi)
    wing = butterfly(Player.LEFT)
    for tag in ("bf1", "bf2"):
        for v in wing.vertices:
            verts.append(f"{tag}_{v}")
            prov[f"{tag}.{v}"] = f"{tag}_{v}"
        blue += [[f"{tag}_{v}" for v in edge] for edge in wing.blue_edges]
    return _finish(verts, blue, red, prov)


# ---------------------------------------------------------------------------
# QBF gadget (all edges of size <= 3)

def qbf_game(psi: QbfFormula) -> ReductionOutput:
    """Game where Left, moving second, wins iff Falsifier wins ``psi``.

    Eleven vertices per variable stage plus one global vertex.  The stage
    edges force a five-move script in which the stage's chooser (Right at odd
    stages, Left at even ones) selects a truth value; the leftover
    right-side vertex per stage records the valuation.  Blue butterflies over
    those leftovers force Right's replies while Left completes an unsatisfied
    clause edge in the endgame.  Each clause edge spans three valuation
    vertices (see ``_spread_clause``), except in two-variable formulas.
    """
    n2 = psi.num_vars
    verts: list[str] = []
    prov: dict[str, str] = {}
    blue: list[list[str]] = []
    red: list[list[str]] = []

    def names(i: int) -> dict[str, str]:
        return {k: f"{k}{i}" for k in ("tR", "fR", "tL", "fL", "u", "v",
                                       "a", "b", "bp", "c", "cp")}

    for i in range(1, n2 + 1):
        nm = names(i)
        for key in ("tR", "fR", "tL", "fL", "u", "v"):
            verts.append(nm[key])
            prov[f"x{i}.{key}"] = nm[key]
        for key in ("a", "b", "bp", "c", "cp"):
            verts.append(nm[key])
            prov[f"x{i}.{key}"] = nm[key]

        def red_star(e: list[str]) -> None:
            """Edge family e*: plain at stage 1, else e plus each of the
            previous stage's right-side vertices."""
            if i == 1:
                red.append(e)
            else:
                red.append(e + [f"tR{i - 1}"])
                red.append(e + [f"fR{i - 1}"])

        def blue_star(e: list[str]) -> None:
            if i == 1:
                blue.append(e)
            else:
                blue.append(e + [f"tL{i - 1}"])
                blue.append(e + [f"fL{i - 1}"])

        if i % 2 == 1:
            red_star([nm["tR"], nm["fL"]])
            red_star([nm["fR"], nm["tL"]])
            red.append([nm["fR"], nm["fL"], nm["u"]])
            red.append([nm["tR"], nm["tL"], nm["v"]])
            blue_star([nm["tR"], nm["fR"]])
            blue_star([nm["tR"], nm["u"]])
            blue_star([nm["fR"], nm["v"]])
            blue_star([nm["tL"], nm["u"]])
            blue_star([nm["fL"], nm["v"]])
        else:
            blue_star([nm["tR"], nm["fL"]])
            blue_star([nm["fR"], nm["tL"]])
            blue.append([nm["tL"], nm["fL"], nm["u"]])
            blue.append([nm["tL"], nm["fL"], nm["v"]])
            red_star([nm["tL"], nm["fL"]])
            red_star([nm["tL"], nm["u"]])
            red_star([nm["fL"], nm["v"]])
            red_star([nm["tR"], nm["u"]])
            red_star([nm["fR"], nm["v"]])
            red.append([nm["tR"], nm["tL"], nm["v"]])
            red.append([nm["fR"], nm["fL"], nm["u"]])

        # butterflies forcing Right's endgame replies
        blue.append([nm["tR"], nm["a"], nm["b"]])
        blue.append([nm["tR"], nm["a"], nm["c"]])
        blue.append([nm["fR"], nm["a"], nm["bp"]])
        blue.append([nm["fR"], nm["a"], nm["cp"]])

    verts.append("w")
    prov["w"] = "w"
    blue.append([f"u{n2}", f"v{n2}", "w"])

    def clause_vertex(lit: Literal) -> str:
        i = abs(lit)
        if i % 2 == 1:
            return f"tR{i}" if lit > 0 else f"fR{i}"
        return f"fR{i}" if lit > 0 else f"tR{i}"

    for clause in psi.clauses:
        if any(-lit in clause for lit in clause):
            # A clause holding both polarities of one variable is satisfied by
            # every valuation; giving it an edge over the valuation-recording
            # vertices would instead hand Left spurious mid-script threats.
            continue
        for spread in _spread_clause(clause, n2):
            blue.append(sorted({clause_vertex(l) for l in spread}))

    out = _finish(verts, blue, red, prov)
    assert all(m.bit_count() <= 3 for m in out.game.blue + out.game.red)
    return out


def _spread_clause(clause: Clause, num_vars: int) -> list[tuple[Literal, ...]]:
    """Clauses over three distinct variables whose conjunction is ``clause``.

    A clause over fewer distinct variables would compile to a blue edge of
    fewer than three vertices, which hands Left wins that Falsifier does not
    have (``QbfFormula(4, ((3, 4, 4),))`` is a Satisfier win, yet its plain
    gadget is a Left win).  With at least four variables such a clause is
    widened by the lowest variables it lacks, in both polarities:
    ``(a, b, b)`` becomes ``(a | b | c) & (a | b | -c)``.  With two
    variables no clause has three distinct ones, and the plain compilation
    stands.
    """
    lits = tuple(dict.fromkeys(clause))
    if num_vars < 4 or len(lits) == 3:
        return [lits]
    used = {abs(lit) for lit in lits}
    extra = [v for v in range(1, num_vars + 1) if v not in used][:3 - len(lits)]
    out = [lits]
    for v in extra:
        out = [c + (sign * v,) for c in out for sign in (1, -1)]
    return out


def check_forced_script(output: ReductionOutput,
                        choices: Sequence[str]) -> bool:
    """Play the scripted opening of a QBF game and verify every forced move.

    ``choices`` gives 't' or 'f' per variable in index order.  Each stage is
    the chooser's free pick followed by four forced blocks; afterwards Right
    is forced onto the global vertex and Left is next to play with the game
    still open.  Any step where the claimed forcing fails raises
    ScriptViolationError.
    """
    game = output.game
    n2 = len(choices)
    pos = Position.start(game, Player.RIGHT)
    step = 0

    def units_of(updated: Game, color: Player) -> list[str]:
        masks = updated.blue if color is Player.LEFT else updated.red
        return sorted(updated.vertices[i] for i in mask_indices(unit_mask(masks)))

    def play_checked(vertex: str) -> None:
        nonlocal pos, step
        step += 1
        if status(pos).kind is not StatusKind.ONGOING:
            raise ScriptViolationError(step, "game ended before the script did")
        try:
            pos = pos.play(vertex)
        except ValueError as exc:
            raise ScriptViolationError(step, str(exc)) from None
        if pos.winner is not None:
            raise ScriptViolationError(step, f"{pos.winner} filled an edge mid-script")

    def forced_move() -> str:
        mover = pos.to_move
        updated = pos.updated_game()
        own_units = units_of(updated, mover)
        if own_units:
            raise ScriptViolationError(step + 1,
                                       f"{mover} could win instead of blocking")
        threats = units_of(updated, mover.opponent)
        if len(threats) != 1:
            raise ScriptViolationError(step + 1,
                                       f"expected one forced block, found {threats}")
        return threats[0]

    for i, choice in enumerate(choices, start=1):
        if choice not in ("t", "f"):
            raise ValueError("choices must be 't' or 'f'")
        chooser = Player.RIGHT if i % 2 == 1 else Player.LEFT
        if pos.to_move is not chooser:
            raise ScriptViolationError(step + 1, f"stage {i} should start with {chooser}")
        updated = pos.updated_game()
        if units_of(updated, Player.LEFT) or units_of(updated, Player.RIGHT):
            raise ScriptViolationError(step + 1,
                                       f"stage {i} choice is not free of threats")
        side = "R" if chooser is Player.RIGHT else "L"
        play_checked(output.provenance[f"x{i}.{choice}{side}"])
        for _ in range(4):
            play_checked(forced_move())

    target = forced_move()
    if target != output.provenance["w"]:
        raise ScriptViolationError(step + 1, f"expected the global vertex, got {target}")
    play_checked(target)
    if pos.to_move is not Player.LEFT:
        raise ScriptViolationError(step, "Left should be next to play after the script")
    if status(pos).kind is not StatusKind.ONGOING:
        raise ScriptViolationError(step, "the game should still be open")
    assert step == 5 * n2 + 1
    return True


# ---------------------------------------------------------------------------
# Maker-Maker embedding

def maker_maker_embedding(game: Game) -> tuple[Hypergraph, str, str]:
    """Embed a rank-<=3 game into a rank-<=4 single hypergraph.

    Two fresh anchor vertices are added, one into every blue edge and one
    into every red edge.  In the symmetric game on that hypergraph, after the
    first player takes the blue anchor and the second the red one, play is
    exactly the original game with Left first.
    """
    if any(m.bit_count() > 3 for m in game.blue + game.red):
        raise EdgeTooLargeError("the embedding needs all edges of size <= 3")
    u_left, u_right = "uL", "uR"
    k = 2
    while u_left in game.vertices or u_right in game.vertices:
        u_left, u_right = f"uL#{k}", f"uR#{k}"
        k += 1
    verts = game.vertices + (u_left, u_right)
    edges = ([e | {u_left} for e in game.blue_edges]
             + [e | {u_right} for e in game.red_edges])
    return new_hypergraph(verts, edges), u_left, u_right


# ---------------------------------------------------------------------------
# The fixed Right strategy and exploration against it

def canonical_right_move(position: Position) -> str:
    """Right's deterministic priority move in a blue<=3 / red<=2 game.

    Win in one if possible; otherwise block Left's only winning-in-one vertex
    if there is exactly one; otherwise take the centre of an intact red path
    of two edges; otherwise the lowest-indexed free vertex.
    """
    if position.to_move is not Player.RIGHT:
        raise ValueError("it is not Right's turn")
    updated = position.updated_game()
    if updated.n == 0:
        raise ValueError("no vertices left to pick")
    i = canonical_right_reply((updated.n, updated.red, updated.blue))[0]
    return updated.vertices[i]


class CanonicalRightResult(Enum):
    LEFT_NON_LOSING = "LeftNonLosing"
    RIGHT_WINS = "RightWins"


def solve_against_canonical_right(game: Game) -> CanonicalRightResult:
    """Whether Left, moving first, survives Right fixed to the canonical
    strategy: LeftNonLosing when some Left line ends in a draw or a Left
    win, else RightWins.

    The answer is the game value: the strategy wins whenever Right has a
    winning strategy (the paper's lemma, checked against a brute-force play
    of the strategy in the tests), so Left survives it exactly when Left
    avoids losing, and RightWins is a proof that Right wins with no appeal
    to the lemma.  The search is :meth:`Solver.survives_canonical_right`
    under a fresh default solver; it raises EdgeTooLargeError unless blue
    edges have size <= 3 and red edges size <= 2, and ResourceLimitError
    past the default node budget (another budget: that method on a solver
    with its ``node_limit``).
    """
    survived = Solver().survives_canonical_right(game)
    return (CanonicalRightResult.LEFT_NON_LOSING if survived
            else CanonicalRightResult.RIGHT_WINS)

"""Mamdani fuzzy inference with a small textual rule language.

The engine is the classic min/max pipeline: inputs are clamped to their
universes and fuzzified through trapezoids (a, b, c, d) in one elementwise
closed form, on [a, d] the minimum of the rise ((x - a)/(b - a), 1 from b
on) and the fall (1 up to c, then (d - x)/(d - c)), and 0 elsewhere and at
NaN; each rule's firing strength is the minimum of its antecedent
memberships (AND only) scaled by the rule weight, the consequent set is
clipped at that strength, clipped sets are aggregated pointwise by max,
and the crisp output is the centroid of the aggregate on a fixed
1001-point discretization of [0, 1].

Every entry point runs one path: _term_strengths fuzzifies each input
term once and max-folds the strengths of the rules that share a consequent
term; _aggregate fills the aggregate run by run.  FuzzyVariable.runs cuts
the 1001 grid columns, once per variable, into maximal runs that share one
set of nonzero terms (at most 2 of the 7 standard triangles), and each run
is the max over its own terms of the clipped set min(s_k, mu_k); the same
table checks that the terms cover the universe, as no run may be empty.
Because min and max select one of their operands without rounding,

    max(min(s1, mu), min(s2, mu)) == min(max(s1, s2), mu)

holds exactly, and a term that is zero in a column clips to 0 there, so
the aggregate is bit-identical to clipping one set per rule over the whole
grid.  evaluate_many takes every row's centroid with a row sum and a
matrix-vector product; evaluate takes its one row's with math.fsum, which
rounds correctly, so a symmetric aggregate has an exact centroid (0.5 for
one rule clipped about 0.5).

evaluate_many runs in 256-input chunks across the usable CPUs (see
chunks.py), so its aggregate is (256, 1001) per chunk rather than one per
whole field.  The result does not depend on the chunking or the thread
count: the mass and the moment are per-row reductions, and with a chunk
size that is a multiple of 64 the BLAS product groups each row as one
whole-array call on one BLAS thread does.

Rule language, one statement per rule, case-insensitive keywords:

    IF curvature IS MEDIUM AND bumpiness IS MEDIUM AND area IS LOW
        THEN weight IS LOW;

An optional trailing ``WEIGHT 0.5`` scales the rule; ``#`` starts a comment.
Only AND is supported as a connective.
"""

import functools
import math
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .chunks import map_chunks
from .errors import (
    BadParameterError,
    EmptyAggregateError,
    RuleSyntaxError,
    UnknownIdentifierError,
)

CENTROID_POINTS = 1001

# Fixed defuzzification grid: k/1000 for k = 0..1000.
_GRID = np.arange(CENTROID_POINTS) / (CENTROID_POINTS - 1.0)


@dataclass(frozen=True)
class MembershipFunction:
    """Triangular or trapezoidal membership function.

    points is (a, b, c) for triangular and (a, b, c, d) for trapezoidal;
    breakpoints must be non-decreasing.  Degenerate edges (a == b or
    c == d) make vertical shoulders, used to flatten the terms at the ends
    of a universe.
    """

    kind: str
    points: tuple

    def __post_init__(self):
        if self.kind == "triangular":
            if len(self.points) != 3:
                raise BadParameterError("triangular takes 3 breakpoints")
        elif self.kind == "trapezoidal":
            if len(self.points) != 4:
                raise BadParameterError("trapezoidal takes 4 breakpoints")
        else:
            raise BadParameterError(f"unknown membership shape {self.kind!r}")
        pts = tuple(float(p) for p in self.points)
        if any(b < a for a, b in zip(pts, pts[1:])):
            raise BadParameterError(f"breakpoints must be non-decreasing: {pts}")
        object.__setattr__(self, "points", pts)

    def _trapezoid(self):
        if self.kind == "triangular":
            a, b, c = self.points
            return a, b, b, c
        return self.points

    def membership(self, x):
        """Piecewise-linear membership of x (scalar or array) in [0, 1].
        A vertical edge (a == b or c == d) divides by zero and a near-vertical
        one can overflow, but only where the quotient is replaced by 1 or
        falls outside [a, d], where y is 0."""
        a, b, c, d = self._trapezoid()
        x = np.asarray(x, dtype=float)
        with np.errstate(all="ignore"):
            rise = np.where(x >= b, 1.0, (x - a) / (b - a))
            fall = np.where(x <= c, 1.0, (d - x) / (d - c))
        y = np.where((x >= a) & (x <= d), np.minimum(rise, fall), 0.0)
        return y if y.ndim else float(y)


def triangular(a, b, c) -> MembershipFunction:
    return MembershipFunction("triangular", (a, b, c))


def trapezoidal(a, b, c, d) -> MembershipFunction:
    return MembershipFunction("trapezoidal", (a, b, c, d))


@dataclass(frozen=True)
class FuzzyVariable:
    """Named variable over a closed universe with named terms.

    Term names are canonically uppercase; the variable name lowercase.
    Every centroid grid column of the universe must be covered by a term.
    """

    name: str
    universe: tuple
    terms: tuple  # of (term name, MembershipFunction)

    def __post_init__(self):
        lo, hi = (float(self.universe[0]), float(self.universe[1]))
        if not lo < hi:
            raise BadParameterError(f"empty universe for {self.name!r}")
        names = [t.upper() for t, _ in self.terms]
        if len(set(names)) != len(names):
            raise BadParameterError(f"duplicate term names in {self.name!r}")
        object.__setattr__(self, "name", self.name.lower())
        object.__setattr__(self, "universe", (lo, hi))
        object.__setattr__(
            self, "terms", tuple((t.upper(), mf) for t, mf in self.terms)
        )
        if any(not terms for _, terms in self.runs[1]):
            raise BadParameterError(f"terms of {self.name!r} do not cover the universe")

    def term_names(self):
        return tuple(t for t, _ in self.terms)

    @functools.cached_property
    def runs(self):
        """The centroid grid over the universe, and its columns cut into
        maximal runs that share one set of nonzero terms, in grid order:
        (grid, ((column slice, ((term, membership over the slice), ...)), ...))."""
        lo, hi = self.universe
        grid = lo + (hi - lo) * _GRID
        mu = np.stack([mf.membership(grid) for _, mf in self.terms])
        grid.flags.writeable = mu.flags.writeable = False  # shared by every call
        nonzero = mu != 0.0
        starts = np.flatnonzero(np.r_[True, (nonzero[:, 1:] != nonzero[:, :-1]).any(axis=0)])
        runs = []
        for start, stop in zip(starts.tolist(), starts[1:].tolist() + [grid.size]):
            cols = slice(start, stop)
            terms = tuple((self.terms[k][0], mu[k, cols]) for k in np.flatnonzero(nonzero[:, start]))
            runs.append((cols, terms))
        return grid, tuple(runs)

    def term(self, name) -> MembershipFunction:
        key = name.upper()
        for t, mf in self.terms:
            if t == key:
                return mf
        raise BadParameterError(f"variable {self.name!r} has no term {name!r}")

    def clamp(self, x):
        lo, hi = self.universe
        return np.clip(x, lo, hi)

    def fuzzify(self, x):
        """Memberships of x in every term, as {term name: value}."""
        x = self.clamp(x)
        return {t: mf.membership(x) for t, mf in self.terms}


@dataclass(frozen=True)
class Rule:
    antecedents: tuple  # of (variable name, term name)
    consequent: tuple  # (variable name, term name)
    weight: float = 1.0

    def __post_init__(self):
        if not self.antecedents:
            raise BadParameterError("rule needs at least one antecedent")
        if not 0.0 <= self.weight <= 1.0:
            raise BadParameterError(f"rule weight must be in [0,1], got {self.weight}")
        object.__setattr__(
            self,
            "antecedents",
            tuple((v.lower(), t.upper()) for v, t in self.antecedents),
        )
        object.__setattr__(
            self, "consequent", (self.consequent[0].lower(), self.consequent[1].upper())
        )


@dataclass(frozen=True)
class FuzzySystem:
    inputs: tuple  # of FuzzyVariable
    output: FuzzyVariable
    rules: tuple  # of Rule

    def __post_init__(self):
        byname = {v.name: v for v in self.inputs}
        for r in self.rules:
            for var, term in r.antecedents:
                if var not in byname:
                    raise BadParameterError(f"rule references unknown input {var!r}")
                byname[var].term(term)
            cvar, cterm = r.consequent
            if cvar != self.output.name:
                raise BadParameterError(f"rule concludes on unknown output {cvar!r}")
            self.output.term(cterm)

    def input(self, name) -> FuzzyVariable:
        for v in self.inputs:
            if v.name == name.lower():
                return v
        raise BadParameterError(f"no input variable {name!r}")


# ---------------------------------------------------------------------------
# Standard watermarking variables and system construction

INPUT_NAMES = ("curvature", "bumpiness", "area")
OUTPUT_TERMS = ("LOWEST", "LOWER", "LOW", "MEDIUM", "HIGH", "HIGHER", "HIGHEST")


def _three_term(name) -> FuzzyVariable:
    return FuzzyVariable(
        name,
        (0.0, 1.0),
        (
            ("LOW", triangular(0.0, 0.0, 0.5)),
            ("MEDIUM", triangular(0.0, 0.5, 1.0)),
            ("HIGH", triangular(0.5, 1.0, 1.0)),
        ),
    )


def _weight_variable() -> FuzzyVariable:
    terms = []
    for k, name in enumerate(OUTPUT_TERMS):
        peak = k / 6.0
        left = max((k - 1) / 6.0, 0.0)
        right = min((k + 1) / 6.0, 1.0)
        terms.append((name, triangular(left, peak, right)))
    return FuzzyVariable("weight", (0.0, 1.0), tuple(terms))


def watermark_variables():
    """The three perceptual inputs plus the 7-term output variable."""
    return tuple(_three_term(n) for n in INPUT_NAMES), _weight_variable()


def default_rules_text() -> str:
    return resources.files("gridmark").joinpath("rules/default.frs").read_text()


def make_system(rules_text=None) -> FuzzySystem:
    """Build the watermarking FuzzySystem from rule source (default base if None)."""
    inputs, output = watermark_variables()
    text = default_rules_text() if rules_text is None else rules_text
    rules = parse_rules(text, inputs=inputs, output=output)
    return FuzzySystem(inputs, output, tuple(rules))


def validate_watermark_system(sys: FuzzySystem):
    """Enforce the shape the codec relies on: 7 output terms, 15 rules, and
    totality (every input triple fires at least one rule)."""
    if sys.output.term_names() != OUTPUT_TERMS:
        raise BadParameterError("output variable must carry the 7 standard terms")
    if tuple(v.name for v in sys.inputs) != INPUT_NAMES:
        raise BadParameterError(f"inputs must be {INPUT_NAMES}")
    if len(sys.rules) != 15:
        raise BadParameterError(f"rule base must have exactly 15 rules, got {len(sys.rules)}")
    axis = np.linspace(0.0, 1.0, 11)
    c, b, a = np.meshgrid(axis, axis, axis, indexing="ij")
    fired = functools.reduce(np.maximum, _term_strengths(sys, c, b, a).values())
    if not (fired > 0).all():
        raise BadParameterError("rule base is not total: some inputs fire no rule")
    return sys


# ---------------------------------------------------------------------------
# Rule language

# WEIGHT is deliberately absent: it only acts as a keyword after the
# consequent term, so a variable may be called "weight".
_STRUCTURAL_KEYWORDS = {"IF", "AND", "THEN", "IS", "OR", "NOT"}


def _tokens(text):
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0]
        # keep ';' a separate token even when glued to a word
        body = body.replace(";", " ; ")
        for tok in body.split():
            yield tok, lineno


class _Parser:
    def __init__(self, text, vocabulary):
        self.toks = list(_tokens(text))
        self.pos = 0
        self.vocab = vocabulary  # {variable name: set of term names}

    def _peek(self):
        return self.toks[self.pos] if self.pos < len(self.toks) else (None, self._last_line())

    def _last_line(self):
        return self.toks[-1][1] if self.toks else 1

    def _take(self):
        tok, line = self._peek()
        if tok is not None:
            self.pos += 1
        return tok, line

    def _expect_keyword(self, word):
        tok, line = self._take()
        if tok is None or tok.upper() != word:
            raise RuleSyntaxError(line, word, tok)
        return line

    def _ident(self, what):
        tok, line = self._take()
        if tok is None or tok.upper() in _STRUCTURAL_KEYWORDS or tok == ";":
            raise RuleSyntaxError(line, what, tok)
        return tok, line

    def _clause(self):
        var, line = self._ident("variable name")
        self._expect_keyword("IS")
        term, _ = self._ident("term name")
        if var.lower() not in self.vocab:
            raise UnknownIdentifierError(line, var)
        if term.upper() not in self.vocab[var.lower()]:
            raise UnknownIdentifierError(line, term)
        return var.lower(), term.upper()

    def parse(self):
        rules = []
        while self._peek()[0] is not None:
            self._expect_keyword("IF")
            antecedents = [self._clause()]
            while True:
                tok, line = self._peek()
                if tok is not None and tok.upper() == "AND":
                    self._take()
                    antecedents.append(self._clause())
                elif tok is not None and tok.upper() == "OR":
                    raise RuleSyntaxError(line, "AND (OR is not supported)", tok)
                else:
                    break
            self._expect_keyword("THEN")
            consequent = self._clause()
            weight = 1.0
            tok, line = self._peek()
            if tok is not None and tok.upper() == "WEIGHT":
                self._take()
                num, nline = self._take()
                try:
                    weight = float(num)
                except (TypeError, ValueError):
                    raise RuleSyntaxError(nline, "number", num) from None
                if not 0.0 <= weight <= 1.0:
                    raise RuleSyntaxError(nline, "weight in [0,1]", num)
            tok, line = self._take()
            if tok != ";":
                raise RuleSyntaxError(line, "';'", tok)
            rules.append(Rule(tuple(antecedents), consequent, weight))
        return rules


def parse_rules(text, inputs=None, output=None):
    """Parse rule source against a variable vocabulary (standard watermark
    variables when none are given)."""
    if inputs is None or output is None:
        std_inputs, std_output = watermark_variables()
        inputs = std_inputs if inputs is None else inputs
        output = std_output if output is None else output
    vocab = {v.name: set(v.term_names()) for v in inputs}
    vocab[output.name] = set(output.term_names())
    return _Parser(text, vocab).parse()


def format_rules(rules) -> str:
    """Canonical textual form; parse(format(parse(x))) == parse(x)."""
    lines = []
    for r in rules:
        clauses = " AND ".join(f"{v} IS {t}" for v, t in r.antecedents)
        line = f"IF {clauses} THEN {r.consequent[0]} IS {r.consequent[1]}"
        if r.weight != 1.0:
            line += f" WEIGHT {r.weight!r}"
        lines.append(line + ";")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Inference

def _term_strengths(sys: FuzzySystem, curvature, bumpiness, area):
    """{output term: max over the term's rules of the rule strength}, one
    value per input; inputs are clamped to their universes."""
    values = dict(zip(INPUT_NAMES, (curvature, bumpiness, area)))
    mu = {
        (name, term): m
        for name, x in values.items()
        for term, m in sys.input(name).fuzzify(np.asarray(x, float).ravel()).items()
    }
    strength = {}
    for rule in sys.rules:
        s = rule.weight * functools.reduce(np.minimum, (mu[a] for a in rule.antecedents))
        term = rule.consequent[1]
        strength[term] = np.maximum(strength[term], s) if term in strength else s
    return strength


def _aggregate(sys: FuzzySystem, curvature, bumpiness, area):
    """The output grid and the (m, 1001) max-aggregate of the clipped
    output sets, filled run by run: each run of grid columns takes the max
    of its own nonzero terms' clipped sets, and a run none of whose terms
    fired is 0."""
    strength = _term_strengths(sys, curvature, bumpiness, area)
    grid, runs = sys.output.runs
    agg = np.empty((np.size(curvature), CENTROID_POINTS))
    for cols, terms in runs:
        out = agg[:, cols]
        fired = [(strength[t][:, None], mf) for t, mf in terms if t in strength]
        if not fired:
            out[...] = 0.0
            continue
        (s, mf), *rest = fired
        np.minimum(s, mf, out=out)
        for s, mf in rest:
            np.maximum(out, np.minimum(s, mf), out=out)
    return grid, agg


def evaluate(sys: FuzzySystem, curvature, bumpiness, area) -> float:
    """Crisp output for one input triple (math.fsum centroid, fully
    deterministic and exact for symmetric aggregates)."""
    grid, (agg,) = _aggregate(sys, curvature, bumpiness, area)
    mass = math.fsum(agg)
    if mass == 0.0:
        raise EmptyAggregateError("no rule fired; aggregate set is empty")
    moment = math.fsum(x * m for x, m in zip(grid, agg))
    return moment / mass


def _mass_and_moment(sys: FuzzySystem, curvature, bumpiness, area):
    """Per input row: the aggregate's mass and its first moment on the grid."""
    grid, agg = _aggregate(sys, curvature, bumpiness, area)
    return agg.sum(axis=1), agg @ grid


def evaluate_many(sys: FuzzySystem, curvature, bumpiness, area) -> np.ndarray:
    """Vectorized evaluate over equal-length input arrays: one crisp output
    per element, flattened."""
    inputs = (x.ravel() for x in np.broadcast_arrays(curvature, bumpiness, area))
    mass, moment = map_chunks(functools.partial(_mass_and_moment, sys), *inputs)
    if (mass == 0.0).any():
        raise EmptyAggregateError("no rule fired for some inputs; aggregate set is empty")
    return moment / mass


def weight_class_many(sys: FuzzySystem, w) -> np.ndarray:
    """Index of the output term with maximum membership at each w; ties go
    to the lower-indexed term (the order they are declared on the output
    variable)."""
    stack = np.stack(list(sys.output.fuzzify(np.asarray(w, dtype=float)).values()))
    return np.argmax(stack, axis=0)

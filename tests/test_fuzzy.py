import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridmark.errors import (
    BadParameterError,
    EmptyAggregateError,
    RuleSyntaxError,
    UnknownIdentifierError,
)
from gridmark.fuzzy import (
    CENTROID_POINTS,
    INPUT_NAMES,
    OUTPUT_TERMS,
    FuzzySystem,
    FuzzyVariable,
    Rule,
    default_rules_text,
    evaluate,
    evaluate_many,
    format_rules,
    make_system,
    parse_rules,
    trapezoidal,
    triangular,
    validate_watermark_system,
    watermark_variables,
    weight_class_many,
    _aggregate,
)

# ---------------------------------------------------------------------------
# Straight-line Mamdani oracle, written against the published pipeline and
# sharing no code with the package: min AND, strength scaled by rule weight,
# min implication, max aggregation, centroid on the same 1001-point grid.

IN_PTS = {"LOW": (0.0, 0.0, 0.5), "MEDIUM": (0.0, 0.5, 1.0), "HIGH": (0.5, 1.0, 1.0)}
OUT_PTS = {
    name: (max((k - 1) / 6.0, 0.0), k / 6.0, min((k + 1) / 6.0, 1.0))
    for k, name in enumerate(OUTPUT_TERMS)
}
GRID = [k / 1000.0 for k in range(1001)]


def tri_mu(x, a, b, c):
    if x < a or x > c:
        return 0.0
    if x < b:
        return (x - a) / (b - a)
    if x > b:
        return (c - x) / (c - b)
    return 1.0


OUT_ON_GRID = {name: [tri_mu(x, *pts) for x in GRID] for name, pts in OUT_PTS.items()}


def oracle_eval(rules, c, b, a):
    vals = {"curvature": c, "bumpiness": b, "area": a}
    agg = [0.0] * len(GRID)
    for r in rules:
        s = min(tri_mu(vals[v], *IN_PTS[t]) for v, t in r.antecedents) * r.weight
        if s <= 0.0:
            continue
        mus = OUT_ON_GRID[r.consequent[1]]
        for i, mu in enumerate(mus):
            clipped = s if s < mu else mu
            if clipped > agg[i]:
                agg[i] = clipped
    mass = math.fsum(agg)
    if mass == 0.0:
        raise ZeroDivisionError("no rule fired")
    return math.fsum(x * y for x, y in zip(GRID, agg)) / mass


@pytest.fixture(scope="module")
def system():
    return make_system()


@pytest.fixture(scope="module")
def variables():
    return watermark_variables()


# ---------------------------------------------------------------------------
# Membership functions and variables

def test_triangular_pins():
    mf = triangular(0.0, 0.5, 1.0)
    assert mf.membership(0.25) == 0.5
    assert mf.membership(0.5) == 1.0
    assert mf.membership(-0.1) == 0.0 and mf.membership(1.1) == 0.0
    out = mf.membership(np.array([0.25, 0.5, 2.0]))
    assert np.array_equal(out, [0.5, 1.0, 0.0])


def test_degenerate_shoulders():
    low = triangular(0.0, 0.0, 0.5)
    assert low.membership(0.0) == 1.0
    assert low.membership(0.25) == 0.5
    high = triangular(0.5, 1.0, 1.0)
    assert high.membership(1.0) == 1.0


def test_trapezoidal_plateau():
    mf = trapezoidal(0.0, 0.2, 0.8, 1.0)
    assert mf.membership(0.5) == 1.0
    assert mf.membership(0.1) == 0.5
    assert mf.membership(0.9) == pytest.approx(0.5, abs=1e-15)


def membership_by_masks(mf, x):
    # the mask-and-write form the closed form replaced
    p = mf.points
    a, b, c, d = p if len(p) == 4 else (p[0], p[1], p[1], p[2])
    x = np.asarray(x, dtype=float)
    y = np.zeros_like(x)
    y[(x >= b) & (x <= c)] = 1.0
    if b > a:
        rise = (x >= a) & (x < b)
        y[rise] = (x[rise] - a) / (b - a)
    if d > c:
        fall = (x > c) & (x <= d)
        y[fall] = (d - x[fall]) / (d - c)
    return y


# the 10 standard terms (every input variable has the same 3), then edge shapes
REFERENCE_SHAPES = [mf for var in (watermark_variables()[0][0], watermark_variables()[1]) for _, mf in var.terms] + [
    trapezoidal(0.0, 0.2, 0.8, 1.0),
    trapezoidal(0.0, 0.0, 0.05, 0.45),  # left shoulder, flat top
    trapezoidal(0.25, 0.5, 1.0, 1.0),  # right shoulder, flat top
    triangular(0.3, 0.3, 0.3),  # a == b == c: a spike
    trapezoidal(0.3, 0.3, 0.3, 0.3),
    trapezoidal(-2.0, 0.0, 0.0, 3.0),
    # slopes longer than 1 from a == 0 and to d == 0: an ulp outside divides to -0.0
    trapezoidal(0.0, 2.0, 2.0, 3.0),
    trapezoidal(-3.0, -2.0, -2.0, 0.0),
    triangular(-0.0, 0.5, 1.0),
    triangular(0.0, 5e-324, 1.0),  # near-vertical edges: quotients outside them overflow
    triangular(0.0, 0.0, 5e-324),
    triangular(0.0, 0.5, 0.5 + 2**-52),
]


@pytest.mark.parametrize("mf", REFERENCE_SHAPES, ids=lambda mf: repr(mf.points))
def test_membership_equals_mask_form(mf):
    pts = np.array(mf.points)
    special = [0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 1.0, np.inf, -np.inf, np.nan]
    x = np.concatenate([
        pts, np.nextafter(pts, -np.inf), np.nextafter(pts, np.inf), special,
        np.random.default_rng(49).uniform(pts[0] - 0.5, pts[-1] + 0.5, 5000),
    ])
    got, want = mf.membership(x), membership_by_masks(mf, x)
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))  # -0.0 at x == -0.0 == a, too
    for xi, wi in zip(x[:40], want):
        assert mf.membership(xi).hex() == wi.hex()


def test_membership_validation():
    with pytest.raises(BadParameterError):
        triangular(0.5, 0.2, 1.0)
    with pytest.raises(BadParameterError):
        trapezoidal(0.0, 0.5, 0.4, 1.0)
    from gridmark.fuzzy import MembershipFunction

    with pytest.raises(BadParameterError):
        MembershipFunction("gaussian", (0.0, 0.5, 1.0))
    with pytest.raises(BadParameterError):
        MembershipFunction("triangular", (0.0, 1.0))


def test_variable_canonicalization():
    v = FuzzyVariable(
        "Speed",
        (0.0, 1.0),
        (("slow", triangular(0.0, 0.0, 0.6)), ("fast", triangular(0.4, 1.0, 1.0))),
    )
    assert v.name == "speed"
    assert v.term_names() == ("SLOW", "FAST")
    assert v.term("Slow") is v.terms[0][1]
    with pytest.raises(BadParameterError):
        v.term("medium")


def test_variable_requires_coverage():
    with pytest.raises(BadParameterError):
        FuzzyVariable(
            "gap",
            (0.0, 1.0),
            (("a", triangular(0.0, 0.0, 0.3)), ("b", triangular(0.7, 1.0, 1.0))),
        )
    # gaps exactly at one centroid grid column: the terms meet at zero
    # membership in the middle, and the universe's last column is bare
    for universe, terms in (
        ((0.0, 1.0), (("a", triangular(0.0, 0.0, 0.5)), ("b", triangular(0.5, 1.0, 1.0)))),
        ((2.0, 4.0), (("a", triangular(2.0, 2.0, 3.0)), ("b", triangular(3.0, 4.0, 4.0)))),
        ((0.0, 1.0), (("a", trapezoidal(0.0, 0.0, 0.5, 0.999)),)),
    ):
        with pytest.raises(BadParameterError):
            FuzzyVariable("seam", universe, terms)
    with pytest.raises(BadParameterError):
        FuzzyVariable("dup", (0.0, 1.0), (("a", triangular(0, 0, 1)), ("A", triangular(0, 1, 1))))
    with pytest.raises(BadParameterError):
        FuzzyVariable("empty", (1.0, 1.0), (("a", triangular(0, 0, 1)),))


def test_fuzzify_pin(variables):
    inputs, _ = variables
    got = inputs[0].fuzzify(0.25)
    assert got == {"LOW": 0.5, "MEDIUM": 0.5, "HIGH": 0.0}
    clamped = inputs[0].fuzzify(7.0)
    assert clamped == {"LOW": 0.0, "MEDIUM": 0.0, "HIGH": 1.0}


def test_watermark_variable_shapes(variables):
    inputs, output = variables
    assert tuple(v.name for v in inputs) == INPUT_NAMES
    for v in inputs:
        assert v.term_names() == ("LOW", "MEDIUM", "HIGH")
        assert v.term("LOW").points == (0.0, 0.0, 0.5)
        assert v.term("MEDIUM").points == (0.0, 0.5, 1.0)
        assert v.term("HIGH").points == (0.5, 1.0, 1.0)
    assert output.term_names() == OUTPUT_TERMS
    assert output.term("LOWEST").points == (0.0, 0.0, 1.0 / 6.0)
    assert output.term("HIGH").points == (3.0 / 6.0, 4.0 / 6.0, 5.0 / 6.0)
    assert output.term("HIGHEST").points == (5.0 / 6.0, 1.0, 1.0)


def test_rule_validation():
    with pytest.raises(BadParameterError):
        Rule((), ("weight", "LOW"))
    with pytest.raises(BadParameterError):
        Rule((("curvature", "LOW"),), ("weight", "LOW"), weight=1.5)
    with pytest.raises(BadParameterError):
        Rule((("curvature", "LOW"),), ("weight", "LOW"), weight=-0.1)
    r = Rule((("Curvature", "low"),), ("Weight", "medium"))
    assert r.antecedents == (("curvature", "LOW"),)
    assert r.consequent == ("weight", "MEDIUM")


def test_system_validation(variables):
    inputs, output = variables
    with pytest.raises(BadParameterError):
        FuzzySystem(inputs, output, (Rule((("slope", "LOW"),), ("weight", "LOW")),))
    with pytest.raises(BadParameterError):
        FuzzySystem(inputs, output, (Rule((("curvature", "STEEP"),), ("weight", "LOW")),))
    with pytest.raises(BadParameterError):
        FuzzySystem(inputs, output, (Rule((("curvature", "LOW"),), ("mass", "LOW")),))
    sys = FuzzySystem(inputs, output, (Rule((("curvature", "LOW"),), ("weight", "LOW")),))
    assert sys.input("CURVATURE") is inputs[0]
    with pytest.raises(BadParameterError):
        sys.input("slope")


# ---------------------------------------------------------------------------
# Rule language

def test_reference_rule_parses():
    text = "IF curvature IS MEDIUM AND bumpiness IS MEDIUM AND area IS LOW THEN weight IS LOW;"
    (rule,) = parse_rules(text)
    assert rule.antecedents == (
        ("curvature", "MEDIUM"),
        ("bumpiness", "MEDIUM"),
        ("area", "LOW"),
    )
    assert rule.consequent == ("weight", "LOW")
    assert rule.weight == 1.0


def test_keywords_case_insensitive():
    (rule,) = parse_rules("if Curvature is high then WEIGHT is highest ;")
    assert rule.antecedents == (("curvature", "HIGH"),)
    assert rule.consequent == ("weight", "HIGHEST")


def test_empty_source():
    assert parse_rules("") == []
    assert parse_rules("# only a comment\n\n") == []


def test_comments_stripped():
    rules = parse_rules(
        "# header\nIF area IS LOW THEN weight IS HIGH; # trailing\nIF area IS HIGH THEN weight IS LOW;"
    )
    assert len(rules) == 2


def test_weight_annotation():
    (rule,) = parse_rules("IF area IS LOW THEN weight IS HIGH WEIGHT 0.5;")
    assert rule.weight == 0.5


def test_unknown_identifier_position():
    text = "IF area IS LOW THEN weight IS HIGH;\nIF area IS PURPLE THEN weight IS LOW;"
    with pytest.raises(UnknownIdentifierError) as e:
        parse_rules(text)
    assert e.value.line == 2 and e.value.name == "PURPLE"


def test_unknown_variable_position():
    with pytest.raises(UnknownIdentifierError) as e:
        parse_rules("IF slope IS LOW THEN weight IS HIGH;")
    assert e.value.line == 1 and e.value.name == "slope"


def test_or_rejected_with_position():
    text = "IF area IS LOW THEN weight IS HIGH;\nIF area IS LOW OR curvature IS LOW THEN weight IS LOW;"
    with pytest.raises(RuleSyntaxError) as e:
        parse_rules(text)
    assert e.value.line == 2
    assert "AND" in str(e.value) and "OR" in str(e.value)


@pytest.mark.parametrize(
    "text,expected_frag",
    [
        ("IF area IS LOW THEN weight IS HIGH", "';'"),
        ("IF area IS LOW weight IS HIGH;", "THEN"),
        ("area IS LOW THEN weight IS HIGH;", "IF"),
        ("IF area LOW THEN weight IS HIGH;", "IS"),
        ("IF area IS LOW THEN weight IS HIGH WEIGHT x;", "number"),
        ("IF area IS LOW THEN weight IS HIGH WEIGHT 1.5;", "[0,1]"),
        ("IF area IS THEN weight IS HIGH;", "term name"),
    ],
)
def test_syntax_errors_positioned(text, expected_frag):
    with pytest.raises(RuleSyntaxError) as e:
        parse_rules(text)
    assert e.value.line == 1
    assert expected_frag in str(e.value)


def test_parse_format_fixed_point():
    first = parse_rules(default_rules_text())
    text1 = format_rules(first)
    second = parse_rules(text1)
    assert second == first
    assert format_rules(second) == text1


def test_format_includes_weight():
    rules = parse_rules("IF area IS LOW THEN weight IS HIGH WEIGHT 0.25;")
    text = format_rules(rules)
    assert "WEIGHT 0.25" in text
    assert parse_rules(text) == rules


# ---------------------------------------------------------------------------
# Default base and validation

def test_default_base_has_15_total_rules(system):
    assert len(system.rules) == 15
    assert validate_watermark_system(system) is system
    for r in system.rules:
        assert r.consequent[0] == "weight" and r.consequent[1] in OUTPUT_TERMS


def test_validate_rejects_wrong_rule_count(variables):
    inputs, output = variables
    rules = parse_rules("IF area IS LOW THEN weight IS HIGH;")
    sys = FuzzySystem(inputs, output, tuple(rules))
    with pytest.raises(BadParameterError):
        validate_watermark_system(sys)


def test_validate_rejects_partial_base(variables):
    inputs, output = variables
    rule = Rule(
        (("curvature", "HIGH"), ("bumpiness", "HIGH"), ("area", "HIGH")),
        ("weight", "LOW"),
    )
    sys = FuzzySystem(inputs, output, (rule,) * 15)
    with pytest.raises(BadParameterError):
        validate_watermark_system(sys)


# ---------------------------------------------------------------------------
# Inference

def test_symmetric_single_rule_is_half(variables):
    inputs, output = variables
    rule = Rule((("curvature", "MEDIUM"),), ("weight", "MEDIUM"))
    sys = FuzzySystem(inputs, output, (rule,))
    assert evaluate(sys, 0.5, 0.0, 0.0) == 0.5


def test_single_rule_full_clip_matches_hand_centroid(variables):
    inputs, output = variables
    rule = Rule(
        (("curvature", "MEDIUM"), ("bumpiness", "MEDIUM"), ("area", "LOW")),
        ("weight", "LOW"),
    )
    sys = FuzzySystem(inputs, output, (rule,))
    got = evaluate(sys, 0.5, 0.5, 0.0)
    mus = OUT_ON_GRID["LOW"]
    want = math.fsum(x * y for x, y in zip(GRID, mus)) / math.fsum(mus)
    assert got == pytest.approx(want, abs=1e-12)
    assert got == pytest.approx(2.0 / 6.0, abs=2e-3)


def test_rule_weight_scales_strength(variables):
    # membership 0.8 at curvature 0.4; strength must be 0.8 * 0.4 = 0.32,
    # not min(0.8, 0.4)
    inputs, output = variables
    rule = Rule((("curvature", "MEDIUM"),), ("weight", "HIGHEST"), weight=0.4)
    sys = FuzzySystem(inputs, output, (rule,))
    got = evaluate(sys, 0.4, 0.0, 0.0)
    s = (0.4 / 0.5) * 0.4
    agg = [min(s, mu) for mu in OUT_ON_GRID["HIGHEST"]]
    want = math.fsum(x * y for x, y in zip(GRID, agg)) / math.fsum(agg)
    assert got == pytest.approx(want, abs=1e-12)
    capped = [min(0.4, mu) for mu in OUT_ON_GRID["HIGHEST"]]
    not_want = math.fsum(x * y for x, y in zip(GRID, capped)) / math.fsum(capped)
    assert abs(got - not_want) > 1e-4


def test_empty_aggregate_raises(variables):
    inputs, output = variables
    rule = Rule((("curvature", "HIGH"),), ("weight", "LOW"))
    sys = FuzzySystem(inputs, output, (rule,))
    with pytest.raises(EmptyAggregateError):
        evaluate(sys, 0.0, 0.5, 0.5)
    with pytest.raises(EmptyAggregateError):
        evaluate_many(sys, [1.0, 0.0], [0.5, 0.5], [0.5, 0.5])


@pytest.mark.parametrize("count", [1, 9, 1089, 4225])  # the block counts of n = 8, 24, 264, 520
def test_evaluate_many_chunked_equals_whole_aggregate(chunk_workers, system, count):
    rng = np.random.default_rng(count)
    x = rng.uniform(-0.1, 1.1, size=(3, count))
    grid, agg = _aggregate(system, *x)
    # The BLAS product takes rows in small groups.  On one BLAS thread a
    # whole-array call groups them as 64-row slices do; on several it may
    # split the rows off those groups (4225 rows on two threads do), so the
    # reference multiplies 64-row slices of the one whole aggregate.
    moment = np.concatenate([agg[i : i + 64] @ grid for i in range(0, count, 64)])
    assert np.array_equal(evaluate_many(system, *x), moment / agg.sum(axis=1))


def test_evaluate_many_chunked_edges(chunk_workers, system, variables):
    assert evaluate_many(system, [], [], []).shape == (0,)
    # an input that fires no rule, in the third chunk, fails the whole field
    inputs, output = variables
    sys = FuzzySystem(inputs, output, (Rule((("curvature", "HIGH"),), ("weight", "LOW")),))
    c = np.ones(600)
    c[555] = 0.0
    with pytest.raises(EmptyAggregateError):
        evaluate_many(sys, c, np.full(600, 0.5), np.full(600, 0.5))


def test_evaluate_against_oracle(system):
    rng = np.random.default_rng(42)
    worst = 0.0
    for c, b, a in rng.uniform(0, 1, size=(200, 3)):
        worst = max(worst, abs(evaluate(system, c, b, a) - oracle_eval(system.rules, c, b, a)))
    assert worst <= 1e-6


def test_evaluate_many_matches_scalar(system):
    rng = np.random.default_rng(43)
    triples = rng.uniform(0, 1, size=(50, 3))
    many = evaluate_many(system, triples[:, 0], triples[:, 1], triples[:, 2])
    one = [evaluate(system, c, b, a) for c, b, a in triples]
    assert np.abs(many - np.array(one)).max() <= 1e-9


def test_output_stays_inside_aggregate_support(system):
    rng = np.random.default_rng(44)
    for c, b, a in rng.uniform(0, 1, size=(25, 3)):
        out = evaluate(system, c, b, a)
        assert 0.0 <= out <= 1.0


def test_fine_grid_agreement(system):
    # the fixed 1001-point centroid sits within 1e-3 of a 100x refinement
    xs = np.linspace(0.0, 1.0, 100001)
    mus = {
        name: np.interp(xs, GRID, OUT_ON_GRID[name]) for name in OUTPUT_TERMS
    }
    rng = np.random.default_rng(45)
    for c, b, a in rng.uniform(0, 1, size=(10, 3)):
        vals = {"curvature": c, "bumpiness": b, "area": a}
        agg = np.zeros_like(xs)
        for r in system.rules:
            s = min(tri_mu(vals[v], *IN_PTS[t]) for v, t in r.antecedents) * r.weight
            np.maximum(agg, np.minimum(s, mus[r.consequent[1]]), out=agg)
        fine = float(np.sum(xs * agg) / np.sum(agg))
        assert abs(evaluate(system, c, b, a) - fine) <= 1e-3


# ---------------------------------------------------------------------------
# The per-rule code the shared fuzzify -> fold -> clip path replaced, kept as
# exact references: the rule-by-rule (m, 1001) aggregation of the vectorized
# evaluator, the scalar evaluator that clipped one set per fired rule, and
# the totality check that maxed rule strengths over an 11^3 grid.

def rule_strength(sys, rule, values):
    s = None
    for var, term in rule.antecedents:
        mu = sys.input(var).term(term).membership(values[var])
        s = mu if s is None else np.minimum(s, mu)
    return rule.weight * np.asarray(s, dtype=float)


def reference_grid(sys):
    lo, hi = sys.output.universe
    return lo + (hi - lo) * (np.arange(CENTROID_POINTS) / (CENTROID_POINTS - 1.0))


def aggregate_by_rule(sys, c, b, a):
    values = {
        name: np.clip(np.asarray(x, float).ravel(), *sys.input(name).universe)
        for name, x in zip(INPUT_NAMES, (c, b, a))
    }
    grid = reference_grid(sys)
    agg = np.zeros((values["curvature"].size, CENTROID_POINTS))
    for rule in sys.rules:
        strength = rule_strength(sys, rule, values)
        mf = sys.output.term(rule.consequent[1]).membership(grid)
        np.maximum(agg, np.minimum(strength[:, None], mf[None, :]), out=agg)
    return agg, grid


def evaluate_by_rule(sys, c, b, a):
    values = {name: float(sys.input(name).clamp(x)) for name, x in zip(INPUT_NAMES, (c, b, a))}
    grid = reference_grid(sys)
    agg = np.zeros(CENTROID_POINTS)
    for rule in sys.rules:
        strength = float(rule_strength(sys, rule, values))
        if strength <= 0.0:
            continue
        mf = sys.output.term(rule.consequent[1]).membership(grid)
        agg = np.maximum(agg, np.minimum(strength, mf))
    mass = math.fsum(agg)
    if mass == 0.0:
        raise EmptyAggregateError("no rule fired")
    return math.fsum(x * m for x, m in zip(grid, agg)) / mass


def is_total_by_rule(sys):
    axis = np.linspace(0.0, 1.0, 11)
    c, b, a = np.meshgrid(axis, axis, axis, indexing="ij")
    grid = {"curvature": c.ravel(), "bumpiness": b.ravel(), "area": a.ravel()}
    strengths = np.zeros(c.size)
    for rule in sys.rules:
        strengths = np.maximum(strengths, rule_strength(sys, rule, grid))
    return bool((strengths > 0).all())


unit_inputs = st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(-0.25, 1.25))
input_triples = st.lists(st.tuples(unit_inputs, unit_inputs, unit_inputs), min_size=1, max_size=40)
rule_weights = st.one_of(st.just(1.0), st.floats(0.0, 1.0))
clauses = st.tuples(st.sampled_from(INPUT_NAMES), st.sampled_from(("LOW", "MEDIUM", "HIGH")))
random_rules = st.builds(
    lambda ants, term, w: Rule(tuple(ants), ("weight", term), w),
    st.lists(clauses, min_size=1, max_size=3),
    st.sampled_from(OUTPUT_TERMS),
    rule_weights,
)
# three rules whose antecedents cover the curvature universe: with positive
# weights they make any base total
covering_rules = st.tuples(
    *(
        st.builds(
            lambda term, w, t=t: Rule((("curvature", t),), ("weight", term), w),
            st.sampled_from(OUTPUT_TERMS),
            st.floats(0.01, 1.0),
        )
        for t in ("LOW", "MEDIUM", "HIGH")
    )
)


@settings(max_examples=150, deadline=None)
@given(
    triples=input_triples,
    rules=st.lists(random_rules, min_size=8, max_size=20),  # > 7 rules: some share a consequent
    cover=st.one_of(st.none(), covering_rules),
)
def test_evaluate_many_equals_rule_by_rule_aggregation(variables, triples, rules, cover):
    inputs, output = variables
    sys = FuzzySystem(inputs, output, tuple(rules) + (cover or ()))
    c, b, a = (np.array(x) for x in zip(*triples))
    agg, grid = aggregate_by_rule(sys, c, b, a)
    mass = agg.sum(axis=1)
    if (mass == 0.0).any():
        assert cover is None
        with pytest.raises(EmptyAggregateError):
            evaluate_many(sys, c, b, a)
    else:
        assert np.array_equal(evaluate_many(sys, c, b, a), (agg @ grid) / mass)

    # the scalar evaluator, bit for bit, on every triple
    for triple, row_mass in zip(triples, mass):
        if row_mass == 0.0:
            with pytest.raises(EmptyAggregateError):
                evaluate_by_rule(sys, *triple)
            with pytest.raises(EmptyAggregateError):
                evaluate(sys, *triple)
        else:
            assert evaluate(sys, *triple).hex() == evaluate_by_rule(sys, *triple).hex()

    # the totality check on a 15-rule base cut from the same rules, with
    # the covering rules first when there are any
    base = FuzzySystem(inputs, output, ((cover or ()) + tuple(rules) * 2)[:15])
    if is_total_by_rule(base):
        assert validate_watermark_system(base) is base
    else:
        with pytest.raises(BadParameterError, match="not total"):
            validate_watermark_system(base)


def test_evaluate_many_equals_rule_by_rule_on_default_base(system):
    rng = np.random.default_rng(46)
    x = rng.uniform(-0.1, 1.1, size=(3, 4000))
    edges = np.array([0.0, 0.5, 1.0])
    x[:, :27] = [g.ravel() for g in np.meshgrid(edges, edges, edges, indexing="ij")]
    agg, grid = aggregate_by_rule(system, *x)
    assert np.array_equal(evaluate_many(system, *x), (agg @ grid) / agg.sum(axis=1))


# ---------------------------------------------------------------------------
# The run table _aggregate fills the aggregate by

def check_run_table(var):
    grid, runs = var.runs
    lo, hi = var.universe
    assert np.array_equal(grid, lo + (hi - lo) * (np.arange(CENTROID_POINTS) / (CENTROID_POINTS - 1.0)))
    mu = {t: mf.membership(grid) for t, mf in var.terms}
    covered = np.zeros(grid.size, dtype=int)
    previous = None
    for cols, terms in runs:
        assert cols.start < cols.stop and cols.step is None
        covered[cols] += 1
        names = tuple(t for t, _ in terms)
        assert names == tuple(t for t in var.term_names() if t in names)  # declaration order
        for j in range(cols.start, cols.stop):
            assert set(names) == {t for t in mu if mu[t][j] != 0.0}, j
        for t, m in terms:
            assert np.array_equal(m, mu[t][cols])
        assert set(names) != previous  # maximal: neighbouring runs differ
        previous = set(names)
    assert (covered == 1).all()  # every column lies in exactly one run
    assert [cols.start for cols, _ in runs] == sorted(cols.start for cols, _ in runs)
    return runs


def test_run_table_of_the_default_output(variables):
    _, output = variables
    runs = check_run_table(output)
    assert max(len(terms) for _, terms in runs) == 2
    # the peaks at 0, 1/2 and 1 fall on grid columns, where one term is nonzero
    assert [cols for cols, terms in runs if len(terms) == 1] == [slice(0, 1), slice(500, 501), slice(1000, 1001)]
    assert output.runs is output.runs  # derived once per variable


# Overlapping output terms: up to four are nonzero in one column, and TOP,
# which no rule below concludes on, is alone at the right end of the grid.
OVERLAP_OUTPUT = FuzzyVariable(
    "weight",
    (0.0, 1.0),
    (
        ("EDGE", trapezoidal(0.0, 0.0, 0.05, 0.45)),
        ("A", triangular(0.0, 0.3, 0.7)),
        ("B", triangular(0.2, 0.5, 0.8)),
        ("C", triangular(0.4, 0.6, 1.0)),
        ("TOP", triangular(0.55, 1.0, 1.0)),
    ),
)


def test_run_table_of_overlapping_terms():
    runs = check_run_table(OVERLAP_OUTPUT)
    assert max(len(terms) for _, terms in runs) == 4
    assert runs[-1][0] == slice(1000, 1001) and [t for t, _ in runs[-1][1]] == ["TOP"]


def test_evaluate_many_equals_rule_by_rule_with_overlapping_terms(variables):
    inputs, _ = variables
    rng = np.random.default_rng(48)
    rules = [
        Rule((("curvature", t),), ("weight", out), 1.0)
        for t, out in (("LOW", "EDGE"), ("MEDIUM", "B"), ("HIGH", "C"))
    ]
    for _ in range(12):
        ants = {(str(v), str(rng.choice(["LOW", "MEDIUM", "HIGH"]))) for v in rng.choice(INPUT_NAMES, 2)}
        out = str(rng.choice(["EDGE", "A", "B", "C"]))
        rules.append(Rule(tuple(sorted(ants)), ("weight", out), float(rng.choice([1.0, rng.uniform(0.1, 1.0)]))))
    sys = FuzzySystem(inputs, OVERLAP_OUTPUT, tuple(rules))
    x = rng.uniform(-0.1, 1.1, size=(3, 3000))
    edges = np.array([0.0, 0.5, 1.0])
    x[:, :27] = [g.ravel() for g in np.meshgrid(edges, edges, edges, indexing="ij")]
    agg, grid = aggregate_by_rule(sys, *x)
    assert np.array_equal(_aggregate(sys, *x)[1], agg)
    assert np.array_equal(evaluate_many(sys, *x), (agg @ grid) / agg.sum(axis=1))
    for triple in x[:, :40].T:
        assert evaluate(sys, *triple).hex() == evaluate_by_rule(sys, *triple).hex()


# ---------------------------------------------------------------------------
# Weight classes

def test_weight_class_pins(system):
    def name(w):
        return OUTPUT_TERMS[int(weight_class_many(system, w))]

    assert name(4.0 / 6.0) == "HIGH"
    assert name(0.0) == "LOWEST"
    assert name(1.0) == "HIGHEST"
    # exactly between two peaks: tie goes to the lower-indexed term
    assert name(0.75) == "HIGH"
    assert name(1.0 / 12.0) == "LOWEST"
    # clamping
    assert name(1.2) == "HIGHEST"
    assert name(-0.2) == "LOWEST"


def weight_class_by_stack(sys, w):
    # the stacked-membership argmax weight_class_many replaced
    w = sys.output.clamp(np.asarray(w, dtype=float))
    return np.argmax(np.stack([mf.membership(w) for _, mf in sys.output.terms]), axis=0)


def test_weight_class_many_equals_stacked_argmax(system):
    crossings = np.arange(13) / 12.0  # the peaks k/6 and the crossovers between them
    near = np.concatenate([np.nextafter(crossings, -np.inf), np.nextafter(crossings, np.inf)])
    outside = np.array([-np.inf, -1.0, -1e-300, -0.0, 1.0 + 1e-16, 1.5, 2.0, np.inf])
    rng = np.random.default_rng(47)
    ws = np.concatenate([crossings, near, outside, rng.uniform(-0.5, 1.5, 2000)])
    assert np.array_equal(weight_class_many(system, ws), weight_class_by_stack(system, ws))
    for w in np.concatenate([crossings, outside]):
        assert weight_class_many(system, w) == weight_class_by_stack(system, w)
        assert weight_class_many(system, float(w)).ndim == 0


def test_uniform_rule_weight_scaling_is_bounded(system):
    # scaling every rule weight by 0.5 moves the crisp output by < 0.05
    # everywhere on a 21^3 grid, so the class of a position can move at
    # most one step and only when it sits within 0.05 of a class boundary
    axis = np.linspace(0.0, 1.0, 21)
    c, b, a = (g.ravel() for g in np.meshgrid(axis, axis, axis, indexing="ij"))
    scaled = tuple(Rule(r.antecedents, r.consequent, r.weight * 0.5) for r in system.rules)
    half = FuzzySystem(system.inputs, system.output, scaled)
    w0 = evaluate_many(system, c, b, a)
    w1 = evaluate_many(half, c, b, a)
    assert np.abs(w1 - w0).max() <= 0.05
    k0 = weight_class_many(system, w0)
    k1 = weight_class_many(half, w1)
    assert np.abs(k1 - k0).max() <= 1
    boundaries = (2.0 * np.arange(6) + 1.0) / 12.0
    interior = np.abs(w0[:, None] - boundaries[None, :]).min(axis=1) > 0.05
    assert np.array_equal(k0[interior], k1[interior])


# ---------------------------------------------------------------------------
# Properties

@settings(max_examples=50, deadline=None)
@given(
    pts=st.lists(st.floats(0, 1), min_size=3, max_size=3).map(sorted),
    x=st.floats(-1, 2),
)
def test_membership_bounded(pts, x):
    mu = triangular(*pts).membership(x)
    assert 0.0 <= mu <= 1.0


@settings(max_examples=25, deadline=None)
@given(
    c=st.floats(-0.5, 1.5),
    b=st.floats(-0.5, 1.5),
    a=st.floats(-0.5, 1.5),
)
def test_evaluate_bounded(c, b, a):
    out = evaluate(make_system(), c, b, a)
    assert 0.0 <= out <= 1.0

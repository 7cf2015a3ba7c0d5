"""Cross-module benchmark orderings on the shared corpus, the exactness
chain as a property of random small laminar trees, the ex-ante LP's
optimum on random multi-day production instances, the PTAS large branch
attaining its relaxation, instance and policy documents that read back as
written, documents with one to three bad fields that the CLI rejects
with an exit code, and policy documents with a wrong shape below one field,
which read as malformed (exit 6)."""

import contextlib
import copy
import io
import itertools
import json
import math
import os
import tempfile

import pytest
from hypothesis import (HealthCheck, assume, event, given, settings,
                        strategies as st)

from binprice import (
    DiscreteDistribution,
    LaminarInstance,
    ProductionInstance,
    PtasConfig,
    build_lp_exante,
    build_lp_hierarchy,
    build_lp_optimal,
    evaluate_exact,
    parse_instance,
    policy_from_json,
    policy_to_json,
    production_to_laminar,
    ptas_laminar,
    ptas_production,
    simulate,
    serialize_instance,
    solve,
    solve_full_dp,
)
from binprice.cli import main
from binprice.harness import prophet_samples
from binprice.rounding import PolicyError, PricingPolicy, mark_laminar

from binprice.model import large_rows

from conftest import (
    VALUE_GRID,
    reference_dense_simplex,
    reference_emitter,
    reference_pick_probabilities,
    relaxation,
)


def test_benchmark_ordering_on_corpus_sample(corpus):
    # simulated approximation <= optimal online <= relaxations, and the
    # offline prophet sits between the optimum and twice the optimum
    for entry in corpus[:30]:
        lam = entry.laminar
        tbl, _ = solve_full_dp(lam)
        dp = tbl.optimal
        if entry.production is not None:
            sol2 = solve(build_lp_exante(entry.production, 1.0).model)
            assert sol2.objective >= dp - 1e-6
        mk = mark_laminar(lam, 0.4)
        sol4 = solve(build_lp_hierarchy(lam, mk, 1.0).model)
        assert sol4.objective >= dp - 1e-6

        if entry.production is not None:
            result = ptas_production(entry.production, PtasConfig(epsilon=0.2))
            rep = simulate(result.policy, entry.production, 3000, seed=55)
        else:
            result = ptas_laminar(lam, PtasConfig(epsilon=0.2))
            rep = simulate(result.policy, lam, 3000, seed=55)
        assert rep.mean <= dp + 3.5 * rep.stderr + 1e-9

        samples = prophet_samples(lam, 3000, seed=56)
        se = samples.std(ddof=1) / math.sqrt(samples.size) if samples.size > 1 else 0.0
        prophet = samples.mean()
        assert dp <= prophet + 3.5 * se + 1e-9
        assert prophet <= 2.0 * dp + 3.5 * se + 1e-9


def test_exante_can_exceed_the_prophet():
    # The expectation-relaxed program is not capped by the offline optimum:
    # six i.i.d. {0,2} buyers of one type under a unit shipping capacity give
    # an ex-ante value of 2 (serve each high value a sixth of the time in
    # expectation), while the offline prophet collects at most one high
    # value per realization, 2*(1 - 0.5^6) < 2.  A chain of the form
    # approximation <= optimum <= relaxation <= prophet therefore cannot be
    # asserted; the orderings above are the provable ones.
    d = DiscreteDistribution.of([(0.0, 0.5), (2.0, 0.5)])
    p = ProductionInstance(dists=(d,) * 6, types=(0,) * 6, days=(0,) * 6,
                           production=((6,),), shipping=1)
    sol2 = solve(build_lp_exante(p, 1.0).model)
    assert abs(sol2.objective - 2.0) <= 1e-6
    samples = prophet_samples(production_to_laminar(p), 30000, seed=9)
    se = samples.std(ddof=1) / math.sqrt(samples.size)
    prophet = samples.mean()
    want = 2.0 * (1.0 - 0.5 ** 6)
    assert abs(prophet - want) <= 3.5 * se
    assert sol2.objective > prophet + 3.5 * se


@st.composite
def distributions(draw):
    values = draw(st.lists(st.sampled_from(VALUE_GRID), min_size=1,
                           max_size=3, unique=True))
    cuts = draw(st.lists(st.integers(1, 7), min_size=len(values) - 1,
                         max_size=len(values) - 1, unique=True))
    eighths = [b - a for a, b in zip([0] + sorted(cuts), sorted(cuts) + [8])]
    return DiscreteDistribution.of(zip(sorted(values),
                                       (k / 8.0 for k in eighths)))


@st.composite
def laminar_trees(draw):
    """Up to 6 elements under a root, up to two child bins and one
    grandchild bin; every element sits in the root or one of them."""
    n = draw(st.integers(1, 6))
    kids = [{"cap": draw(st.integers(0, 3)), "children": [],
             "inner": {"cap": draw(st.integers(0, 2)), "children": []}}
            for _ in range(draw(st.integers(0, 2)))]
    root = {"cap": draw(st.integers(1, 3)), "children": []}
    slots = [root] + [b for k in kids for b in (k, k["inner"])]
    for e in range(n):
        draw(st.sampled_from(slots))["children"].append({"element": e})
    for k in kids:
        inner = k.pop("inner")
        k["children"].append(inner)
        root["children"].append(k)
    return LaminarInstance.build(
        tuple(draw(distributions()) for _ in range(n)), root)


@settings(max_examples=150, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(laminar_trees())
def test_dp_equals_lp_opt_and_its_exact_replay(inst):
    tbl, policy = solve_full_dp(inst)
    lp_opt = solve(build_lp_optimal(inst).model).objective
    assert abs(tbl.optimal - lp_opt) <= 1e-6
    welfare, _ = evaluate_exact(policy, inst)
    assert abs(welfare - tbl.optimal) <= 1e-9
    assert policy_from_json(policy_to_json(policy)) == policy


@st.composite
def production_instances(draw):
    """Up to 6 buyers of up to 3 types over up to 3 days."""
    n = draw(st.integers(1, 6))
    m = draw(st.integers(1, 3))
    days = draw(st.integers(1, 3))
    production = tuple(
        tuple(itertools.accumulate(draw(st.lists(
            st.integers(0, 2), min_size=days, max_size=days))))
        for _ in range(m))
    return ProductionInstance(
        dists=tuple(draw(distributions()) for _ in range(n)),
        types=tuple(draw(st.lists(st.integers(0, m - 1), min_size=n,
                                  max_size=n))),
        days=tuple(sorted(draw(st.lists(st.integers(0, days - 1),
                                        min_size=n, max_size=n)))),
        production=production, shipping=draw(st.integers(1, 4)))


@settings(max_examples=100, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(production_instances())
def test_exante_lp_keeps_its_optimum_without_forbidden_states(p):
    # day caps rise over up to 3 days, so over-picks occur: the LP without
    # their target states or the served counts N(j) reaches the optimum of
    # the one with both, bounds the DP optimum from above, and its exact
    # counterpart equals it
    optimum = solve_full_dp(production_to_laminar(p))[0].optimal
    for scale in (1.0, 0.8):
        got = reference_dense_simplex(build_lp_exante(p, scale).model)
        with reference_emitter(forbidden=True):
            former = reference_dense_simplex(build_lp_exante(p, scale).model)
        assert abs(got.objective - former.objective) <= 1e-9
        if scale == 1.0:
            assert got.objective >= optimum - 1e-9
    exact = reference_dense_simplex(
        build_lp_optimal(production_to_laminar(p)).model)
    assert abs(exact.objective - optimum) <= 1e-9


instances = st.one_of(production_instances(), laminar_trees())

ROUND_TRIP = settings(max_examples=100, derandomize=True, database=None,
                      deadline=None,
                      suppress_health_check=[HealthCheck.too_slow])


@ROUND_TRIP
@given(instances)
def test_instance_documents_read_back_as_written(inst):
    doc = serialize_instance(inst)
    assert serialize_instance(parse_instance(json.loads(json.dumps(doc)))) \
        == doc


@ROUND_TRIP
@given(instances, st.sampled_from([0.2, 0.5]))
def test_ptas_policy_documents_read_back_as_written(inst, epsilon):
    cfg = PtasConfig(epsilon=epsilon)
    if isinstance(inst, ProductionInstance):
        policy = ptas_production(inst, cfg).policy
    else:
        policy = ptas_laminar(inst, cfg).policy
    assert policy_from_json(policy_to_json(policy)) == policy


@settings(max_examples=120, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.filter_too_much])
@given(instances, st.sampled_from([0.2, 0.5]), st.sampled_from([0.6, 0.9]))
def test_large_branch_attains_its_relaxation_and_stays_feasible(inst, epsilon,
                                                                delta):
    # a delta override near 1 marks every capacity above about 1 large, so
    # both routes of the large branch run: the units' DP policies where
    # they keep every large row, else the dual over one row or several
    # nested ones.  Both attain their objective exactly and keep every row
    # in expectation
    cfg = PtasConfig(epsilon=epsilon, delta=delta)
    if isinstance(inst, ProductionInstance):
        result = ptas_production(inst, cfg)
    else:
        result = ptas_laminar(inst, cfg)
    assume(result.branch == "large")
    event(result.lp_kind)
    optimum = solve(relaxation(inst, cfg).model).objective
    assert abs(result.objective - optimum) <= 1e-9
    assert result.lp_kind in ("dp", "lagrangian")
    welfare, _ = evaluate_exact(result.policy, inst)
    assert abs(welfare - result.objective) <= 1e-9
    picks = {}
    for block in result.policy.blocks.values():
        picks.update(reference_pick_probabilities(block, inst))
    for _, elements, cap in large_rows(inst, result.marking):
        assert sum(picks[e] for e in elements) \
            <= cfg.capacity_scale * cap + 1e-9
    assert simulate(result.policy, inst, 200, seed=3).total_violations == 0


@ROUND_TRIP
@given(st.dictionaries(
    st.tuples(st.integers(0, 5), st.tuples(st.integers(-1, 3))),
    st.tuples(st.one_of(st.sampled_from([math.inf, -math.inf]),
                        st.floats(allow_nan=False, allow_infinity=False)),
              st.floats(0.0, 1.0))))
def test_rule_documents_read_back_as_written(rules):
    # a tau of -inf (accept every value) must not come back as +inf
    policy = PricingPolicy(scope="type:0", rules=rules)
    assert policy_from_json(policy_to_json(policy)) == policy


# Replacements for one field of a valid document: other JSON types, negative
# and huge integers, and scope strings that name no sub-problem.
ODD_VALUES = [None, True, False, 0, -1, 1.5, -2.5, 2 ** 63, 10 ** 400, "",
              "x", "1", [], [1], [[1.0, 1.0]], {}, {"cap": 1},
              "root:0", "bin:abc", "bin:01", "bin: 1", "bin:-1", "bin:99",
              "elem:-1", "elem:99", "type:01", "type:99", "composed"]
ODD_KEYS = ["", "x", "00", "-1", "+1", "99", "bin:abc", "bin:01", "elem:-1",
            "type:x"]


def _fields(doc, out):
    """Every (container, key) pair of a JSON document."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, value in items:
        out.append((doc, key))
        if isinstance(value, (dict, list)):
            _fields(value, out)
    return out


@st.composite
def perturbed(draw, doc):
    """``doc`` with one to three edits, each replacing one value or
    renaming one object key of the document as the earlier edits left it."""
    doc = json.loads(json.dumps(doc))
    for _ in range(draw(st.integers(1, 3))):
        holder, key = draw(st.sampled_from(_fields(doc, [])))
        if isinstance(holder, dict) and draw(st.booleans()):
            holder[draw(st.sampled_from(ODD_KEYS))] = holder.pop(key)
        else:
            # a copy: a later edit may land inside the value, which must
            # not change ODD_VALUES or make the document contain itself
            holder[key] = copy.deepcopy(draw(st.sampled_from(ODD_VALUES)))
    return doc


def _cli(argv):
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


@settings(max_examples=200, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(instances, st.sampled_from(["dp", "lp-opt", "ex-ante", "hierarchy",
                                   "ptas"]),
       st.sampled_from(["instance", "simulate", "verify"]), st.data())
def test_perturbed_documents_exit_with_a_documented_code(inst, alg, target,
                                                         data):
    # bad fields map to an exit code, never to a traceback
    with tempfile.TemporaryDirectory() as tmp:
        inst_path = os.path.join(tmp, "inst.json")
        pol_path = os.path.join(tmp, "policy.json")
        doc = serialize_instance(inst)
        if target == "instance":
            doc = data.draw(perturbed(doc))
        with open(inst_path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        code = _cli(["solve", "--instance", inst_path, "--alg", alg,
                     "--policy-out", pol_path])
        assert code in (0, 2, 3, 4)
        if target == "instance" or code != 0:
            return
        with open(pol_path, encoding="utf-8") as fh:
            policy = data.draw(perturbed(json.load(fh)))
        with open(pol_path, "w", encoding="utf-8") as fh:
            json.dump(policy, fh)
        code = _cli([target, "--instance", inst_path, "--policy", pol_path,
                     "--trials", "20", "--seed", "1"])
        assert code in (0, 2, 3, 4, 5, 6)


# A laminar instance whose PTAS policy at delta 0.5 is composed: two bins'
# rounded hierarchy blocks and three lone elements behind a root counter.
SHAPE_INSTANCE = {
    "kind": "laminar",
    "elements": [{"dist": [[0.0, 0.5], [2.0, 0.5]]}] * 6
    + [{"dist": [[1.0, 1.0]]}] * 3,
    "bins": {"cap": 5, "children": [
        {"cap": 2, "children": [{"element": e} for e in range(3)]},
        {"cap": 2, "children": [{"element": e} for e in range(3, 6)]},
        {"element": 6}, {"element": 7}, {"element": 8}]}}

# what each field of a policy document holds
RULE_FIELDS = {"t": "integer", "state": "integers", "tau": "price",
               "p": "number"}
WRONG = {
    "object": st.one_of(st.none(), st.booleans(), st.integers(-2, 2),
                        st.text(max_size=2), st.lists(st.integers(0, 2),
                                                      max_size=2)),
    "list": st.one_of(st.none(), st.booleans(), st.integers(-2, 2),
                      st.text(max_size=2),
                      st.dictionaries(st.text(max_size=1), st.integers(0, 2),
                                      max_size=1)),
    "integer": st.one_of(st.none(), st.booleans(),
                         st.sampled_from([0.0, 1.0, -1.5]),
                         st.text(max_size=2), st.lists(st.integers(0, 2),
                                                       max_size=1)),
    "number": st.one_of(st.none(), st.booleans(), st.text(max_size=2),
                        st.lists(st.floats(0, 1), max_size=1),
                        st.dictionaries(st.text(max_size=1), st.floats(0, 1),
                                        max_size=1)),
    "string": st.one_of(st.none(), st.booleans(), st.integers(-2, 2),
                        st.floats(-1, 1), st.lists(st.text(max_size=1),
                                                   max_size=1)),
}
WRONG["integers"] = WRONG["list"]
WRONG["price"] = WRONG["number"].filter(lambda x: x not in ("inf", "-inf"))


def _slots(doc):
    """``(holder, key, kind)`` for every field of a policy document below
    its top level."""
    out = []

    def pricing(block):
        out.append((block, "rules", "list"))
        for rule in block["rules"][:3]:
            out.append((block["rules"], block["rules"].index(rule), "object"))
            out.extend((rule, f, kind) for f, kind in RULE_FIELDS.items())
            out.extend((rule["state"], i, "integer")
                       for i in range(len(rule["state"])))

    if doc["scope"] != "composed":
        pricing(doc)
        return out
    out += [(doc, f, "object") for f in
            ("blocks", "element_block", "counter_caps", "counter_keys")]
    for key, block in doc["blocks"].items():
        out.append((doc["blocks"], key, "object"))
        pricing(block)
    out += [(doc["element_block"], e, "string") for e in doc["element_block"]]
    out += [(doc["counter_caps"], k, "integer") for k in doc["counter_caps"]]
    for e, keys in doc["counter_keys"].items():
        out.append((doc["counter_keys"], e, "list"))
        out += [(keys, i, "string") for i in range(len(keys))]
    return out


@settings(max_examples=150, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from(["dp", "ptas"]), st.data())
def test_policy_shapes_below_a_field_exit_6(alg, data):
    # valid JSON whose one field holds the wrong kind of value, however
    # deep: a malformed policy, never a traceback
    with tempfile.TemporaryDirectory() as tmp:
        inst_path = os.path.join(tmp, "inst.json")
        pol_path = os.path.join(tmp, "policy.json")
        with open(inst_path, "w", encoding="utf-8") as fh:
            json.dump(SHAPE_INSTANCE, fh)
        assert _cli(["solve", "--instance", inst_path, "--alg", alg,
                     "--delta", "0.5", "--policy-out", pol_path]) == 0
        with open(pol_path, encoding="utf-8") as fh:
            doc = json.load(fh)
        holder, key, kind = data.draw(st.sampled_from(_slots(doc)))
        holder[key] = data.draw(WRONG[kind])
        event(kind)
        text = json.dumps(doc)
        with pytest.raises(PolicyError):
            policy_from_json(text)
        with open(pol_path, "w", encoding="utf-8") as fh:
            fh.write(text)
        for command in ("simulate", "verify"):
            assert _cli([command, "--instance", inst_path, "--policy",
                         pol_path, "--trials", "20", "--seed", "1"]) == 6

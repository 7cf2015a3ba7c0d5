import random

import pytest

from binprice import (
    DiscreteDistribution,
    LaminarInstance,
    ProductionInstance,
    iron,
    iron_distribution,
    revenue_transform,
)

from conftest import expectation, oracle_hull_slopes


def nonneg_random_dist(rng, max_atoms=4):
    k = rng.randint(1, max_atoms)
    vals = sorted(rng.sample([0.0, 0.5, 1.0, 2.0, 3.0, 5.0, 10.0], k))
    cuts = sorted(rng.sample(range(1, 16), k - 1))
    probs, last = [], 0
    for c in cuts + [16]:
        probs.append((c - last) / 16.0)
        last = c
    return DiscreteDistribution.of(zip(vals, probs))


def test_deterministic_value_is_its_own_virtual_value():
    tr = iron(DiscreteDistribution.point(5))
    assert tr.ironed == (5.0,)


def test_uniform_two_atom_example():
    tr = iron(DiscreteDistribution.uniform([1, 2]))
    assert tr.ironed == (0.0, 2.0)


def test_nonregular_three_atom_example():
    d = DiscreteDistribution.of([(1.0, 0.45), (2.0, 0.1), (10.0, 0.45)])
    tr = iron(d)
    assert abs(tr.ironed[0] - (-70.0 / 11.0)) <= 1e-9
    assert abs(tr.ironed[1] - (-70.0 / 11.0)) <= 1e-9
    assert tr.ironed[2] == 10.0
    merged = iron_distribution(d)
    assert len(merged.atoms) == 2
    assert abs(merged.atoms[0][0] - (-70.0 / 11.0)) <= 1e-9
    assert merged.atoms[0][1] == 0.55 and merged.atoms[1] == (10.0, 0.45)


def test_ironed_values_match_hull_oracle():
    rng = random.Random(301)
    for _ in range(60):
        d = nonneg_random_dist(rng)
        tr = iron(d)
        k = len(d.atoms)
        qs = [0.0]
        pts = [(0.0, 0.0)]
        acc = 0.0
        for i in range(k - 1, -1, -1):
            acc += d.atoms[i][1]
            qs.append(acc)
            pts.append((acc, acc * d.atoms[i][0]))
        envelope = oracle_hull_slopes(pts)
        for i in range(k):
            hi, lo = qs[k - i], qs[k - i - 1]
            want = (envelope(hi) - envelope(lo)) / (hi - lo)
            assert abs(tr.ironed[i] - want) <= 1e-9


def test_monotone_and_dominated_by_expectation():
    rng = random.Random(302)
    for _ in range(200):
        d = nonneg_random_dist(rng)
        tr = iron(d)
        assert all(a <= b for a, b in zip(tr.ironed, tr.ironed[1:]))
        assert tr.ironed[-1] == d.atoms[-1][0]  # top atom keeps its value
        ev_phi = sum(phi * p for phi, (_, p) in zip(tr.ironed, d.atoms))
        assert ev_phi <= expectation(d) + 1e-9


def test_ironing_is_identity_on_concave_revenue_curves():
    # raw discrete virtual values are the point-to-point revenue slopes;
    # when they are already monotone the hull keeps every point, so the
    # ironed values equal the raw ones and re-applying iron to the ironed
    # *virtual values of the ironed curve* changes nothing
    rng = random.Random(303)
    checked = 0
    for _ in range(200):
        d = nonneg_random_dist(rng)
        raw = _raw_virtuals(d)
        if any(b < a for a, b in zip(raw, raw[1:])):
            continue  # needs actual ironing
        tr = iron(d)
        assert all(abs(a - b) <= 1e-12 for a, b in zip(tr.ironed, raw))
        checked += 1
    assert checked > 10
    # point masses are full fixed points of the value transform
    assert iron_distribution(DiscreteDistribution.point(4.0)) == \
        DiscreteDistribution.point(4.0)


def _raw_virtuals(d):
    k = len(d.atoms)
    q = 0.0
    out = []
    prev_r = 0.0
    for i in range(k - 1, -1, -1):
        v, p = d.atoms[i]
        r = (q + p) * v
        out.append((r - prev_r) / p)
        q += p
        prev_r = r
    return list(reversed(out))


def test_an_atom_too_light_to_move_the_tail_adds_no_segment():
    # 1 + 1e-17 is 1.0: the light atom's point would share quantile 1.0
    # with the heavy one's, a hull segment of zero width
    d = DiscreteDistribution.of([(0.0, 1e-17), (2.0, 1.0)])
    assert iron(d).ironed == (2.0, 2.0)
    assert iron_distribution(d) == DiscreteDistribution.of([(2.0, 1.0)])


def test_negative_values_rejected():
    d = DiscreteDistribution.of([(-1.0, 0.5), (2.0, 0.5)])
    with pytest.raises(ValueError):
        iron(d)


def test_revenue_transform_preserves_shape():
    p = ProductionInstance(
        dists=(DiscreteDistribution.point(3),
               DiscreteDistribution.of([(1.0, 0.45), (2.0, 0.1),
                                        (10.0, 0.45)])),
        types=(0, 1), days=(0, 0), production=((1,), (2,)), shipping=2)
    out = revenue_transform(p)
    assert out.types == p.types and out.production == p.production
    assert out.dists[0] == DiscreteDistribution.point(3)
    assert len(out.dists[1].atoms) == 2
    lam = LaminarInstance.build(
        p.dists, {"cap": 2, "children": [{"element": 0}, {"element": 1}]})
    out2 = revenue_transform(lam)
    assert out2.bin_caps == lam.bin_caps


def test_transformed_welfare_is_nonnegative():
    # the skip option keeps the optimal transformed value at or above zero
    from binprice import production_to_laminar, solve_full_dp
    d = DiscreteDistribution.of([(1.0, 0.45), (2.0, 0.1), (10.0, 0.45)])
    p = ProductionInstance(dists=(d, d), types=(0, 0), days=(0, 0),
                           production=((2,),), shipping=2)
    tbl, _ = solve_full_dp(production_to_laminar(revenue_transform(p)))
    assert tbl.optimal >= 0.0

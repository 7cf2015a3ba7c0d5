"""LP solutions to executable posted-price policies, and laminar marking.

An adaptive pricing policy with randomized tie-breaking quotes a
state-dependent threshold: values strictly above are accepted, strictly
below rejected, and a value equal to the threshold is accepted with an
independent coin of bias ``p``.  ``extract_pricing`` computes, per
(arrival, state) with positive state probability, the minimum support value
whose strict tail fits under the target conditional acceptance rate
``z = E[X*(s, v)] / Y*(s)`` and the coin bias that makes up the difference,
so that forward-evaluating the policy reproduces the LP's state
probabilities exactly.

``mark_laminar`` implements the depth rule: a bin at depth ``d`` of an
``L``-deep tree is small iff its capacity is at most ``(1/delta)**(L-d)``,
and smallness is inherited downward.  ``compose_policies`` takes one
pricing per unit of ``model.small_units``, for either instance kind, and
dispatches each arriving element to its unit, while a hard counter per row
of ``model.large_rows`` (a large bin, or the shipping capacity) quotes
infinity the moment any capacity enclosing the element is spent.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property

from .model import (
    InstanceError,
    LaminarInstance,
    Marking,
    _is_count,
    large_rows,
    marking_violations,
    small_units,
    unique_keys,
)


class RoundingError(RuntimeError):
    """An LP assignment too inconsistent to price (corrupt solution)."""


class PolicyError(ValueError):
    """A malformed policy document."""


class PricingPolicy:
    """Threshold rules for one sub-problem.

    ``rules`` maps ``(arrival index, local state)`` to ``(tau, p)``;
    ``tau = inf`` means the arrival is never served from that state.  The
    executor additionally quotes infinity whenever the local capacities
    cannot absorb a pick, so exhausted states are safe even under solver
    round-off.

    ``rules`` may be given as that dict or as a function of no arguments
    that builds it.  The function runs the first time ``rules`` or
    ``rule`` is read, and its dict is kept, so a policy that is never read
    is never decoded (``dp.solve_full_dp`` builds its policy this way).
    """

    def __init__(self, scope: str, rules):
        self.scope = scope
        if callable(rules):
            self._decode = rules
        else:
            self.rules = rules

    @cached_property
    def rules(self) -> dict:
        return self._decode()

    def __eq__(self, other):
        if not isinstance(other, PricingPolicy):
            return NotImplemented
        return self.scope == other.scope and self.rules == other.rules

    def rule(self, t, state):
        return self.rules.get((t, state))

    def to_json_dict(self) -> dict:
        items = []
        for (t, state), (tau, p) in sorted(self.rules.items()):
            items.append({"t": t, "state": list(state),
                          "tau": str(tau) if math.isinf(tau) else tau, "p": p})
        return {"scope": self.scope, "rules": items}

    @classmethod
    def from_json_dict(cls, doc) -> "PricingPolicy":
        if not isinstance(doc["scope"], str):
            raise TypeError(f"scope {doc['scope']!r} is not a string")
        rules = {}
        for item in doc["rules"]:
            t, state, tau, p = item["t"], item["state"], item["tau"], item["p"]
            if not (_is_count(t) and isinstance(state, list)
                    and all(map(_is_count, state))):
                raise TypeError(f"rule {item}: t must be an integer and "
                                "state a list of integers")
            if not (_is_number(tau) or tau in ("inf", "-inf")) \
                    or not _is_number(p):
                raise TypeError(f"rule {item}: tau must be a number, "
                                '"inf" or "-inf", and p a number')
            tau, p = float(tau), float(p)
            if math.isnan(tau) or not 0.0 <= p <= 1.0:
                raise ValueError(f"rule {item}: tau must not be NaN and p "
                                 "must lie in [0, 1]")
            if (t, tuple(state)) in rules:
                raise ValueError(f"rule {item} repeats an earlier t and state")
            rules[(t, tuple(state))] = (tau, p)
        return cls(scope=doc["scope"], rules=rules)


def _is_number(x) -> bool:
    """A JSON number: ``int`` or ``float`` but not ``bool``."""
    return isinstance(x, (int, float)) and not isinstance(x, bool)


@dataclass(frozen=True)
class ComposedPolicy:
    """Per-small-sub-problem policies behind hard large-capacity counters.

    ``counter_caps`` holds the original (unscaled) capacities; an element is
    quoted infinity whenever any of its ``counter_keys`` has been used up.
    """

    blocks: dict
    element_block: dict
    counter_caps: dict
    counter_keys: dict

    @property
    def scope(self) -> str:
        return "composed"

    def envelope(self) -> dict:
        """The document's fields other than ``scope`` and ``blocks``."""
        return {
            "element_block": {str(e): k
                              for e, k in sorted(self.element_block.items())},
            "counter_caps": dict(sorted(self.counter_caps.items())),
            "counter_keys": {str(e): list(keys)
                             for e, keys in sorted(self.counter_keys.items())},
        }

    def to_json_dict(self) -> dict:
        return {
            "scope": "composed",
            "blocks": {k: v.to_json_dict() for k, v in sorted(self.blocks.items())},
            **self.envelope(),
        }

    @classmethod
    def from_json_dict(cls, doc) -> "ComposedPolicy":
        caps = dict(doc["counter_caps"])
        if any(not isinstance(c, int) or isinstance(c, bool) or c < 0
               for c in caps.values()):
            raise ValueError("counter caps must be non-negative integers")
        keys = {_element_key(e): tuple(ks)
                for e, ks in doc["counter_keys"].items()}
        uncapped = {k for ks in keys.values() for k in ks} - caps.keys()
        if uncapped:
            raise ValueError(f"counters {sorted(map(repr, uncapped))} "
                             "have no cap")
        blocks = {k: PricingPolicy.from_json_dict(v)
                  for k, v in doc["blocks"].items()}
        # simulate runs a block under its key, evaluate_exact under its own
        # scope; a document must not let the two differ
        for k, block in blocks.items():
            if block.scope != k:
                raise ValueError(f"block {k!r} has scope {block.scope!r}")
        return cls(
            blocks=blocks,
            element_block={_element_key(e): k
                           for e, k in doc["element_block"].items()},
            counter_caps=caps,
            counter_keys=keys,
        )


def _element_key(text) -> int:
    """An element index written as a document key: decimal without sign or
    leading zeros, as ``model.bind_dynamics`` reads a scope index, so that
    no two keys name one element."""
    try:
        i = int(text)
    except ValueError:
        i = -1
    if i < 0 or text != str(i):  # "abc", "-1", "07", " 7", "+7", "1_0"
        raise ValueError(f"element key {text!r} is not a decimal index")
    return i


def policy_to_json(policy) -> str:
    """The policy document: the bytes of ``json.dumps(policy.to_json_dict(),
    indent=2, sort_keys=True) + "\\n"``, each rule written by one template
    (``indent`` would route ``json.dumps`` through its pure-Python encoder).
    ``tau`` and ``p`` are floats; an infinite ``tau`` is "inf" or "-inf"."""
    if not isinstance(policy, ComposedPolicy):
        return _pricing_json(policy, "") + "\n"
    # "blocks" sorts first, so the rest of the document follows its line
    head = '{\n  "blocks": {}'
    rest = json.dumps(dict(policy.envelope(), blocks={}, scope="composed"),
                      indent=2, sort_keys=True)[len(head):]
    blocks = ",\n".join(f'    {json.dumps(key)}: {_pricing_json(pol, "    ")}'
                         for key, pol in sorted(policy.blocks.items()))
    if blocks:
        blocks = "{\n" + blocks + "\n  }"
    return '{\n  "blocks": ' + (blocks or "{}") + rest + "\n"


def _pricing_json(policy, pad) -> str:
    """``policy``'s indented document, every line after the first prefixed
    with ``pad``."""
    p3 = pad + "      "
    p4 = p3 + "  "
    sep = ",\n" + p4
    rules = []
    for (t, state), (tau, p) in sorted(policy.rules.items()):
        state = f"[\n{p4}{sep.join(map(str, state))}\n{p3}]" if state else "[]"
        tau = f'"{tau}"' if math.isinf(tau) else float.__repr__(tau)
        rules.append(f'{pad}    {{\n{p3}"p": {float.__repr__(p)},\n'
                     f'{p3}"state": {state},\n{p3}"t": {t},\n'
                     f'{p3}"tau": {tau}\n{pad}    }}')
    rules = "[\n" + ",\n".join(rules) + f"\n{pad}  ]" if rules else "[]"
    return (f'{{\n{pad}  "rules": {rules},\n'
            f'{pad}  "scope": {json.dumps(policy.scope)}\n{pad}}}')


def policy_from_json(text: str):
    """Parse a policy document; raises ``PolicyError`` on any malformed one."""
    try:
        doc = json.loads(text, object_pairs_hook=unique_keys)
    except ValueError as exc:  # bad JSON, a repeated key, a too-long integer
        raise PolicyError(f"policy: invalid JSON ({exc})") from None
    if not isinstance(doc, dict) or not isinstance(doc.get("scope"), str):
        raise PolicyError("policy: document must be an object with a "
                          "string scope")
    try:
        if doc["scope"] == "composed":
            return ComposedPolicy.from_json_dict(doc)
        return PricingPolicy.from_json_dict(doc)
    except KeyError as exc:
        raise PolicyError(f"policy: missing field {exc}") from None
    except (TypeError, ValueError, AttributeError, OverflowError) as exc:
        raise PolicyError(f"policy: malformed document ({exc})") from None


# ---------------------------------------------------------------------------
# Extraction
# ---------------------------------------------------------------------------

Y_FLOOR = 1e-9


def extract_pricing(sol, built, key) -> PricingPolicy:
    """Price one block of a solved LP.

    States whose probability is below ``Y_FLOOR`` quote infinity; elsewhere
    the threshold is the smallest support value with ``Pr[v > tau] <= z``
    and the tie coin makes the conditional acceptance exactly ``z``.
    """
    info = built.block(key)
    dists = built.instance.dists
    rules = {}
    for lvl, t in enumerate(info.elements):
        atoms = dists[t].atoms
        na = len(atoms)
        ys = info.y_values(sol.x, lvl)
        xcs = info.xc_values(sol.x, lvl)
        for i, s in enumerate(info.levels[lvl]):
            y = ys[i]
            if y <= Y_FLOOR:
                rules[(t, s)] = (math.inf, 0.0)
                continue
            ex = sum(pa * xcs[i * na + a] for a, (_, pa) in enumerate(atoms))
            z = ex / y
            if z < -1e-9 or (ex > y * (1.0 + 1e-9) + 1e-9):
                raise RoundingError(
                    f"corrupt LP solution at t={t}, state={s}: z={z!r}")
            z = min(max(z, 0.0), 1.0)
            rules[(t, s)] = _price_for_rate(atoms, z)
    return PricingPolicy(scope=key, rules=rules)


def _price_for_rate(atoms, z):
    """Minimum support threshold and tie bias hitting acceptance rate ``z``."""
    tails = [0.0] * len(atoms)  # strict tail above each atom
    for a in range(len(atoms) - 2, -1, -1):
        tails[a] = tails[a + 1] + atoms[a + 1][1]
    for a, (v, pa) in enumerate(atoms):
        if tails[a] <= z:
            p = (z - tails[a]) / pa
            return (v, min(max(p, 0.0), 1.0))
    # z below even the top atom's (zero) strict tail cannot happen; guard:
    return (math.inf, 0.0)


def extract_all(sol, built) -> dict:
    return {key: extract_pricing(sol, built, key) for key in built.blocks}


# ---------------------------------------------------------------------------
# Marking
# ---------------------------------------------------------------------------


def mark_laminar(inst: LaminarInstance, delta: float) -> Marking:
    """Depth-based marking: small iff capacity fits within ``(1/delta)**(L-d)``.

    The boundary is inclusive, and every descendant of a small bin is small,
    so each large bin's capacity exceeds ``1/delta`` times the capacity
    bound of any small child.
    """
    if not (0.0 < delta < 1.0):
        raise ValueError("delta must be in (0, 1)")
    L = inst.depth
    inv = 1.0 / delta
    large = set()
    for b in range(inst.num_bins):  # pre-order: parents precede children
        parent = inst.bin_parents[b]
        if parent is not None and parent not in large:
            continue  # under a small bin
        bound = inv ** (L - inst.bin_depth[b])
        if inst.bin_caps[b] > bound * (1.0 + 1e-12):
            large.add(b)
    return Marking(large=frozenset(large))


# ---------------------------------------------------------------------------
# Composition
# ---------------------------------------------------------------------------


def compose_policies(inst, policies: dict,
                     mk: Marking | None = None) -> ComposedPolicy:
    """Bundle per-sub-problem policies behind the large-capacity counters.

    ``policies`` maps each of ``model.small_units(inst, mk)`` to its
    pricing, and nothing else.  The counters are ``model.large_rows``: the
    marking's large bins (laminar) or the shipping capacity (production),
    at their original capacities.
    Each element's counter keys run innermost first.
    """
    if isinstance(inst, LaminarInstance):
        if mk is None:
            raise ValueError("laminar composition requires a marking")
        errs = marking_violations(inst, mk)
        if errs:
            raise InstanceError(errs)
    units = small_units(inst, mk)
    errs = [f"policy: no pricing for sub-problem {k}"
            for k in units if k not in policies]
    errs += [f"policy: unexpected scope {k}" for k in policies
             if k not in units]
    if errs:
        raise InstanceError(errs)
    element_block = {e: key for key, elements in units.items()
                     for e in elements}
    rows = large_rows(inst, mk)
    caps = {key: cap for key, _, cap in rows}
    keys = dict.fromkeys(range(len(inst.dists)), ())
    for key, elements, _ in reversed(rows):  # descendants before ancestors
        for e in elements:
            keys[e] += (key,)
    return ComposedPolicy(blocks=dict(policies), element_block=element_block,
                          counter_caps=caps, counter_keys=keys)

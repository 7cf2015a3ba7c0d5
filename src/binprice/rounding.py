"""LP solutions to executable posted-price policies, and laminar marking.

An adaptive pricing policy with randomized tie-breaking quotes a
state-dependent threshold: values strictly above are accepted, strictly
below rejected, and a value equal to the threshold is accepted with an
independent coin of bias ``p``.  ``extract_all`` computes, for every
state with positive probability of every block at once, the minimum
support value whose strict tail fits under the target conditional
acceptance rate ``z = E[X*(s, v)] / Y*(s)`` and the coin bias that makes
up the difference, so that forward-evaluating the policy reproduces the
LP's state probabilities exactly.

A ``PricingPolicy`` built in process holds, per level of its block's
``model.StateLevels``, a ``tau`` and a ``p`` array over the level's
positions.  State tuples appear only at the JSON boundary: the writer
(``policy_to_json``, ``to_json_dict``) and ``rules``, decoded when read.
A policy read from a document keeps its rules dict; ``PricingPolicy.bind``
lays it over an instance's levels by encoding each rule's state with the
instance's ``StateCoding`` and searching the codes.

``mark_laminar`` implements the depth rule: a bin at depth ``d`` of an
``L``-deep tree is small iff its capacity is at most ``(1/delta)**(L-d)``,
and smallness is inherited downward.  ``compose_policies`` takes one
pricing per unit of ``model.small_units``, for either instance kind, and
dispatches each arriving element to its unit, while a hard counter per row
of ``model.large_rows`` (a large bin, or the shipping capacity) quotes
infinity the moment any capacity enclosing the element is spent.
"""

from __future__ import annotations

import bisect
import itertools
import json
import math
from dataclasses import dataclass
from functools import cached_property
from json.encoder import encode_basestring_ascii as _quoted

import numpy as np

from .model import (
    InstanceError,
    LaminarInstance,
    Marking,
    _is_count,
    atom_sums,
    decimal_index,
    large_rows,
    level_atoms,
    marking_violations,
    small_units,
    split_like,
    state_levels,
    unique_keys,
)


class RoundingError(RuntimeError):
    """An LP assignment too inconsistent to price (corrupt solution)."""


class PolicyError(ValueError):
    """A malformed policy document."""


class PricingPolicy:
    """Threshold rules ``(tau, p)`` for one sub-problem: quote ``tau`` to
    an arrival in a state, and take a value equal to it on a coin of bias
    ``p``; ``tau = inf`` means the arrival is never served from that state.
    The executor additionally quotes infinity whenever the local capacities
    cannot absorb a pick, so exhausted states are safe even under solver
    round-off.

    A policy built in process (``dp.threshold_policy``,
    ``extract_pricing``) holds ``levels``, its block's
    ``model.StateLevels``, and for the block's ``i``-th arrival
    ``elements[i]`` the arrays ``tau[i]`` and ``p[i]`` over the positions
    of level ``i``.  A policy read from a document, or given a dict, holds
    ``rules``, a dict from ``(arrival, state tuple)`` to ``(tau, p)``, and
    no levels.  ``bind`` lays either kind out over an instance's levels;
    an array policy decodes ``rules`` only when they are read.
    """

    def __init__(self, scope: str, rules=None, *, levels=None, elements=(),
                 tau=(), p=()):
        self.scope = scope
        self.levels, self.elements = levels, tuple(elements)
        self.tau, self.p = tau, p
        if levels is None:
            self.rules = rules

    @cached_property
    def rules(self) -> dict:
        """The arrays' rules, decoded on first read: levels last to first,
        each level's states ascending."""
        return {(t, s): rule for t, states, rules in reversed(self._decoded())
                for s, rule in zip(states, rules)}

    def _decoded(self) -> list:
        """``(t, states, rules)`` per level of an array policy."""
        rules = zip(np.concatenate(self.tau).tolist(),
                    np.concatenate(self.p).tolist()) if self.tau else ()
        return list(zip(self.elements, self.levels.tuples(),
                        split_like(list(rules), self.tau)))

    def __eq__(self, other):
        if not isinstance(other, PricingPolicy):
            return NotImplemented
        return self.scope == other.scope and self.rules == other.rules

    def rule(self, t, state):
        return self.rules.get((t, state))

    def sorted_rules(self):
        """``(t, state, tau, p)`` per rule in ``(t, state)`` order, the
        order of the document; an array policy's states are in code order
        within a level, which is tuple order."""
        if self.levels is None:
            return ((t, s, tau, p)
                    for (t, s), (tau, p) in sorted(self.rules.items()))
        return ((t, s, tau, p) for t, states, rules in sorted(
                    self._decoded(), key=lambda level: level[0])
                for s, (tau, p) in zip(states, rules))

    def bind(self, dyn, state_cap) -> tuple["PricingPolicy", list]:
        """This policy over the levels of ``dyn``, an array policy, and per
        arrival the mask of its level's states no rule covers (``None``
        where each is), which quote ``(inf, 0)``.  A policy over the very
        levels ``state_levels(dyn, state_cap)`` gives, which an instance
        keeps, is itself; any other's rules are encoded over those levels
        (``_rule_levels``) and matched."""
        levels = state_levels(dyn, state_cap)
        if levels is self.levels:
            return self, [None] * len(self.elements)
        tau, p, holes = [], [], []
        for (codes, rule_tau, rule_p), want in zip(
                _rule_levels(self.rules, dyn.elements, levels.coding),
                levels.codes):
            want = np.asarray(want)
            at = codes.searchsorted(want)
            hit = at < len(codes)
            hit[hit] = codes[at[hit]] == want[hit]
            at[~hit] = len(codes)  # past the rules: (inf, 0)
            tau.append(np.append(rule_tau, math.inf)[at])
            p.append(np.append(rule_p, 0.0)[at])
            holes.append(None if hit.all() else ~hit)
        return PricingPolicy(self.scope, levels=levels, elements=dyn.elements,
                             tau=tau, p=p), holes

    def to_json_dict(self) -> dict:
        items = [{"t": t, "state": list(state),
                  "tau": str(tau) if math.isinf(tau) else tau, "p": p}
                 for t, state, tau, p in self.sorted_rules()]
        return {"scope": self.scope, "rules": items}

    @classmethod
    def from_json_dict(cls, doc) -> "PricingPolicy":
        if not isinstance(doc["scope"], str):
            raise TypeError(f"scope {doc['scope']!r} is not a string")
        if not isinstance(doc["rules"], list):
            raise TypeError("rules must be a list")
        rules = {}
        for item in doc["rules"]:
            if not isinstance(item, dict):
                raise TypeError(f"rule {item!r} is not an object")
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


def _rule_levels(rules: dict, elements, coding) -> list:
    """``(codes, tau, p)`` per arrival of ``elements``, codes ascending,
    from a rules dict.  A rule of another arrival, or whose state is not
    one of ``coding``'s (a wrong length, or a coordinate outside its
    range, which would alias another state's code), is left out."""
    index = {e: i for i, e in enumerate(elements)}
    d = len(coding.radices)
    keys = [k for k in rules if k[0] in index and len(k[1]) == d]
    digits = np.array([s for _, s in keys], dtype=object).reshape(len(keys), d)
    digits -= np.array(coding.lows, dtype=object)
    ok = ((digits >= 0) & (digits < np.array(coding.radices, dtype=object))
          ).all(axis=1)
    codes = (digits[ok] * np.array(coding.strides, dtype=object)).sum(axis=1)
    codes = codes.astype(coding.dtype)
    lvl = np.array([index[t] for t, _ in keys], dtype=np.int64)[ok]
    taus, ps = np.array([rules[k] for k in keys], dtype=float).reshape(
        len(keys), 2)[ok].T
    # by level, then by code within a level
    order = np.argsort(codes, kind="stable")
    order = order[np.argsort(lvl[order], kind="stable")]
    cuts = np.searchsorted(lvl[order], np.arange(len(elements) + 1))
    return [(codes[run], taus[run], ps[run])
            for run in (order[a:b] for a, b in zip(cuts, cuts[1:]))]


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
        blocks, element_block, caps, counter_keys = (
            _object(doc, field) for field in
            ("blocks", "element_block", "counter_caps", "counter_keys"))
        if any(not isinstance(c, int) or isinstance(c, bool) or c < 0
               for c in caps.values()):
            raise ValueError("counter caps must be non-negative integers")
        if not all(isinstance(ks, list) and all(isinstance(k, str) for k in ks)
                   for ks in counter_keys.values()):
            raise TypeError("counter keys must be lists of strings")
        if not all(isinstance(k, str) for k in element_block.values()):
            raise TypeError("element_block must map elements to strings")
        # no two keys may name one element: each a ``model.decimal_index``
        bad = [e for e in (*counter_keys, *element_block)
               if decimal_index(e) < 0]
        if bad:
            raise ValueError(f"element key {bad[0]!r} is not a decimal index")
        keys = {int(e): tuple(ks) for e, ks in counter_keys.items()}
        uncapped = {k for ks in keys.values() for k in ks} - caps.keys()
        if uncapped:
            raise ValueError(f"counters {sorted(map(repr, uncapped))} "
                             "have no cap")
        blocks = {k: PricingPolicy.from_json_dict(v) for k, v in blocks.items()}
        # simulate runs a block under its key, evaluate_exact under its own
        # scope; a document must not let the two differ
        for k, block in blocks.items():
            if block.scope != k:
                raise ValueError(f"block {k!r} has scope {block.scope!r}")
        return cls(
            blocks=blocks,
            element_block={int(e): k
                           for e, k in element_block.items()},
            counter_caps=caps,
            counter_keys=keys,
        )


def _object(doc, field) -> dict:
    """``doc[field]``, which must be a JSON object."""
    if not isinstance(doc[field], dict):
        raise TypeError(f"{field} must be an object")
    return doc[field]


def policy_to_json(policy) -> str:
    """The policy document: the bytes of ``json.dumps(policy.to_json_dict(),
    indent=2, sort_keys=True) + "\\n"``, written without ``json.dumps``,
    whose ``indent`` routes it through the pure-Python encoder: each rule
    by one template, the rest by ``_indented``.  ``tau`` and ``p`` are
    floats; an infinite ``tau`` is "inf" or "-inf"."""
    if not isinstance(policy, ComposedPolicy):
        return _pricing_json(policy, "") + "\n"
    blocks = ",\n".join(f'    {_quoted(key)}: {_pricing_json(pol, "    ")}'
                         for key, pol in sorted(policy.blocks.items()))
    blocks = "{\n" + blocks + "\n  }" if blocks else "{}"
    # "blocks" sorts first; the other fields follow its line
    rest = _indented(dict(policy.envelope(), scope="composed"))
    return '{\n  "blocks": ' + blocks + ",\n" + rest[2:] + "\n"


def _indented(x, pad="") -> str:
    """``x``, of objects, lists, strings and integers, as ``json.dumps(x,
    indent=2, sort_keys=True)`` writes it, every line after the first
    prefixed with ``pad``."""
    if isinstance(x, str):
        return _quoted(x)
    if isinstance(x, int):
        return int.__repr__(x)
    inner = pad + "  "
    if isinstance(x, dict):
        items = [f"{_quoted(k)}: {_indented(v, inner)}"
                 for k, v in sorted(x.items())]
    else:
        items = [_indented(v, inner) for v in x]
    ends = "{}" if isinstance(x, dict) else "[]"
    if not items:
        return ends
    return f"{ends[0]}\n{inner}" + f",\n{inner}".join(items) + f"\n{pad}{ends[1]}"


def _pricing_json(policy, pad) -> str:
    """``policy``'s indented document, every line after the first prefixed
    with ``pad``."""
    p3 = pad + "      "
    p4 = p3 + "  "
    sep = ",\n" + p4
    rules = []
    for t, state, tau, p in policy.sorted_rules():
        state = f"[\n{p4}{sep.join(map(str, state))}\n{p3}]" if state else "[]"
        tau = f'"{tau}"' if math.isinf(tau) else float.__repr__(tau)
        rules.append(f'{pad}    {{\n{p3}"p": {float.__repr__(p)},\n'
                     f'{p3}"state": {state},\n{p3}"t": {t},\n'
                     f'{p3}"tau": {tau}\n{pad}    }}')
    rules = "[\n" + ",\n".join(rules) + f"\n{pad}  ]" if rules else "[]"
    return (f'{{\n{pad}  "rules": {rules},\n'
            f'{pad}  "scope": {_quoted(policy.scope)}\n{pad}}}')


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

def extract_pricing(sol, built, key) -> PricingPolicy:
    """Price one block of a solved LP (``extract_all``)."""
    return _extracted(sol, built, [key])[key]


def extract_all(sol, built) -> dict:
    """Price every block of a solved LP, every state of every level at once.

    A solution's ``Y`` are the exact occupancies of the DP policies (or
    their mixture) that its certificate proves optimal, so every state with
    ``Y > 0`` is priced and the states of probability 0 quote infinity.
    The threshold is the smallest support value with ``Pr[v > tau] <= z``,
    ``z = X/Y``, and the tie coin makes the conditional acceptance exactly
    ``z``.
    """
    return _extracted(sol, built, list(built.blocks))


def _extracted(sol, built, keys) -> dict:
    infos = [built.block(key) for key in keys]
    runs = [(info, lvl) for info in infos for lvl in range(len(info.elements))]
    widths = [len(info.states.codes[lvl]) for info, lvl in runs]
    starts = [0, *itertools.accumulate(widths)]
    dists = built.instance.dists
    values, probs = level_atoms(
        dists, [info.elements[lvl] for info, lvl in runs], widths)
    # state s of a run holds Y at y + s and X(t,state,atom) from xc + s * k
    s = np.arange(starts[-1])
    y, xc, k = np.array([
        (info.y[lvl] - a, info.xc[lvl] - a * len(dists[info.elements[lvl]].atoms),
         len(dists[info.elements[lvl]].atoms))
        for (info, lvl), a in zip(runs, starts)]).repeat(widths, axis=0).T
    y = sol.x[y + s]
    real = np.arange(len(probs))[:, None] < k  # the padded atoms are not
    xc = sol.x[np.where(real, xc + s * k + np.arange(len(probs))[:, None], 0)]
    ex = atom_sums(probs * np.where(real, xc, 0.0))
    priced = y > 0.0
    z = ex / np.where(priced, y, 1.0)
    bad = priced & ((z < -1e-9) | (ex > y * (1.0 + 1e-9) + 1e-9))
    if bad.any():
        i = int(bad.argmax())
        r = bisect.bisect_right(starts, i) - 1
        info, lvl = runs[r]
        raise RoundingError(
            f"corrupt LP solution at t={info.elements[lvl]}, "
            f"state={info.states.state(lvl, i - starts[r])}: z={float(z[i])!r}")
    # ex is never -0.0 (atom_sums), so numpy's clip keeps Python's bits
    return price_rates([info.states for info in infos], values, probs, z,
                       priced)


def price_rates(blocks, values, probs, z, priced) -> dict:
    """A ``PricingPolicy`` per ``model.StateLevels`` of ``blocks``, under
    its dynamics' scope: every state of its levels ``0 .. n - 1``, level
    after level and block after block, with its atoms along the first axis
    of ``values`` and ``probs``, is priced for the acceptance rate ``z``,
    clipped to [0, 1], where ``priced``, and quotes infinity elsewhere."""
    tau, p = _price_for_rate(values, probs, np.minimum(np.maximum(z, 0.0), 1.0))
    runs = [codes for lv in blocks for codes in lv.codes[:-1]]
    tau = split_like(np.where(priced, tau, math.inf), runs)
    p = split_like(np.where(priced, p, 0.0), runs)
    out, at = {}, 0
    for lv in blocks:
        key, elements = lv.dyn.key, lv.dyn.elements
        out[key] = PricingPolicy(key, levels=lv, elements=elements,
                                 tau=tau[at:at + len(elements)],
                                 p=p[at:at + len(elements)])
        at += len(elements)
    return out


def _price_for_rate(values, probs, z):
    """Minimum support thresholds and tie biases hitting the acceptance
    rates ``z``, ``(inf, 0)`` where ``z`` is NaN: ``values`` and
    ``probs`` hold the atoms along their first axis, padded atoms last
    with probability 0."""
    # the strict tail above each atom, summed from the top down; it falls
    # along the atoms, so those whose tail does not fit under z come first
    tails = np.zeros_like(probs)
    tails[:-1] = probs[:0:-1].cumsum(axis=0)[::-1]
    first = (~(tails <= z)).sum(axis=0)
    found = first < len(probs)
    a = (np.minimum(first, len(probs) - 1),
         *np.indices(np.shape(z), sparse=True))
    # z - tails[a] >= +0.0 where found
    return (np.where(found, values[a], math.inf),
            np.where(found, np.minimum((z - tails[a]) / probs[a], 1.0), 0.0))


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

"""Instance representations for capacity-constrained Bayesian online selection.

Two canonical problem forms live here:

* ``ProductionInstance`` -- buyers of ``m`` product types arrive in a fixed
  order over ``T`` days; cumulative production of each type caps per-type
  sales day by day, and a global shipping capacity ``K`` caps total sales.

* ``LaminarInstance`` -- elements arrive in a fixed order and a laminar
  family of capacitated bins (a tree whose internal nodes are bins and whose
  leaves are the elements) restricts which subsets may be selected.

Every production instance converts into an equivalent laminar instance
(``production_to_laminar``): one nested chain of bins per type, all inside a
root bin carrying the shipping capacity.

The module also provides the sub-problem *dynamics* used by the dynamic
programs, LP builders and policy executors: local states are tuples
(remaining capacities of the bins of one sub-tree, or a single sold count for
a per-type chain).  ``state_levels`` is the one enumeration of their
reachable states; ``StateLevels.tuples`` and ``StateLevels.forbidden``
are its tuple view, with the forbidden states one over-acceptance away
from a reachable one, and ``reachable_profile`` enumerates and returns
that view.  An instance derives each of these forms once (``derived``).
"""

from __future__ import annotations

import itertools
import json
import math
import sys
import weakref
from dataclasses import dataclass

import numpy as np

PROB_TOL = 1e-12
DEFAULT_STATE_CAP = 10 ** 6


class _Forms(dict):
    """An instance's store of derived forms (``derived``).  It pickles and
    deep-copies empty: weak references do not pickle, and forms rebuild."""

    def __reduce__(self):
        return _Forms, ()


class InstanceError(ValueError):
    """A malformed instance document or in-memory instance."""

    def __init__(self, violations):
        if isinstance(violations, str):
            violations = [violations]
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


class SizingError(RuntimeError):
    """A state enumeration exceeded the configured cap."""

    def __init__(self, scope, size, cap):
        self.scope = scope
        self.size = size
        self.cap = cap
        super().__init__(f"state space of {scope} exceeds cap ({size} > {cap})")


class LpError(RuntimeError):
    """HiGHS found no optimum, or the dual search (``dp.relax``) gave up."""


# ---------------------------------------------------------------------------
# Distributions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DiscreteDistribution:
    """Finite value distribution given as (value, probability) atoms.

    Atoms are sorted strictly ascending by value and probabilities sum to 1.
    Values may be negative; shifted sub-problem solves rely on that.
    """

    atoms: tuple[tuple[float, float], ...]

    @classmethod
    def of(cls, pairs) -> "DiscreteDistribution":
        return cls(tuple((float(v), float(p)) for v, p in pairs))

    @classmethod
    def point(cls, value) -> "DiscreteDistribution":
        return cls(((float(value), 1.0),))

    @classmethod
    def uniform(cls, values) -> "DiscreteDistribution":
        vals = sorted(float(v) for v in values)
        p = 1.0 / len(vals)
        return cls(tuple((v, p) for v in vals))

    @property
    def values(self) -> tuple[float, ...]:
        return tuple(v for v, _ in self.atoms)

    @property
    def probs(self) -> tuple[float, ...]:
        return tuple(p for _, p in self.atoms)

    def tail_above(self, x) -> float:
        """Pr[v > x]."""
        return sum(p for v, p in self.atoms if v > x)

    def prob_at(self, x) -> float:
        """Pr[v = x]; nonzero only at atoms."""
        return sum(p for v, p in self.atoms if v == x)


def atom_sums(terms) -> np.ndarray:
    """The columns of ``terms`` (atoms by states) each summed from 0 in
    atom order, as ``sum`` adds a distribution's atoms: a cumulative sum is
    sequential, and the final ``+ 0.0`` gives an all-zero column the sign
    ``0 + -0.0`` has."""
    return terms.cumsum(axis=0)[-1] + 0.0


def level_atoms(dists, elements, widths, shift=0.0):
    """The arrival distribution of every state of a block's levels
    ``0 .. n - 1``, level ``i`` holding ``widths[i]`` states at
    ``elements[i]``: ``(values, probs)``, atoms by states, values minus
    ``shift``, or minus ``shift[i]`` at level ``i`` when it is a list; a
    distribution with fewer atoms than the widest is padded with value 0
    at probability 0."""
    atoms = [dists[e].atoms for e in elements]
    k = max(map(len, atoms))
    shifts = shift if isinstance(shift, list) else [shift] * len(atoms)
    table = np.array([a + ((s, 0.0),) * (k - len(a))
                      for a, s in zip(atoms, shifts)])
    table = table.repeat(widths, axis=0).T
    if isinstance(shift, list):
        shift = np.repeat(shift, widths)
    return table[0] - shift, table[1]


def split_like(flat, parts) -> list:
    """``flat`` cut into consecutive runs as long as ``parts``."""
    ends = list(itertools.accumulate(map(len, parts)))
    return [flat[a:b] for a, b in zip([0] + ends, ends)]


def _element_violations(dists) -> list:
    """Each element's distribution's violations; with none, whether the
    largest welfare, the sum of every element's largest ``|value|``, is
    finite: past the float range a sum of values reads ``inf``."""
    out = [msg for t, d in enumerate(dists)
           for msg in distribution_violations(d, f"elements[{t}].dist")]
    if not out and not math.isfinite(
            sum(max(abs(v) for v, _ in d.atoms) for d in dists)):
        out.append("elements: the largest welfare (the sum of each "
                   "element's largest |value|) is beyond the float range")
    return out


def distribution_violations(dist, where="dist"):
    out = []
    if not isinstance(dist, DiscreteDistribution) or not dist.atoms:
        return [f"{where}: empty or missing distribution"]
    total = sum(p for _, p in dist.atoms)
    if abs(total - 1.0) > PROB_TOL:
        out.append(f"{where}: probabilities sum {total!r} != 1")
    for v, p in dist.atoms:
        if not math.isfinite(v):
            out.append(f"{where}: value {v!r} is not finite")
        if not (0.0 < p <= 1.0):
            out.append(f"{where}: probability {p!r} outside (0,1] at value {v!r}")
    vals = [v for v, _ in dist.atoms]
    if any(b <= a for a, b in zip(vals, vals[1:])):
        out.append(f"{where}: values not strictly increasing")
    return out


# ---------------------------------------------------------------------------
# Production instances
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProductionInstance:
    """Buyers arrive in order; per-type cumulative production plus a global
    shipping capacity restrict sales.

    All indices are 0-based: ``types[t]`` in ``[0, num_types)``, ``days[t]``
    in ``[0, num_days)`` and non-decreasing, ``production[j][i]`` is the
    cumulative number of type-``j`` units available from the start of day
    ``i`` (non-decreasing in ``i``).  Construction raises
    ``InstanceError`` on any violation of these invariants.
    """

    dists: tuple[DiscreteDistribution, ...]
    types: tuple[int, ...]
    days: tuple[int, ...]
    production: tuple[tuple[int, ...], ...]
    shipping: int

    def __post_init__(self):
        object.__setattr__(self, "_derived", _Forms())  # no field: not in ==
        errs = _production_violations(self)
        if errs:
            raise InstanceError(errs)

    @property
    def num_buyers(self) -> int:
        return len(self.dists)

    @property
    def num_types(self) -> int:
        return len(self.production)

    @property
    def num_days(self) -> int:
        return len(self.production[0]) if self.production else 0

    def buyers_of_type(self, j) -> tuple[int, ...]:
        return tuple(t for t in range(self.num_buyers) if self.types[t] == j)

    def available(self, j, day) -> int:
        return self.production[j][day]


def _is_count(x) -> bool:
    """A JSON integer: ``int`` but not ``bool``."""
    return isinstance(x, int) and not isinstance(x, bool)


def _decreasing(seq) -> bool:
    """Whether an entry of ``seq`` is below its predecessor; entries that do
    not compare are left to the per-entry checks."""
    try:
        return any(b < a for a, b in zip(seq, seq[1:]))
    except TypeError:
        return False


def _production_violations(p: ProductionInstance):
    out = []
    n = p.num_buyers
    if n == 0:
        out.append("elements: instance has no buyers")
    out.extend(_element_violations(p.dists))
    if len(p.types) != n:
        out.append(f"types: length {len(p.types)} != {n} buyers")
    if len(p.days) != n:
        out.append(f"days: length {len(p.days)} != {n} buyers")
    m = p.num_types
    if m == 0:
        out.append("production: no types")
    lens = {len(col) for col in p.production}
    if len(lens) > 1:
        out.append("production: ragged day columns")
    T = p.num_days
    for t, j in enumerate(p.types):
        if not _is_count(j) or not (0 <= j < m):
            out.append(f"types[{t}]: {j!r} outside [0,{m})")
    for t, i in enumerate(p.days):
        if not _is_count(i) or not (0 <= i < T):
            out.append(f"days[{t}]: {i!r} outside [0,{T})")
    if _decreasing(p.days):
        out.append("days: not non-decreasing over arrivals")
    for j, col in enumerate(p.production):
        if any(not _is_count(k) or k < 0 for k in col):
            out.append(f"production[{j}]: capacities must be non-negative integers")
        if _decreasing(col):
            out.append(f"production[{j}]: cumulative units not non-decreasing")
    if not _is_count(p.shipping) or p.shipping < 0:
        out.append(f"shipping: {p.shipping!r} must be a non-negative integer")
    return out


# ---------------------------------------------------------------------------
# Laminar instances
# ---------------------------------------------------------------------------


class LaminarInstance:
    """Ordered elements under a tree of capacitated bins.

    Bins are numbered in pre-order with the root at id 0.  Construction
    normalizes the tree: child capacities are clamped to their parent's,
    bins with no elements are dropped, and a parent whose member set equals
    its single child's is collapsed into that child (keeping the smaller
    capacity).  Instances are immutable once built, and construction raises
    ``InstanceError`` if the result is not a valid instance.
    """

    def __init__(self, dists, bin_caps, bin_parents, bin_child_bins,
                 bin_child_elems):
        self.dists = tuple(dists)
        self.bin_caps = tuple(bin_caps)
        self.bin_parents = tuple(bin_parents)
        self.bin_child_bins = tuple(tuple(c) for c in bin_child_bins)
        self.bin_child_elems = tuple(tuple(e) for e in bin_child_elems)
        nb = len(self.bin_caps)
        elem_bin = {}
        for b in range(nb):
            for e in self.bin_child_elems[b]:
                elem_bin[e] = b
        self.elem_bin = tuple(elem_bin[e] for e in range(len(self.dists)))
        depth = [0] * nb
        for b in range(1, nb):
            depth[b] = depth[self.bin_parents[b]] + 1
        self.bin_depth = tuple(depth)
        members = [set(self.bin_child_elems[b]) for b in range(nb)]
        for b in range(nb - 1, 0, -1):
            members[self.bin_parents[b]] |= members[b]
        self._members = tuple(frozenset(s) for s in members)
        self._derived = _Forms()
        errs = _laminar_violations(self)
        if errs:
            raise InstanceError(errs)

    @classmethod
    def build(cls, dists, tree) -> "LaminarInstance":
        """Build from a nested ``{"cap": int, "children": [...]}`` spec with
        ``{"element": idx}`` leaves; applies normalization."""
        dists = tuple(dists)
        n = len(dists)
        node = _check_tree(tree, n)
        node = _clamp_caps(node, None)
        node = _drop_empty(node)
        if node is None:
            raise InstanceError("bins: root bin has no elements")
        node = _collapse(node)
        caps, parents, child_bins, child_elems = [], [], [], []

        def flatten(nd, parent):
            b = len(caps)
            caps.append(nd["cap"])
            parents.append(parent)
            child_bins.append([])
            child_elems.append(list(nd["elems"]))
            for kid in nd["bins"]:
                cb = flatten(kid, b)
                child_bins[b].append(cb)
            return b

        flatten(node, None)
        return cls(dists, caps, parents, child_bins, child_elems)

    # -- basic accessors ----------------------------------------------------

    @property
    def num_elements(self) -> int:
        return len(self.dists)

    @property
    def num_bins(self) -> int:
        return len(self.bin_caps)

    def bin_elements(self, b) -> frozenset:
        """All elements below bin ``b``."""
        return self._members[b]

    def elem_ancestors(self, e) -> tuple[int, ...]:
        """Bins containing element ``e``, innermost first, root last."""
        out = []
        b = self.elem_bin[e]
        while b is not None:
            out.append(b)
            b = self.bin_parents[b]
        return tuple(out)

    def subtree_bins(self, b) -> tuple[int, ...]:
        """Bins of the sub-tree rooted at ``b``, in pre-order."""
        out = []
        stack = [b]
        while stack:
            cur = stack.pop()
            out.append(cur)
            stack.extend(reversed(self.bin_child_bins[cur]))
        return tuple(out)

    @property
    def depth(self) -> int:
        """Tree depth counting element leaves (root at 0)."""
        return 1 + max(self.bin_depth[self.elem_bin[e]]
                       for e in range(self.num_elements))

    def to_tree(self) -> dict:
        def emit(b):
            children = [{"element": e} for e in sorted(self.bin_child_elems[b])]
            children += [emit(c) for c in self.bin_child_bins[b]]
            return {"cap": self.bin_caps[b], "children": children}

        return emit(0)


def _check_tree(node, n, seen=None, top=True):
    if seen is None:
        seen = set()
    if not isinstance(node, dict):
        raise InstanceError(f"bins: node {node!r} is not an object")
    if set(node.keys()) != {"cap", "children"}:
        raise InstanceError(
            f"bins: node keys {sorted(node.keys())} != ['cap', 'children']")
    cap = node["cap"]
    if not _is_count(cap) or cap < 0:
        raise InstanceError(f"bins: cap {cap!r} must be a non-negative integer")
    kids = node["children"]
    if not isinstance(kids, list):
        raise InstanceError("bins: children must be a list")
    elems, bins = [], []
    for kid in kids:
        if isinstance(kid, dict) and set(kid.keys()) == {"element"}:
            e = kid["element"]
            if not _is_count(e) or not (0 <= e < n):
                raise InstanceError(f"bins: element index {e!r} outside [0,{n})")
            if e in seen:
                raise InstanceError(f"bins: element {e} appears in multiple leaves")
            seen.add(e)
            elems.append(e)
        else:
            bins.append(_check_tree(kid, n, seen, top=False))
    if top and len(seen) != n:
        missing = sorted(set(range(n)) - seen)
        raise InstanceError(f"bins: elements {missing} missing from the tree")
    return {"cap": cap, "elems": elems, "bins": bins}


def _clamp_caps(node, parent_cap):
    cap = node["cap"] if parent_cap is None else min(node["cap"], parent_cap)
    return {"cap": cap, "elems": node["elems"],
            "bins": [_clamp_caps(b, cap) for b in node["bins"]]}


def _drop_empty(node):
    bins = [b for b in (_drop_empty(k) for k in node["bins"]) if b is not None]
    if not node["elems"] and not bins:
        return None
    return {"cap": node["cap"], "elems": node["elems"], "bins": bins}


def _collapse(node):
    bins = [_collapse(b) for b in node["bins"]]
    if not node["elems"] and len(bins) == 1:
        # identical member sets: keep the child (its cap is the min after clamping)
        return bins[0]
    return {"cap": node["cap"], "elems": node["elems"], "bins": bins}


def _laminar_violations(inst: LaminarInstance):
    out = []
    if inst.num_elements == 0:
        out.append("elements: instance has no elements")
    out.extend(_element_violations(inst.dists))
    for b in range(inst.num_bins):
        cap = inst.bin_caps[b]
        if not isinstance(cap, int) or cap < 0:
            out.append(f"bins[{b}].cap: {cap!r} must be a non-negative integer")
        parent = inst.bin_parents[b]
        if parent is not None and cap > inst.bin_caps[parent]:
            out.append(f"bins[{b}].cap: {cap} exceeds parent bin cap "
                       f"{inst.bin_caps[parent]}")
    if inst.num_bins and len(inst.bin_elements(0)) != inst.num_elements:
        out.append("bins: root bin does not contain all elements")
    return out


def validate(instance) -> list[str]:
    """Return a list of invariant violations; empty iff the instance is valid.

    Both instance classes run this check when they are built, so it is
    empty for every instance that construction returned.
    """
    if isinstance(instance, ProductionInstance):
        return _production_violations(instance)
    if isinstance(instance, LaminarInstance):
        return _laminar_violations(instance)
    return [f"instance: unsupported type {type(instance).__name__}"]


# ---------------------------------------------------------------------------
# Production -> laminar conversion
# ---------------------------------------------------------------------------


def production_to_laminar(p: ProductionInstance) -> LaminarInstance:
    """Encode production/shipping constraints as nested capacity bins.

    The root bin carries the shipping capacity; each type contributes a chain
    of nested bins, one per production day, holding the buyers that have
    arrived by that day.  Day levels without new arrivals collapse away
    (keeping the smaller capacity), which the generic normalization does.
    """
    children = []
    for j in range(p.num_types):
        buyers = p.buyers_of_type(j)
        if not buyers:
            continue
        node = None
        for day in range(p.num_days):
            here = [{"element": t} for t in buyers if p.days[t] == day]
            kids = ([node] if node is not None else []) + here
            if not kids:
                continue
            node = {"cap": p.production[j][day], "children": kids}
        children.append(node)
    tree = {"cap": p.shipping, "children": children}
    return LaminarInstance.build(p.dists, tree)


def derived(inst, key, build, *args, **kwargs):
    """``inst``'s derived form ``key``: ``build(*args, **kwargs)`` on first
    use, kept in its store while it lives (built each time if it is None)."""
    if inst is None:
        return build(*args, **kwargs)
    form = inst._derived.get(key)
    if form is None:
        form = inst._derived[key] = build(*args, **kwargs)
    return form


def as_laminar(instance) -> LaminarInstance:
    if isinstance(instance, LaminarInstance):
        return instance
    return derived(instance, "laminar", production_to_laminar, instance)


# ---------------------------------------------------------------------------
# Sub-problem dynamics and state spaces
# ---------------------------------------------------------------------------


class _Dynamics:
    """Moves on one sub-problem's state tuples, read off its ``step``.

    ``step(e)`` is ``(coords, delta, limits)``: picking ``e`` adds ``delta``
    to each coordinate in ``coords`` and is allowed iff every result lies in
    ``[0, limit]``.  ``instance()`` is the instance it reads, whose store
    keeps its levels: a weak reference, so that no cycle forms.
    """

    def pick(self, state, e):
        """``state`` after a pick of ``e``, allowed or not."""
        coords, delta, _ = self.step(e)
        s = list(state)
        for k in coords:
            s[k] += delta
        return tuple(s)


class BinSubproblem(_Dynamics):
    """Selection dynamics inside one bin's sub-tree.

    States are tuples of remaining capacities of the sub-tree's bins in
    pre-order; picking an element decrements every bin on its path.
    ``ranges[i]`` bounds coordinate ``i`` over reachable states: a bin's
    remaining capacity never falls below its cap minus its element count.
    """

    def __init__(self, inst: LaminarInstance, root_bin: int):
        self.instance = weakref.ref(inst)
        self.key = _bin_scope(root_bin)
        self.bins = inst.subtree_bins(root_bin)
        index = {b: i for i, b in enumerate(self.bins)}
        self.elements = tuple(sorted(inst.bin_elements(root_bin)))
        self.initial = tuple(inst.bin_caps[b] for b in self.bins)
        self.ranges = tuple(
            (max(0, inst.bin_caps[b] - len(inst.bin_elements(b))),
             inst.bin_caps[b]) for b in self.bins)
        self._steps = {}
        for e in self.elements:
            coords = tuple(index[b] for b in inst.elem_ancestors(e)
                           if b in index)
            self._steps[e] = coords, -1, tuple(self.initial[i] for i in coords)

    def step(self, e):
        return self._steps[e]


class TypeSubproblem(_Dynamics):
    """Per-type chain dynamics for a production instance.

    States are single sold counts ``(s,)``; buyer ``t`` can be served iff the
    cumulative production of its type by its day exceeds ``s``.
    """

    def __init__(self, p: ProductionInstance, type_index: int):
        self.instance = weakref.ref(p)
        self.key = f"type:{type_index}"
        self.type_index = type_index
        self.elements = p.buyers_of_type(type_index)
        self.initial = (0,)
        self._cap_at = {t: p.available(type_index, p.days[t])
                        for t in self.elements}
        self.ranges = ((0, min(len(self.elements),
                               max(self._cap_at.values(), default=0))),)

    def step(self, e):
        return (0,), 1, (self._cap_at[e],)


class SingletonSubproblem(_Dynamics):
    """Trivial dynamics for a single element with no local capacity."""

    def __init__(self, inst, element: int):
        self.instance = weakref.ref(inst)
        self.key = f"elem:{element}"
        self.elements = (element,)
        self.initial = ()
        self.ranges = ()

    def step(self, e):
        return (), 0, ()


def decimal_index(text) -> int:
    """``text`` read as an index written in decimal without sign or leading
    zeros, so that no two texts name one index; -1 where it is not one
    ("abc", "-1", "07", " 7", "+7", "1_0")."""
    try:
        i = int(text)
    except ValueError:
        return -1
    return i if text == str(i) else -1


def _bin_scope(b) -> str:
    return "root" if b == 0 else f"bin:{b}"


def bind_dynamics(scope: str, instance):
    """The dynamics behind a policy scope key: ``root``, ``bin:b``,
    ``type:j`` or ``elem:e``, with a ``decimal_index`` present in
    ``instance``; one per scope, in the store of the instance it reads."""
    kind, _, text = ("bin:0" if scope == "root" else scope).partition(":")
    if kind == "bin":
        instance = as_laminar(instance)
        size = instance.num_bins
    elif kind == "type":
        if not isinstance(instance, ProductionInstance):
            raise InstanceError(f"scope {scope}: requires a production instance")
        size = instance.num_types
    elif kind == "elem":
        size = len(instance.dists)
    i = decimal_index(text)
    if i < 0 or kind not in ("bin", "type", "elem"):
        raise InstanceError(f"scope {scope!r}: unknown policy scope")
    if i >= size:
        raise InstanceError(f"scope {scope}: no such {kind}")
    build = (BinSubproblem if kind == "bin" else TypeSubproblem
             if kind == "type" else SingletonSubproblem)
    return derived(instance, ("dyn", scope), build, instance, i)


def scope_instance(keys, inst):
    """The instance policy scopes ``keys`` read: ``inst``'s laminar form if
    a key is ``root``, ``bin:b`` or ``elem:e``, else a production ``inst``."""
    if any(k == "root" or k.startswith(("bin:", "elem:")) for k in keys):
        return as_laminar(inst)
    if not isinstance(inst, ProductionInstance):
        raise InstanceError("policy scopes require a production instance")
    return inst


def meters(inst) -> tuple:
    """``(names, of_element, counted)`` of the capacities ``inst`` meters:
    each meter's name (a bin's scope key, or ``type:j`` then ``shipping``),
    each element's ``(meter, cap)`` pairs innermost first, and the meter of
    each counter key ``large_rows`` can name (``bin:b``, ``shipping``)."""
    if isinstance(inst, ProductionInstance):
        m = inst.num_types
        return ([f"type:{j}" for j in range(m)] + ["shipping"],
                [((j, inst.available(j, day)), (m, inst.shipping))
                 for j, day in zip(inst.types, inst.days)],
                {"shipping": m})
    return ([_bin_scope(b) for b in range(inst.num_bins)],
            [[(b, inst.bin_caps[b]) for b in inst.elem_ancestors(e)]
             for e in range(inst.num_elements)],
            {f"bin:{b}": b for b in range(inst.num_bins)})


class StateCoding:
    """Mixed-radix integer codes of one dynamics' states.

    Coordinate ``k`` of a state ranges over ``dyn.ranges[k] = (lo, hi)``
    and is the digit ``s[k] - lo`` of radix ``hi - lo + 1``, first
    coordinate most significant, so numeric order of the codes is the
    lexicographic order of the state tuples (a chain's code is its sold
    count).  Codes are ``int64`` when the product of the radices fits in
    it; otherwise they are Python ints in an ``object`` array, the same
    codes by the same arithmetic, chosen per instance.
    """

    def __init__(self, dyn):
        self.lows = tuple(lo for lo, _ in dyn.ranges)
        self.radices = tuple(hi - lo + 1 for lo, hi in dyn.ranges)
        strides = []
        self.size = 1
        for r in reversed(self.radices):
            strides.append(self.size)
            self.size *= r
        self.strides = tuple(reversed(strides))
        self.dtype = np.int64 if self.size <= 2 ** 63 else object

    def encode(self, state) -> int:
        return sum((s - lo) * st
                   for s, lo, st in zip(state, self.lows, self.strides))

    def pick_rule(self, coords, delta, limits):
        """``(move, windows)`` for a pick of ``dyn.step``: it adds ``move``
        to a code and is allowed iff ``low <= code % modulus < high`` for
        each ``(modulus, low, high)`` in ``windows``, one per coordinate it
        moves, that is iff every moved coordinate lands in ``[0, limit]``."""
        windows = []
        for k, limit in zip(coords, limits):
            stride, radix, lo = self.strides[k], self.radices[k], self.lows[k]
            # code % (stride * radix) is digit k times its stride plus the
            # less significant digits
            first, last = -delta - lo, limit - delta - lo  # allowed digits
            windows.append((stride * radix, max(first, 0) * stride,
                            min(last + 1, radix) * stride))
        return delta * sum(map(self.strides.__getitem__, coords)), windows

    def decode(self, codes) -> list:
        """The state tuples of ``codes``, a tuple or an array."""
        if isinstance(codes, tuple):
            digits = zip(self.strides, self.radices, self.lows)
            cols = [[c // st % r + lo for c in codes] for st, r, lo in digits]
            return list(zip(*cols)) if cols else [()] * len(codes)
        strides = np.array(self.strides, dtype=self.dtype)
        radices = np.array(self.radices, dtype=self.dtype)
        digits = codes[:, None] // strides % radices + self.lows
        return list(map(tuple, digits.tolist()))


# Product of the radices (a bound on every level's width) up to which the
# levels are built as Python tuples.  Below it numpy's fixed cost per call
# exceeds the work: a level of about 40 states costs the same either way.
SMALL_CODES = 64


@dataclass(frozen=True, eq=False)
class StateLevels:
    """The reachable states of one dynamics, arrival by arrival.

    ``codes[i]`` holds, ascending, the codes of the states reachable just
    before the block's ``i``-th arrival (the last level: after its last
    one).  ``skips[i][j]`` is the position in level ``i + 1`` of level
    ``i``'s ``j``-th state, ``picks[i][j]`` the position of the state a
    pick leads to, or -1 where the arrival cannot be picked.  A skip keeps
    the state, so levels are nested and the last one holds every state.
    Levels are Python tuples when the coding has at most ``SMALL_CODES``
    codes, else numpy arrays (``read_only``), so that neither takes
    writes.  ``dyn`` is the dynamics.
    """

    coding: StateCoding
    codes: tuple
    skips: tuple
    picks: tuple
    dyn: object

    def tuples(self) -> list:
        """Each level's states as tuples, ascending.  Levels are nested, so
        every state is decoded once, from the last level."""
        out = [self.coding.decode(self.codes[-1])]
        for skip in reversed(self.skips):
            out.append([out[-1][k] for k in skip])
        return out[::-1]

    def state(self, i, j) -> tuple:
        """The state at position ``j`` of level ``i``, decoded."""
        return self.coding.decode(self.codes[i][j:j + 1])[0]

    def forbidden(self, dyn, levels) -> list:
        """The forbidden states of ``dyn``, whose levels these are, given
        ``levels = tuples()``: ``forbidden[i]`` holds the states an
        over-pick at arrival ``i - 1`` leads to, in the order of the states
        it leaves (``forbidden[0]`` is empty)."""
        out = [[]]
        for e, states, picks in zip(dyn.elements, levels, self.picks):
            # a pick moves every state by the same vector, so order is kept
            out.append([dyn.pick(s, e)
                        for s, k in zip(states, picks) if k < 0])
        return out


def state_levels(dyn, state_cap=DEFAULT_STATE_CAP) -> StateLevels:
    """The reachable states of ``dyn``, grown level by level from
    ``dyn.initial``: level ``i + 1`` is level ``i`` (a skip) merged with the
    states a pick of the ``i``-th arrival reaches from it.  Raises
    ``SizingError`` once a level, hence the union of the levels so far,
    holds more than ``state_cap`` states.  Each dynamics of an instance
    reads one enumeration per cap, kept in the instance's store."""
    return derived(dyn.instance(), ("levels", dyn.key, state_cap),
                   _enumerated, dyn, state_cap)


def _enumerated(dyn, state_cap) -> StateLevels:
    coding = StateCoding(dyn)
    cur = (coding.encode(dyn.initial),)
    grow = _grow_lists
    if coding.size > SMALL_CODES:
        cur, grow = np.array(cur, dtype=coding.dtype), _grow_arrays
    codes, skips, picks = [cur], [], []
    for e in dyn.elements:
        move, windows = coding.pick_rule(*dyn.step(e))
        cur, skip, pick = grow(cur, windows, move, coding.size)
        if len(cur) > state_cap:
            raise SizingError(dyn.key, len(cur), state_cap)
        codes.append(cur)
        skips.append(skip)
        picks.append(pick)
    if grow is _grow_arrays:  # tuple levels stay tuples, for the list kernels
        codes, skips, picks = map(read_only, (codes, skips, picks))
    return StateLevels(coding, tuple(codes), tuple(skips), tuple(picks), dyn)


def read_only(levels) -> tuple:
    """``levels``, numpy arrays or lists of floats, as a tuple of arrays
    that refuse writes; lists become views of one array, one flag for all."""
    if levels and isinstance(levels[0], list):
        flat = np.fromiter(itertools.chain.from_iterable(levels), float,
                           sum(map(len, levels)))
        flat.setflags(write=False)
        return tuple(split_like(flat, levels))
    for level in levels:
        level.setflags(write=False)
    return tuple(levels)


def _grow_arrays(cur, windows, move, size):
    """The level after ``cur`` and the positions in it of a skip and a
    pick from each of ``cur``'s states, on arrays."""
    ok = np.ones(len(cur), dtype=bool)
    for m, low, high in windows:
        rem = cur % m if m < size else cur
        if low > 0:
            ok &= rem >= low
        if high < m:
            ok &= rem < high
    # both runs are sorted and distinct, so a stable order puts a code the
    # two share first from ``cur``; the ranks of the codes that start a run
    # of equal ones are the positions in the next level
    both = np.concatenate((cur, cur[ok] + move))
    order = both.argsort(kind="stable")
    merged = both[order]
    first = np.concatenate(([True], merged[1:] != merged[:-1]))
    rank = np.empty(len(both), dtype=np.int64)
    rank[order] = first.cumsum() - 1
    pick = np.full(len(cur), -1, dtype=np.int64)
    pick[ok] = rank[len(cur):]
    return merged[first], rank[:len(cur)], pick


def _grow_lists(cur, windows, move, size):
    """``_grow_arrays`` one state at a time: the same level and positions."""
    ok = cur
    for m, low, high in windows:
        ok = [c for c in ok if low <= c % m < high]
    nxt = tuple(sorted(set(cur).union([c + move for c in ok])))
    at = {c: j for j, c in enumerate(nxt)}
    go = {c: at[c + move] for c in ok}
    return (nxt, tuple([at[c] for c in cur]),
            tuple([go.get(c, -1) for c in cur]))


def reachable_profile(dyn, state_cap=DEFAULT_STATE_CAP):
    """Per-arrival reachable state sets and forbidden one-over-pick targets.

    Returns ``(levels, forbidden)``: ``levels[i]`` are the states reachable
    just before the block's i-th arrival (``levels[-1]`` after the last one),
    ascending, ``forbidden[i]`` the infeasible states produced by an
    infeasible pick at arrival ``i-1`` from a then-reachable state.  This is
    the tuple view of ``state_levels``, kept for the tests and for
    ``bench/spans.py``, which wraps it; the program itself reads the
    levels' positions.
    """
    lv = state_levels(dyn, state_cap)
    levels = lv.tuples()
    return levels, lv.forbidden(dyn, levels)


# ---------------------------------------------------------------------------
# Markings
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Marking:
    """The bins a relaxation holds only in expectation (large); every other
    bin is small, its capacity held point-wise.  Smallness is inherited by
    descendants, so no large bin sits under a small one.  The default, no
    large bin, is the exact program."""

    large: frozenset = frozenset()


def small_bins(inst: LaminarInstance, mk: Marking) -> tuple:
    """``(maximal, all)`` small bins of ``mk``: every bin not large, and
    those of them whose parent is large (or that are the root).  Elements
    under no small bin at all form implicit singleton sub-problems."""
    small = frozenset(range(inst.num_bins)) - mk.large
    maximal = frozenset(b for b in small if inst.bin_parents[b] is None
                        or inst.bin_parents[b] in mk.large)
    return maximal, small


def marking_violations(inst: LaminarInstance, mk: Marking) -> list[str]:
    out = []
    for b in sorted(mk.large):
        if not 0 <= b < inst.num_bins:
            out.append(f"marking: large index {b} is not a bin")
            continue
        parent = inst.bin_parents[b]
        if parent is not None and parent not in mk.large:
            out.append(f"marking: bin {b} is large under small bin {parent}")
    return out


def small_units(inst, mk: Marking | None = None) -> dict:
    """Scope key -> elements of each point-wise sub-problem.

    For a laminar instance under marking ``mk``: the maximal small bins,
    then a singleton ``elem:e`` for each element all of whose bins are
    large.  For a production instance: each type with a buyer.  Either
    way the units partition the element set.
    """
    if isinstance(inst, ProductionInstance):
        units = {f"type:{j}": inst.buyers_of_type(j)
                 for j in range(inst.num_types)}
        return {key: buyers for key, buyers in units.items() if buyers}
    units = {_bin_scope(b): inst.bin_elements(b)
             for b in sorted(small_bins(inst, mk)[0])}
    covered = set().union(*units.values())
    for e in range(inst.num_elements):
        if e not in covered:
            units[f"elem:{e}"] = (e,)
    return units


def large_rows(inst, mk: Marking | None = None) -> list:
    """The capacities a relaxation holds only in expectation, as
    ``(counter key, elements, cap)``: each of ``mk``'s large bins in bin
    order (so an ancestor precedes its descendants), or a production
    instance's one shipping row."""
    if isinstance(inst, ProductionInstance):
        return [("shipping", range(inst.num_buyers), inst.shipping)]
    return [(f"bin:{b}", inst.bin_elements(b), inst.bin_caps[b])
            for b in sorted(mk.large)]


# ---------------------------------------------------------------------------
# JSON schema
# ---------------------------------------------------------------------------


def parse_instance(doc) -> ProductionInstance | LaminarInstance:
    """Parse one instance document; unknown fields are rejected."""
    if not isinstance(doc, dict):
        raise InstanceError("instance: document must be an object")
    kind = doc.get("kind")
    if kind == "production":
        allowed = {"kind", "elements", "types", "days", "production", "shipping"}
    elif kind == "laminar":
        allowed = {"kind", "elements", "bins"}
    else:
        raise InstanceError(f"kind: {kind!r} not one of 'production', 'laminar'")
    unknown = set(doc.keys()) - allowed
    if unknown:
        raise InstanceError(f"instance: unknown fields {sorted(unknown)}")
    missing = allowed - set(doc.keys())
    if missing:
        raise InstanceError(f"instance: missing fields {sorted(missing)}")
    dists = _parse_elements(doc["elements"])
    if kind == "production":
        prod = doc["production"]
        if not isinstance(prod, dict):
            raise InstanceError("production: must map type index to day counts")
        by_type = {}
        for key, col in prod.items():
            try:
                j = int(key)
            except (TypeError, ValueError):
                raise InstanceError(f"production: bad type key {key!r}") from None
            if not isinstance(col, list):
                raise InstanceError(f"production[{key}]: must be a list")
            by_type[j] = tuple(col)
        if sorted(by_type) != list(range(len(by_type))):
            raise InstanceError("production: type keys must be 0..m-1")
        types = doc["types"]
        days = doc["days"]
        if not isinstance(types, list) or not isinstance(days, list):
            raise InstanceError("types/days: must be lists")
        inst = ProductionInstance(
            dists=dists,
            types=tuple(types),
            days=tuple(days),
            production=tuple(by_type[j] for j in range(len(by_type))),
            shipping=doc["shipping"],
        )
        # after the instance's own checks, which report a fault of its
        # fields first; "00", " 1", "+1" or "1_0" would alias a type
        for key in prod:
            if key != str(int(key)):
                raise InstanceError(f"production: bad type key {key!r}")
        return inst
    return LaminarInstance.build(dists, doc["bins"])


def _parse_elements(elements):
    if not isinstance(elements, list) or not elements:
        raise InstanceError("elements: must be a non-empty list")
    dists = []
    for t, entry in enumerate(elements):
        if not isinstance(entry, dict) or set(entry.keys()) != {"dist"}:
            raise InstanceError(f"elements[{t}]: expected an object with key 'dist'")
        pairs = entry["dist"]
        if (not isinstance(pairs, list)
                or any(not isinstance(a, list) or len(a) != 2 for a in pairs)):
            raise InstanceError(f"elements[{t}].dist: expected [[value,prob],...]")
        dists.append(DiscreteDistribution(tuple(
            (_atom_number(v, f"elements[{t}].dist: value"),
             _atom_number(p, f"elements[{t}].dist: probability"))
            for v, p in pairs)))
    return tuple(dists)


def _atom_number(x, what) -> float:
    """A JSON number (not ``true``/``false``) as a float."""
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise InstanceError(f"{what} {x!r} is not a number")
    return float(x)


def serialize_instance(instance) -> dict:
    elements = [{"dist": [[v, p] for v, p in d.atoms]} for d in instance.dists]
    if isinstance(instance, ProductionInstance):
        return {
            "kind": "production",
            "elements": elements,
            "types": list(instance.types),
            "days": list(instance.days),
            "production": {str(j): list(col)
                           for j, col in enumerate(instance.production)},
            "shipping": instance.shipping,
        }
    return {"kind": "laminar", "elements": elements, "bins": instance.to_tree()}


def _json_int(text) -> int:
    """An integer literal of an instance document; the solvers compute with
    its values as floats, so it must lie in the float range."""
    i = int(text)
    if abs(i) > sys.float_info.max:
        raise ValueError(f"integer of {len(text.lstrip('-'))} digits is "
                         "beyond the float range")
    return i


def unique_keys(pairs) -> dict:
    """An ``object_pairs_hook`` for ``json`` that refuses a repeated key."""
    doc = dict(pairs)
    if len(doc) < len(pairs):
        seen = set()
        key = next(k for k, _ in pairs if k in seen or seen.add(k))
        raise ValueError(f"repeated key {key!r}")
    return doc


def load_instance(path) -> ProductionInstance | LaminarInstance:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh, parse_int=_json_int,
                            object_pairs_hook=unique_keys)
        except UnicodeDecodeError as exc:
            raise InstanceError(f"instance: not UTF-8 text ({exc})") from None
        except ValueError as exc:  # also a key or integer the hooks reject
            raise InstanceError(f"instance: invalid JSON ({exc})") from None
    return parse_instance(doc)


def dump_instance(instance, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(serialize_instance(instance), fh, indent=2, sort_keys=True)
        fh.write("\n")

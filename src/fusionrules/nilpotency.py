"""Sub-fusion rules, the adjoint sub-rule, and the descending central series.

A sub-fusion rule is a label subset containing the vacuum, closed under duals
and under fusion outcomes.  The adjoint sub-rule collects everything appearing
in some ``x (dual x)``; iterating it yields the descending central series whose
termination at rank one defines nilpotency.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import FusionRule
from .errors import StructuralError

__all__ = [
    "LabelSet",
    "CentralSeries",
    "closure",
    "adjoint_subrule",
    "central_series",
    "restrict",
]


@dataclass(frozen=True)
class LabelSet:
    """A fusion- and dual-closed label subset containing the vacuum.

    Construct via :func:`closure`; the constructor trusts its input.
    """

    members: tuple[int, ...]

    @property
    def rank(self) -> int:
        return len(self.members)

    def __contains__(self, i: int) -> bool:
        return i in self.members

    def __iter__(self):
        return iter(self.members)


def is_closed(rule: FusionRule, members) -> bool:
    """Whether ``members`` is a sub-fusion rule of ``rule``."""
    idx = np.array(sorted({int(i) for i in members}), dtype=np.int64)
    if idx.size == 0 or idx[0] != 0 or idx[-1] >= rule.rank:
        return False
    inside = np.zeros(rule.rank, dtype=bool)
    inside[idx] = True
    if not inside[np.array(rule.dual)[idx]].all():
        return False
    return not rule.tensor[np.ix_(idx, idx, np.flatnonzero(~inside))].any()


def closure(rule: FusionRule, seed=()) -> LabelSet:
    """Smallest sub-fusion rule containing ``seed`` (plus the vacuum).

    Saturates a membership mask: each label, once processed, adds its dual and
    every outcome of its products with the current members in either order.
    A pair is covered when the later of its two labels is processed.
    """
    pending = sorted({int(i) for i in seed} | {0})
    for i in pending:
        if not 0 <= i < rule.rank:
            raise StructuralError(f"seed label {i} out of range for rank {rule.rank}")
    inside = np.zeros(rule.rank, dtype=bool)
    inside[pending] = True
    tensor = rule.tensor
    while pending and not inside.all():  # the full label set is closed
        i = pending.pop()
        idx = np.flatnonzero(inside)
        grown = tensor[i, idx].any(0) | tensor[idx, i].any(0)
        grown[rule.dual[i]] = True
        fresh = np.flatnonzero(grown & ~inside)
        inside[fresh] = True
        pending.extend(fresh.tolist())
    return LabelSet(members=tuple(np.flatnonzero(inside).tolist()))


def adjoint_subrule(rule: FusionRule, support: LabelSet | None = None) -> LabelSet:
    """The adjoint sub-rule of ``support``: the closure of everything
    contained in ``x (dual x)`` for ``x`` ranging over the support.

    ``support`` defaults to all labels.  Because the support is fusion-closed,
    saturation never leaves it, so computing in the ambient rule agrees with
    computing in the restricted rule.
    """
    if support is None:
        support = LabelSet(members=tuple(range(rule.rank)))
    elif not is_closed(rule, support.members):
        raise StructuralError(f"support {support.members} is not a sub-fusion rule")
    result = _adjoint(rule, support)
    assert set(result.members) <= set(support.members)
    return result


def _adjoint(rule: FusionRule, support: LabelSet) -> LabelSet:
    """``adjoint_subrule`` of a support already known to be closed."""
    idx = np.array(support.members, dtype=np.int64)
    return closure(rule, np.flatnonzero(rule.tensor[idx, np.array(rule.dual)[idx]].any(0)))


@dataclass(frozen=True)
class CentralSeries:
    """Descending central series with its nilpotency verdict.

    ``chain`` starts at the full label set and ends at the first rank-one
    entry (nilpotent) or with the first repeated entry listed twice
    (non-nilpotent).  ``nilpotency_class`` is the chain index of the first
    rank-one entry, or ``None``.
    """

    chain: tuple[LabelSet, ...]
    nilpotent: bool
    nilpotency_class: int | None


def central_series(rule: FusionRule) -> CentralSeries:
    """Iterate the adjoint sub-rule until rank one or stabilization."""
    current = LabelSet(members=tuple(range(rule.rank)))
    chain = [current]
    while current.rank > 1:
        nxt = _adjoint(rule, current)  # the full set or a closure, so closed
        chain.append(nxt)
        if nxt.members == current.members:
            return CentralSeries(chain=tuple(chain), nilpotent=False, nilpotency_class=None)
        current = nxt
    return CentralSeries(chain=tuple(chain), nilpotent=True, nilpotency_class=len(chain) - 1)


def restrict(rule: FusionRule, support: LabelSet) -> FusionRule:
    """Materialize a sub-fusion rule as a standalone rule.

    Labels keep their relative order, so the vacuum stays at index 0.
    """
    if not is_closed(rule, support.members):
        raise StructuralError(f"support {support.members} is not a sub-fusion rule")
    idx = list(support.members)
    back = {old: new for new, old in enumerate(idx)}
    labels = tuple(rule.labels[i] for i in idx)
    dual = tuple(back[rule.dual[i]] for i in idx)
    tensor = rule.tensor[np.ix_(idx, idx, idx)]
    tensor.flags.writeable = False  # a fresh C-ordered gather, so FusionRule keeps its dtype
    return FusionRule(labels=labels, dual=dual, tensor=tensor)

"""Settlement: compute realized charges from auction prices and shift plans.

``settle_general`` charges sum((r_i + d_i) * e_i) over realized events.
``settle_classic`` is a direct transcription of the five classic charging
rules for the two-event (view, click) setting, kept deliberately separate
from the general path so agreement between them is a meaningful check.
"""

from __future__ import annotations

from collections.abc import Mapping
from enum import Enum

from .model import (
    ScenarioError,
    Settlement,
    ShiftPlan,
    amount_issue,
    brief,
    fold_sum,
    is_amount,
    is_number,
    require_amounts,
    require_same_keys,
)


class ClassicRule(Enum):
    """Classic price-type / charge combinations on a (view, click) offer."""

    CPC_VIEW = "cpc_view"  # per-click bid, per-view charge
    CPM_VIEW = "cpm_view"  # per-view bid, per-view charge
    CPM_CLICK = "cpm_click"  # per-view bid, per-click charge
    CPC_BOTH = "cpc_both"  # per-click bid, both charges
    CPM_BOTH = "cpm_both"  # per-view bid, both charges


#: Rules that settle per click: the charge triggers only when a click lands,
#: and the per-view charge is amortized into the click as v / p.
_PER_CLICK_RULES = (ClassicRule.CPC_VIEW, ClassicRule.CPC_BOTH)


def settle_general(
    prices: Mapping[str, float],
    plan: ShiftPlan,
    realized: Mapping[str, int],
    ad_id: str = "",
) -> Settlement:
    """Itemize the winner's charge: (price + shifted charge) per realized event.

    ``realized`` maps event ids to 0/1 indicators; all three collections must
    share the same keys. Prices or realized events that are not a mapping, a
    plan that is not a ``ShiftPlan`` of a mapping, and a price or shift amount
    that is not ``is_amount`` (``require_amounts``) are each a ScenarioError issue.
    The total is summed in the key order of ``prices``.
    """
    issues = [] if isinstance(prices, Mapping) else [f"prices must be a mapping, got {brief(prices)}"]
    if not isinstance(plan, ShiftPlan) or not isinstance(plan.shifted, Mapping):
        issues.append(f"plan must be a ShiftPlan of a mapping, got {brief(plan)}")
    if not isinstance(realized, Mapping):
        issues.append(f"realized events must be a mapping, got {brief(realized)}")
    if issues:
        raise ScenarioError(issues)
    ids, shifted = tuple(prices), plan.shifted
    require_same_keys(ids, shifted, "shift plan")
    require_same_keys(ids, realized, "realized events")
    require_amounts(ids, prices, shifted)
    for eid, flag in realized.items():
        if flag not in (0, 1):
            raise ValueError(f"realized indicator for '{eid}' must be 0 or 1, got {flag!r}")

    line_items = {eid: (prices[eid] + shifted[eid]) * realized[eid] for eid in ids}
    return Settlement(
        ad_id=ad_id,
        realized=dict(realized),
        line_items=line_items,
        total=fold_sum(line_items.values()),
    )


def settle_classic(
    rule: ClassicRule,
    r: float,
    v: float = 0.0,
    c: float = 0.0,
    p: float | None = None,
    clicked: bool = False,
) -> float:
    """Charge for a winning ad under one classic rule.

    ``r`` is the auction price in the rule's own unit: per click for the
    CPC rules, per view for the CPM rules. Per-click rules charge
    only when clicked; per-view rules charge at win time regardless of the
    click (the click cost enters as the deterministic expectation c * p).
    A ``rule`` that is not a ``ClassicRule`` and an ``r``, ``v`` or ``c``
    that is not ``is_amount`` are each a ScenarioError issue; a ``p`` that is
    given must be a number in [0, 1], or else ValueError.
    """
    issues = [] if isinstance(rule, ClassicRule) else [f"rule must be a ClassicRule, got {brief(rule)}"]
    issues += [amount_issue(name, x) for name, x in (("r", r), ("v", v), ("c", c)) if not is_amount(x)]
    if issues:
        raise ScenarioError(issues)
    if p is not None and not (is_number(p) and 0.0 <= p <= 1.0):
        raise ValueError(f"{rule.value} settlement: click probability must be a number in [0, 1], got {brief(p)}")
    if rule in _PER_CLICK_RULES:
        if p is None or p <= 0.0:
            raise ValueError(f"{rule.value} settlement undefined without positive click probability")
        if not clicked:
            return 0.0
        if rule is ClassicRule.CPC_VIEW:
            return r + v / p
        return r + c + v / p

    if rule is ClassicRule.CPM_VIEW:
        return r + v
    if p is None:
        raise ValueError(f"{rule.value} settlement requires the click probability")
    if rule is ClassicRule.CPM_CLICK:
        return r + c * p
    return r + v + c * p  # ClassicRule.CPM_BOTH

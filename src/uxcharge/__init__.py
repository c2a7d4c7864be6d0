"""Collect user-experience charges in ad auctions.

Adjust bids before the auction, settle charges after events occur, and shift
charges between events while preserving the offer's expected value and the
winner's expected payment.
"""

from .adjust import (
    adjust_cpc_both,
    adjust_cpc_view,
    adjust_cpm_both,
    adjust_cpm_click,
    adjust_cpm_view,
    adjust_general,
    expected_value,
)
from .auction import SlotModel, run_first_price, run_second_price, value_at_slot
from .model import (
    AdjustedOffer,
    AuctionOutcome,
    ChargeSchedule,
    EventKind,
    EventSpec,
    KeyMismatchError,
    Offer,
    PriceType,
    ScenarioError,
    Settlement,
    ShiftPlan,
    SlotAward,
    validate_offer,
)
from .settle import ClassicRule, settle_classic, settle_general
from .shift import (
    is_feasible,
    shift_identity,
    shift_proportional,
    shift_single_event,
    total_expected_charge,
    validate_plan,
)
from .sim import (
    OutcomeModel,
    ScenarioConfig,
    build_plan,
    enumerate_expected_payment,
    expected_payment,
    monte_carlo_payment,
    run_scenario,
)

__version__ = "0.1.0"

__all__ = [
    "AdjustedOffer",
    "AuctionOutcome",
    "ChargeSchedule",
    "ClassicRule",
    "EventKind",
    "EventSpec",
    "KeyMismatchError",
    "Offer",
    "OutcomeModel",
    "PriceType",
    "ScenarioConfig",
    "ScenarioError",
    "Settlement",
    "ShiftPlan",
    "SlotAward",
    "SlotModel",
    "adjust_cpc_both",
    "adjust_cpc_view",
    "adjust_cpm_both",
    "adjust_cpm_click",
    "adjust_cpm_view",
    "adjust_general",
    "build_plan",
    "enumerate_expected_payment",
    "expected_payment",
    "expected_value",
    "is_feasible",
    "monte_carlo_payment",
    "run_first_price",
    "run_scenario",
    "run_second_price",
    "settle_classic",
    "settle_general",
    "shift_identity",
    "shift_proportional",
    "shift_single_event",
    "total_expected_charge",
    "validate_offer",
    "validate_plan",
    "value_at_slot",
]

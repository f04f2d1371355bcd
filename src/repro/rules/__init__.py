"""FLO/C-style interaction rules (S13).

Five operators (implies, impliesBefore, impliesLater, permittedIf,
waitUntil), a textual grammar, static calling-tree cycle detection, and
an engine enforcing the rules over registered components.
"""

from repro.rules.cycle_check import check_acyclic, is_acyclic
from repro.rules.engine import RuleEngine
from repro.rules.grammar import parse_rule, parse_rules
from repro.rules.operators import CallAction, CallPattern, Rule, RuleOperator

__all__ = [
    "CallAction",
    "CallPattern",
    "Rule",
    "RuleEngine",
    "RuleOperator",
    "check_acyclic",
    "is_acyclic",
    "parse_rule",
    "parse_rules",
]

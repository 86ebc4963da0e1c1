"""Tests of the benchmark's correctness gate.

Run from the repository root with ``python3 -m pytest perfbench/test_gate.py``
or ``python3 perfbench/test_gate.py``.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

from gate import run_gate  # noqa: E402
from repro.gbcast.conflict import ABCAST_CLASS, bank_relation  # noqa: E402
from repro.net.message import AppMessage, MsgId  # noqa: E402


def message(sender: str, seq: int, msg_class: str, incarnation: int = 0) -> AppMessage:
    return AppMessage(MsgId(sender, seq, incarnation), sender, ("op", seq), msg_class)


A = message("p00", 0, ABCAST_CLASS)
B = message("p01", 0, ABCAST_CLASS)
C = message("p02", 0, ABCAST_CLASS)
COMPLETE = ["p00/0", "p01/0", "p02/0"]


def test_clean_history_passes():
    history = {key: [A, B, C] for key in COMPLETE}
    assert run_gate(history, COMPLETE, total_order=True) == ([], set())


def test_reordered_history_is_rejected():
    history = {"p00/0": [A, B, C], "p01/0": [A, C, B], "p02/0": [A, B, C]}
    violations, condemned = run_gate(history, COMPLETE, total_order=True)
    assert violations
    assert {B.id, C.id} <= condemned


def test_duplicate_delivery_is_rejected():
    history = {"p00/0": [A, B, C], "p01/0": [A, B, C, A], "p02/0": [A, B, C]}
    violations, condemned = run_gate(history, COMPLETE)
    assert any("duplicate" in v for v in violations)
    assert A.id in condemned


def test_missing_delivery_breaks_agreement_only_when_drained():
    history = {"p00/0": [A, B, C], "p01/0": [A, B], "p02/0": [A, B, C]}
    assert run_gate(history, COMPLETE, agreement=True)[0]
    assert run_gate(history, COMPLETE, agreement=False)[0] == []


def test_conflict_order_under_the_bank_relation():
    d1, d2 = message("p00", 1, "deposit"), message("p01", 1, "deposit")
    w1, w2 = message("p00", 2, "withdrawal"), message("p01", 2, "withdrawal")
    relation = bank_relation()
    commuting = {"p00/0": [d1, d2, w1], "p01/0": [d2, d1, w1], "p02/0": [d1, d2, w1]}
    assert run_gate(commuting, COMPLETE, relation=relation)[0] == []
    swapped = {"p00/0": [d1, w1, w2], "p01/0": [d1, w2, w1], "p02/0": [d1, w1, w2]}
    assert run_gate(swapped, COMPLETE, relation=relation)[0]


def test_stale_incarnation_after_recovery_is_rejected():
    old, new = message("p03", 5, "deposit", 0), message("p03", 0, "deposit", 1)
    history = {key: [new, old] for key in COMPLETE}
    violations, _ = run_gate(history, COMPLETE)
    assert any("stale incarnation" in v for v in violations)


def test_crashed_incarnation_is_checked_against_the_reference():
    history = {key: [A, B, C] for key in COMPLETE}
    history["p03/1"] = [C, B]
    violations, condemned = run_gate(history, COMPLETE, total_order=True)
    assert violations and C.id in condemned
    history["p03/1"] = [B, C]
    assert run_gate(history, COMPLETE, total_order=True)[0] == []


if __name__ == "__main__":
    tests = [value for name, value in sorted(globals().items()) if name.startswith("test_")]
    for test in tests:
        test()
    print(f"{len(tests)} gate tests passed")

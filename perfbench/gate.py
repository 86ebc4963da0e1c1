"""Correctness gate applied to every benchmark run.

Histories map a member incarnation key (``"p00/0"``, ``"p00/1"``, ...)
to its application deliveries in local order.  The checks are the
library's own (``repro.checkers``); the gate decides which histories each
one sees and which ops a violation condemns:

* ``check_no_duplicates`` and ``check_incarnation_monotonic`` run on each
  history alone;
* ``check_agreement`` runs on every never-crashed member against the
  first of them (crashed incarnations hold a legitimate partial view);
* ``check_total_order`` and ``check_conflict_order`` run pairwise, each
  history against that same complete reference.

An op is condemned when it was delivered in a history that fails a
check; the gate returns the violations and the condemned op ids.
"""

from __future__ import annotations

from repro.checkers import (
    check_agreement,
    check_conflict_order,
    check_incarnation_monotonic,
    check_no_duplicates,
    check_total_order,
)


def _conflicting_only(history, relation):
    """Drop messages whose class conflicts with no class in the run.

    ``check_conflict_order`` compares every pair of a history, which is
    quadratic; a message that conflicts with nothing present takes part
    in no compared pair, so removing it changes no verdict.
    """
    classes = {m.msg_class for seq in history.values() for m in seq}
    keep = {c for c in classes if any(relation.conflicts(c, d) for d in classes)}
    return {key: [m for m in seq if m.msg_class in keep] for key, seq in history.items()}


def run_gate(
    histories: dict,
    complete: list[str],
    relation=None,
    total_order: bool = False,
    agreement: bool = True,
) -> tuple[list[str], set]:
    """Apply the checks; returns ``(violations, condemned op ids)``.

    ``complete`` lists the keys of members that never crashed, reference
    first.  ``relation`` enables the conflict-order check,
    ``total_order`` the total-order check, and ``agreement`` the
    same-delivered-set check (off for a run cut before it drained).
    """
    violations: list[str] = []
    condemned: set = set()

    def verdict(result, keys):
        if not result.ok:
            violations.extend(result.violations)
            for key in keys:
                condemned.update(m.id for m in histories[key])

    reference = complete[0]
    ordered = _conflicting_only(histories, relation) if relation is not None else None
    for key in sorted(histories):
        verdict(check_no_duplicates({key: histories[key]}), [key])
        verdict(check_incarnation_monotonic({key: histories[key]}), [key])
        if key == reference:
            continue
        pair = [reference, key]
        if agreement and key in complete:
            verdict(check_agreement({k: histories[k] for k in pair}), pair)
        if total_order:
            verdict(check_total_order({k: histories[k] for k in pair}), pair)
        if ordered is not None:
            verdict(check_conflict_order({k: ordered[k] for k in pair}, relation), pair)
    return violations, condemned

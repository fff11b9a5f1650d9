"""Schedule shrinking: reduce a failing schedule to a minimal reproducer.

Classic delta debugging (Zeller's ddmin) over the action list.  Actions
are world-shape independent -- every parameter is taken modulo the live
world's dimensions at apply time -- so *any* subsequence is a valid
schedule and the predicate can be re-evaluated on arbitrary subsets.

The predicate is "does this subsequence still fail?", where "fail" is
whatever the caller observed on the full schedule: an invariant/crash
failure in the fast run, or a differential-oracle mismatch.  Each
evaluation replays the candidate on fresh worlds, so shrinking is
deterministic and side-effect free; an evaluation budget keeps the worst
case bounded for CI.

The shrink driver (:meth:`repro.chaos.twin.Campaign.run`) supplies the
predicate; the report it fills turns the minimal schedule into a
paste-ready reproducer and a ``--replay`` artifact.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Sequence

from repro.chaos.actions import Action


@dataclass
class ShrinkResult:
    """The minimal failing schedule ddmin converged on."""

    actions: List[Action]
    evaluations: int
    exhausted_budget: bool


def shrink(
    actions: Sequence[Action],
    still_fails: Callable[[List[Action]], bool],
    max_evals: int = 200,
) -> ShrinkResult:
    """ddmin: smallest subsequence of ``actions`` with ``still_fails`` true.

    ``still_fails`` must be true for the full input (the caller verified
    the failure before shrinking).  Budget ``max_evals`` bounds predicate
    evaluations; on exhaustion the best reduction so far is returned.
    """
    current = list(actions)
    evals = 0
    exhausted = False
    granularity = 2
    while len(current) >= 2:
        chunk = max(1, len(current) // granularity)
        reduced = False
        start = 0
        while start < len(current):
            if evals >= max_evals:
                exhausted = True
                break
            candidate = current[:start] + current[start + chunk:]
            if not candidate:
                start += chunk
                continue
            evals += 1
            if still_fails(candidate):
                current = candidate
                granularity = max(granularity - 1, 2)
                reduced = True
                # restart scanning the shrunk schedule from the beginning
                start = 0
                chunk = max(1, len(current) // granularity)
            else:
                start += chunk
        if exhausted:
            break
        if not reduced:
            if chunk == 1:
                break  # 1-minimal: no single action can be removed
            granularity = min(granularity * 2, len(current))
    return ShrinkResult(actions=current, evaluations=evals, exhausted_budget=exhausted)

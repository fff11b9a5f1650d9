"""The twin-run oracle kernel: one diff, report, artifact and shrink driver.

Every oracle in the chaos package is the same experiment.  Produce two
runs of one *subject* (a chaos schedule or a sharded-cluster spec) that a
correct simulator must make agree, project each run onto named
*surfaces*, and diff the projections.  An oracle is therefore only a
:class:`TwinSpec`: how to build run A and run B, which surfaces to
compare, and optional absolute checks.  This module supplies the rest
once:

* the diff: first divergent line plus length for sequences, per key for
  mappings, equality for scalars, all under one mismatch cap;
* run sharing: a spec names its runs by hashable descriptors, and each
  distinct descriptor executes once per subject.  Specs that need the
  same run (the fast run every schedule oracle measures against, the
  1-shard reference both sharded engines are diffed with) share it;
* :class:`TwinReport`, the one report type (``ok``/``summary()``/
  ``artifact()``), whose JSON artifact carries a ``kind`` and every flag
  that shaped the run, so ``python -m repro chaos --replay`` rebuilds
  the same campaign from the file alone;
* the ddmin shrink driver for schedule subjects.  A campaign runs every
  schedule through one :class:`~repro.chaos.explorer.ScheduleExplorer`,
  so ``checkpoint_every`` prefix resume serves every shrink candidate.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.chaos.actions import actions_from_json, actions_to_json
from repro.chaos.shrinker import ShrinkResult, shrink
from repro.sharding import ClusterSpec

SEQUENCE, MAPPING, SCALAR = "sequence", "mapping", "scalar"

#: mismatch lines kept per verdict: a diverged run can disagree on every
#: action, and the first few localise the split
MISMATCH_CAP = 8

#: campaign flag -> the ``python -m repro chaos`` option that sets it.
#: ``True`` renders as the bare option; ``mode="pooling"`` as --no-pool.
CLI_OPTIONS = {
    "nodes": "--nodes",
    "break_mode": "--break",
    "no_diff": "--no-diff",
    "reliable": "--reliable",
    "iommu": "--iommu",
    "backends": "--backend",
    "check_determinism": "--check-determinism",
    "num_shards": "--shards",
    "engine": "--engine",
    "no_audit": "--no-audit",
    "mode": "--no-pool",
}

#: a run descriptor: hashable, and calling it executes the run
Run = Callable[[], Any]


@dataclass(frozen=True)
class Surface:
    """One named projection of a run that both twins must agree on."""

    name: str
    shape: str  # SEQUENCE | MAPPING | SCALAR
    project: Callable[[Any], Any]


@dataclass(frozen=True, eq=False)
class TwinSpec:
    """One oracle: how to build twin runs of a subject, and what must agree.

    ``runs(subject)`` returns the descriptors of run A and run B; B is
    ``None`` for a single-run spec, which has only ``check``.
    ``check(a, b)`` returns absolute findings (``b`` may be ``None``).
    ``claim`` is a passing verdict's summary, formatted with ``a``/``b``.
    """

    name: str
    claim: str
    runs: Callable[[Any], Tuple[Run, Optional[Run]]]
    sides: Tuple[str, str] = ("A", "B")
    surfaces: Tuple[Surface, ...] = ()
    check: Optional[Callable[[Any, Any], List[str]]] = None

    def compare(self, subject: Any, a: Any = None) -> "Verdict":
        """Judge ``subject`` with this spec alone; ``a`` stands in for run A."""
        memo = {} if a is None else {self.runs(subject)[0]: a}
        return judge(self, subject, memo)


@dataclass
class Verdict:
    """One spec's finding on one subject."""

    spec: TwinSpec
    a: Any = None
    b: Any = None
    mismatches: List[str] = field(default_factory=list)
    #: set when a run raised instead of producing a result
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.error is None and not self.mismatches

    @property
    def problems(self) -> List[str]:
        if self.error is not None:
            return [f"FAILED to run: {self.error}"]
        return self.mismatches

    def summary(self) -> str:
        label = f"{self.spec.name} oracle"
        if self.ok:
            return f"{label}: {self.spec.claim.format(a=self.a, b=self.b)}"
        head, *rest = self.problems
        if self.error is not None:
            verb = ""
        else:
            verb = "DIVERGED -- " if self.b is not None else "FAILED -- "
        more = f" (+{len(rest)} more)" if rest else ""
        return f"{label}: {verb}{head}{more}"


def diff(spec: TwinSpec, a: Any, b: Any) -> List[str]:
    """Every finding of ``spec`` on runs ``a`` and ``b``, capped."""
    out = list(spec.check(a, b)) if spec.check is not None else []
    if b is not None:
        side_a, side_b = spec.sides
        for surface in spec.surfaces:
            x, y, name = surface.project(a), surface.project(b), surface.name
            if surface.shape == SEQUENCE:
                for i, (p, q) in enumerate(zip(x, y)):
                    if p != q:
                        out.append(
                            f"{name} diverges at line {i}: "
                            f"{side_a}={p!r} vs {side_b}={q!r}"
                        )
                        break
                if len(x) != len(y):
                    out.append(
                        f"{name} length diverges: "
                        f"{side_a}={len(x)} vs {side_b}={len(y)}"
                    )
            elif surface.shape == MAPPING:
                for key in sorted(set(x) | set(y)):
                    if x.get(key) != y.get(key):
                        out.append(
                            f"{name} {key}: "
                            f"{side_a}={x.get(key)} vs {side_b}={y.get(key)}"
                        )
            elif x != y:
                out.append(f"{name} diverges: {side_a}={x} vs {side_b}={y}")
    if len(out) > MISMATCH_CAP:
        out[MISMATCH_CAP:] = [
            f"... (+{len(out) - MISMATCH_CAP} more past the mismatch cap)"
        ]
    return out


def judge(spec: TwinSpec, subject: Any, memo: Dict[Run, Any]) -> Verdict:
    """Run (or reuse from ``memo``) both twins of ``subject`` and diff them."""
    verdict = Verdict(spec)
    key_a, key_b = spec.runs(subject)
    try:
        for key in (key_a, key_b):
            if key is not None and key not in memo:
                memo[key] = key()
    except Exception as exc:  # a run that cannot execute is itself a finding
        verdict.error = f"{type(exc).__name__}: {exc}"
        return verdict
    verdict.a = memo[key_a]
    verdict.b = None if key_b is None else memo[key_b]
    verdict.mismatches = diff(spec, verdict.a, verdict.b)
    return verdict


def cli_options(flags: Dict[str, Any]) -> str:
    """The ``chaos`` command-line options that reproduce ``flags``."""
    parts = []
    for key, value in flags.items():
        option = CLI_OPTIONS[key]
        if key == "mode":
            value = value == "pooling"
        if value is True:
            parts.append(option)
        elif value is not None and value is not False:
            if isinstance(value, (list, tuple)):
                value = ",".join(value)
            parts.append(f"{option} {value}")
    return " ".join(parts)


def describe(subject: Any, seed: Optional[int] = None) -> str:
    """One-line description of a schedule or cluster-spec subject."""
    if isinstance(subject, ClusterSpec):
        return (
            f"{subject.num_nodes}-node {subject.topology} spec, seed "
            f"{subject.seed}, gap {subject.gap_cycles}"
            + (", iommu" if subject.iommu else "")
        )
    return f"{len(subject)} actions" + ("" if seed is None else f" from seed {seed}")


@dataclass
class TwinReport:
    """A campaign's verdicts on one subject: the one chaos report type."""

    kind: str
    flags: Dict[str, Any]
    subject: Any
    verdicts: List[Verdict]
    seed: Optional[int] = None
    shrunk: Optional[ShrinkResult] = None

    @property
    def ok(self) -> bool:
        return all(v.ok for v in self.verdicts)

    @property
    def mismatches(self) -> List[str]:
        return [f"{v.spec.name}: {p}" for v in self.verdicts for p in v.problems]

    @property
    def failure_message(self) -> str:
        return next(iter(self.mismatches), "")

    @property
    def primary(self) -> Any:
        """Run A of the first spec: the run the campaign is measured on."""
        return self.verdicts[0].a

    @property
    def minimal(self) -> Any:
        """The subject to replay: the shrunk schedule when shrinking ran."""
        return self.shrunk.actions if self.shrunk is not None else self.subject

    @property
    def spans(self) -> str:
        """Causal spans in flight when the primary run failed, if any."""
        failure = getattr(self.primary, "failure", None)
        return failure.span_context if failure is not None else ""

    def verdict(self, name: str) -> Optional[Verdict]:
        """The first verdict of the spec called ``name``, if it ran."""
        return next((v for v in self.verdicts if v.spec.name == name), None)

    def summary(self) -> str:
        title = f"chaos {cli_options(self.flags)}: {describe(self.subject, self.seed)}"
        lines = [title] + [v.summary() for v in self.verdicts]
        if self.ok:
            lines.append("result: PASS")
            return "\n".join(lines)
        lines.append(f"result: FAIL -- {self.failure_message}")
        if self.spans:
            lines.append(f"spans : {self.spans}")
        if self.shrunk is not None:
            lines.append(
                f"shrunk: {len(self.subject)} -> {len(self.shrunk.actions)} "
                f"actions ({self.shrunk.evaluations} replays)"
            )
        return "\n".join(lines)

    def artifact(self) -> Dict[str, Any]:
        """The JSON-ready reproducer: kind, flags, findings and subject."""
        data = {"kind": self.kind, **self.flags, "seed": self.seed}
        data["mismatches"] = self.mismatches
        if isinstance(self.minimal, ClusterSpec):
            data["spec"] = self.minimal.as_dict()
        else:
            data["actions"] = actions_to_json(self.minimal)
        return data

    @property
    def repro(self) -> str:
        """Paste-ready reproducer of a failing report ("" when ok)."""
        if self.ok:
            return ""
        lines = [
            "=== chaos minimal reproducer ===",
            f"failure : {self.failure_message}",
        ]
        if self.spans:
            lines.append(f"spans   : {self.spans}")
        lines += [
            f"subject : {describe(self.minimal, self.seed)}",
            "replay  : save the JSON below to repro.json, then run",
            f"          python -m repro chaos {cli_options(self.flags)} "
            "--replay repro.json",
            json.dumps(self.artifact(), separators=(",", ":"), sort_keys=True),
        ]
        return "\n".join(lines)


@dataclass
class Campaign:
    """Specs run together over each subject, plus what rebuilds them.

    ``kind`` and ``flags`` go into every report's artifact;
    ``repro.chaos.oracles.CAMPAIGNS[kind](**flags)`` rebuilds the
    campaign on replay.
    """

    kind: str
    flags: Dict[str, Any]
    specs: List[TwinSpec]

    def verdicts(self, subject: Any) -> Iterator[Verdict]:
        """Lazily judge ``subject`` with every spec, sharing runs."""
        memo: Dict[Run, Any] = {}
        return (judge(spec, subject, memo) for spec in self.specs)

    def run(
        self, subject: Any, seed: Optional[int] = None, shrink_evals: int = 0
    ) -> TwinReport:
        """Judge one subject; shrink a failing schedule by ddmin."""
        report = TwinReport(
            self.kind, dict(self.flags), subject, list(self.verdicts(subject)), seed
        )
        if not report.ok and shrink_evals and not isinstance(subject, ClusterSpec):
            report.shrunk = shrink(
                subject,
                lambda candidate: not all(v.ok for v in self.verdicts(candidate)),
                max_evals=shrink_evals,
            )
        return report

    def run_suite(
        self, subjects: Iterable[Tuple[Optional[int], Any]], shrink_evals: int = 0
    ) -> List[TwinReport]:
        """Judge ``(seed, subject)`` pairs in order up to the first failure.

        Once one subject fails, the budget goes to shrinking it rather
        than to finding more.
        """
        reports: List[TwinReport] = []
        for seed, subject in subjects:
            reports.append(self.run(subject, seed, shrink_evals))
            if not reports[-1].ok:
                break
        return reports


def write_artifact(report: TwinReport, path: str) -> None:
    """Serialise a report's artifact to ``path`` as JSON."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report.artifact(), handle, indent=2, sort_keys=True)
        handle.write("\n")


def read_artifact(
    path: str,
) -> Tuple[Optional[str], Dict[str, Any], Any, Optional[int]]:
    """``(kind, flags, subject, seed)`` of a saved artifact.

    A bare JSON action list (what older reproducers printed) reads as a
    schedule with no kind and no flags.
    """
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    if isinstance(payload, list):
        return None, {}, actions_from_json(payload), None
    flags = {k: v for k, v in payload.items() if k in CLI_OPTIONS}
    if "spec" in payload:
        subject = ClusterSpec.from_dict(payload["spec"])
    else:
        subject = actions_from_json(payload["actions"])
    return payload.get("kind"), flags, subject, payload.get("seed")

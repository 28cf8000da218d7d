"""Blame-localization campaigns: fault injection as validation.

The methodology's promise is localization — given a run, name the
processor, code region and activity responsible for the imbalance.  A
campaign turns that promise into a measurable score: inject a fault with
a *known* site (a straggling rank, a degraded link, a lossy link with
retransmission, a crash with checkpoint/restart recovery), run the full
analysis on the faulty trace, and check whether the top of each ranking
points back at the injection site.

Scoring follows the paper's drill-down.  For every region the ranking
criterion selects, the campaign emits one *blame claim*
``(region, activity, processor)``: the scaled activity ranking names the
critical activity and
:meth:`~repro.core.views.ProcessorView.most_imbalanced_processor` (with
the activity drill-down) names the overloaded processor within the
region.  A claim is a true positive when all three coordinates match the
injected ground truth; precision is true positives over all claims,
recall is localized faults over injected faults.  Under the default
``"maximum"`` criterion each case makes exactly one claim, so precision
and recall coincide; multi-select criteria (``"elbow"``,
``"percentile"``) can make extra claims and lower precision without
touching recall.

Every case is deterministic: fixed app configuration, fixed
:class:`~repro.faults.plan.FaultPlan` seed, deterministic simulator.
The default campaign therefore doubles as a regression test — the
expectations pinned here were derived from the designed fault sites and
verified against the implementation, and CI asserts the campaign stays
perfect.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple

from ..apps.cfd import CFDConfig, cfd_program, LOOPS
from ..apps.checkpoint import (CHECKPOINT_REGIONS, CheckpointConfig,
                               checkpoint_program)
from ..apps.simulate import traced_run
from ..core import analyze
from ..errors import FaultError
from .plan import (FaultPlan, LinkDegradation, MessageDrop, RankCrash,
                   RetryPolicy, Straggler)


@dataclass(frozen=True)
class CampaignApp:
    """One instrumented workload a campaign can inject faults into."""

    name: str
    program: Callable
    config: object
    regions: Tuple[str, ...]
    n_ranks: int = 16


@dataclass(frozen=True)
class CampaignCase:
    """One injected fault with its ground-truth blame site.

    ``expected_region`` / ``expected_activity`` name where the fault's
    symptom is designed to surface in the analysis; ``expected_ranks``
    are the processors at the fault site (a degraded link implicates
    both endpoints).
    """

    name: str
    app: CampaignApp
    plan: FaultPlan
    expected_region: str
    expected_activity: str
    expected_ranks: Tuple[int, ...]
    note: str = ""

    def __post_init__(self) -> None:
        if self.expected_region not in self.app.regions:
            raise FaultError(
                f"case {self.name!r}: expected region "
                f"{self.expected_region!r} is not a region of app "
                f"{self.app.name!r}")
        if not self.expected_ranks:
            raise FaultError(
                f"case {self.name!r}: expected_ranks must not be empty")


@dataclass(frozen=True)
class BlameClaim:
    """One (region, activity, processor) triple the analysis blames."""

    region: str
    activity: str
    processor: int
    correct: bool


@dataclass(frozen=True)
class CaseResult:
    """Outcome of running one campaign case."""

    case: CampaignCase
    elapsed: float
    claims: Tuple[BlameClaim, ...]
    #: The single top-of-ranking claim (first of ``claims``).
    top: BlameClaim

    @property
    def localized(self) -> bool:
        """Did any claim match the injected fault site exactly?"""
        return any(claim.correct for claim in self.claims)


@dataclass(frozen=True)
class CampaignReport:
    """Aggregated scores of a campaign run."""

    results: Tuple[CaseResult, ...]
    criterion: str

    @property
    def n_claims(self) -> int:
        return sum(len(result.claims) for result in self.results)

    @property
    def true_positives(self) -> int:
        return sum(1 for result in self.results for claim in result.claims
                   if claim.correct)

    @property
    def precision(self) -> float:
        """Correct claims over all claims made."""
        if self.n_claims == 0:
            return float("nan")
        return self.true_positives / self.n_claims

    @property
    def recall(self) -> float:
        """Localized faults over injected faults."""
        if not self.results:
            return float("nan")
        return (sum(1 for result in self.results if result.localized) /
                len(self.results))

    @property
    def perfect(self) -> bool:
        return self.n_claims > 0 and self.true_positives == self.n_claims \
            and all(result.localized for result in self.results)

    def render(self) -> str:
        """The campaign table plus the precision/recall summary."""
        header = ("case", "app", "injected fault", "blamed", "expected",
                  "hit")
        rows = []
        for result in self.results:
            case, top = result.case, result.top
            expected_ranks = ",".join(str(r) for r in case.expected_ranks)
            rows.append((
                case.name,
                case.app.name,
                case.plan.describe(),
                f"{top.region} / {top.activity} / p{top.processor}",
                f"{case.expected_region} / {case.expected_activity} "
                f"/ p{{{expected_ranks}}}",
                "yes" if result.localized else "NO",
            ))
        widths = [max(len(header[k]), *(len(row[k]) for row in rows))
                  for k in range(len(header))]
        def fmt(row):
            return "  ".join(cell.ljust(width)
                             for cell, width in zip(row, widths)).rstrip()
        lines = [fmt(header), fmt(tuple("-" * w for w in widths))]
        lines.extend(fmt(row) for row in rows)
        lines.append("")
        lines.append(
            f"criterion={self.criterion}  claims={self.n_claims}  "
            f"true positives={self.true_positives}  "
            f"precision={self.precision:.2f}  recall={self.recall:.2f}")
        return "\n".join(lines)


def run_case(case: CampaignCase, criterion: str = "maximum",
             **criterion_parameters) -> CaseResult:
    """Inject one fault, analyze the trace, score the blame claims."""
    outcome, _, measurements = traced_run(
        case.app.program, case.app.config, n_ranks=case.app.n_ranks,
        regions=case.app.regions, fault_plan=case.plan)
    analysis = analyze(measurements, criterion=criterion,
                       criterion_parameters=criterion_parameters)
    activity = analysis.activity_ranking.ordered[0].name
    activity_column = measurements.times[:, measurements.activity_index(
        activity), :]
    claims = []
    for item in analysis.region_ranking.selected:
        # Drill down into the critical activity where the region performs
        # it; a multi-select criterion can pull in regions that do not,
        # and there the profile-shape winner is the only suspect.
        performs = activity_column[
            measurements.region_index(item.name)].sum() > 0.0
        processor = analysis.processor_view.most_imbalanced_processor(
            item.name, activity if performs else None)
        claims.append(BlameClaim(
            region=item.name,
            activity=activity,
            processor=processor,
            correct=(item.name == case.expected_region
                     and activity == case.expected_activity
                     and processor in case.expected_ranks),
        ))
    return CaseResult(case=case, elapsed=float(outcome.elapsed),
                      claims=tuple(claims), top=claims[0])


def run_campaign(cases: Optional[Tuple[CampaignCase, ...]] = None,
                 criterion: str = "maximum",
                 **criterion_parameters) -> CampaignReport:
    """Run every case (default: :func:`default_campaign`) and score it."""
    if cases is None:
        cases = default_campaign()
    if not cases:
        raise FaultError("a campaign needs at least one case")
    results = tuple(run_case(case, criterion, **criterion_parameters)
                    for case in cases)
    return CampaignReport(results=results, criterion=criterion)


def _cfd_app() -> CampaignApp:
    return CampaignApp(name="cfd", program=cfd_program,
                       config=CFDConfig(steps=3), regions=LOOPS)


def _checkpoint_app() -> CampaignApp:
    config = CheckpointConfig(steps=8, checkpoint_every=4, compute=4e-3,
                              bytes_per_rank=128 << 10, metadata_time=1e-3)
    return CampaignApp(name="checkpoint", program=checkpoint_program,
                       config=config, regions=CHECKPOINT_REGIONS)


def default_campaign() -> Tuple[CampaignCase, ...]:
    """The four fault kinds spread over two applications.

    Expectations encode where each fault's symptom surfaces:

    * a persistent compute straggler inflates its rank's computation
      everywhere; the scaled ranking tops the region where the straggler
      compounds the existing skew (CFD loop 4's hot block includes rank
      3) or the compute-only region (checkpoint's solve);
    * a degraded or lossy link surfaces in CFD loop 5, whose ring
      exchange is otherwise perfectly balanced — one slow link there
      maximizes the dispersion;
    * a crash's recovery (restart I/O + replayed work) is traced under
      the region executing at crash time, making i/o the critical
      activity on the crashed rank.
    """
    cfd = _cfd_app()
    checkpoint = _checkpoint_app()
    return (
        CampaignCase(
            name="straggler/cfd", app=cfd,
            plan=FaultPlan((Straggler(rank=3, factor=6.0),), seed=11),
            expected_region="loop 4", expected_activity="computation",
            expected_ranks=(3,),
            note="persistent 6x compute straggler"),
        CampaignCase(
            name="link/cfd", app=cfd,
            plan=FaultPlan((LinkDegradation(src=2, dst=3, factor=20.0),),
                           seed=12),
            expected_region="loop 5", expected_activity="point-to-point",
            expected_ranks=(2, 3),
            note="20x slower link between ranks 2 and 3"),
        CampaignCase(
            name="drop/cfd", app=cfd,
            plan=FaultPlan(
                (MessageDrop(probability=0.25, src=2, dst=3,
                             symmetric=True),),
                seed=13,
                retry=RetryPolicy(timeout=2e-3, max_retries=8)),
            expected_region="loop 5", expected_activity="point-to-point",
            expected_ranks=(2, 3),
            note="25% message loss with timeout/retransmit recovery"),
        CampaignCase(
            name="crash/cfd", app=cfd,
            plan=FaultPlan(
                (RankCrash(rank=5, at_time=0.23, checkpoint_interval=0.1,
                           restart_time=0.08),),
                seed=14),
            expected_region="loop 2", expected_activity="i/o",
            expected_ranks=(5,),
            note="crash at t=0.23s, restart from last checkpoint"),
        CampaignCase(
            name="straggler/checkpoint", app=checkpoint,
            plan=FaultPlan((Straggler(rank=3, factor=4.0),), seed=21),
            expected_region="solve", expected_activity="computation",
            expected_ranks=(3,),
            note="persistent 4x compute straggler"),
        CampaignCase(
            name="crash/checkpoint", app=checkpoint,
            plan=FaultPlan(
                (RankCrash(rank=5, at_time=0.01,
                           checkpoint_interval=0.01,
                           restart_time=0.02),),
                seed=22),
            expected_region="solve", expected_activity="i/o",
            expected_ranks=(5,),
            note="crash at t=0.01s, restart from last checkpoint"),
    )

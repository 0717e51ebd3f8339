"""The predict → sample → refine loop with an exact verification contract.

The discipline is the standard one for sampling a slow simulator:

1. **Predict** — fit the ridge ensemble on the exact points run so far
   and price every grid point.
2. **Sample** — an acquisition rule picks the next K points: any
   *frontier-critical* points the caller nominates (predicted Pareto
   members that have never been run exactly), then the points where the
   ensemble disagrees most.
3. **Refine** — run those K points *exactly* (live runs through the
   existing :func:`repro.experiments.parallel.run_cases` supervised pool),
   score the predictions made **before** the runs against the exact
   results, fold the new points in, and repeat.

The loop stops when the freshly-run held-out points' relative cycle
error is within the configured bound, or when the exact-run ledger is
spent.  Either way the per-field held-out error statistics — measured
only on predictions issued before their exact runs — are returned for
the run manifest, so every ``repro pareto`` artifact carries its own
verification record.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.obs import registry as obs_registry
from repro.surrogate.features import (
    FeatureSpace,
    GridPoint,
    SceneProfile,
    SurrogateError,
)
from repro.surrogate.model import (
    SurrogateModel,
    TARGET_TRANSFORMS,
    error_summary,
    relative_errors,
)

logger = logging.getLogger("repro.surrogate")

#: The field whose held-out error gates loop termination.
PRIMARY_FIELD = "cycles"


def _count_exact(n: int = 1) -> None:
    if n <= 0:
        return
    obs_registry().counter(
        "repro_surrogate_exact_checks_total",
        "Exact spot-check runs issued by the surrogate loop",
    ).labels().inc(n)


def _count_predictions(n: int) -> None:
    if n <= 0:
        return
    obs_registry().counter(
        "repro_surrogate_predictions_total",
        "Grid points priced by the surrogate instead of run exactly",
    ).labels().inc(n)


@dataclass
class ExactLedger:
    """Budget accounting for every exact run a surrogate sweep issues."""

    limit: Optional[int] = None
    total: int = 0

    def remaining(self) -> Optional[int]:
        return None if self.limit is None else max(0, self.limit - self.total)

    def can_spend(self, n: int = 1) -> bool:
        return self.limit is None or self.total + n <= self.limit

    def record(self, n: int = 1) -> None:
        self.total += n
        _count_exact(n)

    def as_dict(self) -> Dict:
        return {"total": self.total, "limit": self.limit}


class ExactRunner:
    """Runs grid points exactly through the existing sweep machinery.

    Results are memoized per point, so the refine loop, the frontier
    verifier and the speedup join never pay for (or double-count) the
    same point twice.
    """

    def __init__(self, scene: str, policy: str, context, base_vtq,
                 ledger: ExactLedger, jobs: Optional[int] = None):
        self.scene = scene
        self.policy = policy
        self.context = context
        self.base_vtq = base_vtq
        self.ledger = ledger
        self.jobs = jobs
        self._memo: Dict[GridPoint, Dict] = {}

    def _spec(self, point: GridPoint):
        from repro.experiments.parallel import CaseSpec

        vtq = self.base_vtq
        if point.vtq_overrides:
            if vtq is None:
                raise SurrogateError(
                    f"policy {self.policy!r} sweep has VTQ axes but no base "
                    f"VTQConfig"
                )
            vtq = replace(vtq, **{k: _axis_value(k, v)
                                  for k, v in point.vtq_overrides})
        overrides = tuple(
            (name, _axis_value(name, value))
            for name, value in point.gpu_overrides
        ) or None
        return CaseSpec(self.scene, self.policy, vtq=vtq, gpu_overrides=overrides)

    def known(self, point: GridPoint) -> Optional[Dict]:
        return self._memo.get(point)

    def run(self, points: Sequence[GridPoint],
            mandatory: bool = False) -> Dict[GridPoint, Dict]:
        """Exactly resolve ``points`` (memoized); failures raise.

        The ledger is charged only for points actually executed.
        ``mandatory`` runs (frontier verification — required by the
        contract) are charged but never refused: the reported
        ``exact_fraction`` stays honest either way.  A quarantined case
        is a hard error here: a surrogate trained on silently-dropped
        exact points would report an unearned error bound.
        """
        from repro.experiments.parallel import run_cases

        fresh = [p for p in dict.fromkeys(points) if p not in self._memo]
        if not fresh:
            return {p: self._memo[p] for p in points}
        if not mandatory and not self.ledger.can_spend(len(fresh)):
            raise SurrogateError(
                f"exact-run budget exhausted: {self.ledger.total} spent, "
                f"{len(fresh)} more needed, limit {self.ledger.limit}"
            )
        specs = [self._spec(p) for p in fresh]
        results = run_cases(
            specs, self.context, jobs=self.jobs, record_failures=False,
            journal=None,
        )
        for point, spec, (metrics, failure) in zip(fresh, specs, results):
            if failure is not None or metrics is None:
                raise SurrogateError(
                    f"exact run {spec.label()} failed: "
                    f"{failure.error_type if failure else 'no metrics'}: "
                    f"{failure.message if failure else ''}"
                )
            self._memo[point] = metrics
            self.ledger.record()
        return {p: self._memo[p] for p in points}


def _axis_value(name: str, value):
    """Axis values arrive as floats from grids/JSON; integer fields want
    ints back (dataclass replace + cache keys must see exact types)."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    return value


def _initial_sample(grid: Sequence[GridPoint], n0: int,
                    rng: np.random.Generator) -> List[int]:
    """Deterministic space-filling seed set: grid corners + random fill.

    Every combination of per-axis extremes is seeded (all 2^k corners of
    the axes box, capped at 16) so the model interpolates rather than
    extrapolates — the anti-frontier corner is exactly where an
    extrapolating fit blows up, and spread-acquisition will probe it.
    """
    n = len(grid)
    axes = sorted(grid[0].axis_values())
    columns = {
        axis: np.asarray([p.axis_values()[axis] for p in grid]) for axis in axes
    }
    extremes = {
        axis: (float(columns[axis].min()), float(columns[axis].max()))
        for axis in axes
    }
    picks: List[int] = []
    if len(axes) <= 4:  # 2^k corners, capped
        for mask in range(2 ** len(axes)):
            match = np.ones(n, dtype=bool)
            for bit, axis in enumerate(axes):
                match &= columns[axis] == extremes[axis][(mask >> bit) & 1]
            hits = np.flatnonzero(match)
            if len(hits):
                picks.append(int(hits[0]))
    else:
        for axis in axes:
            picks.append(int(np.argmin(columns[axis])))
            picks.append(int(np.argmax(columns[axis])))
        picks.extend((0, n - 1))
    unique = list(dict.fromkeys(picks))
    if len(unique) < n0:
        remaining = np.array(
            [i for i in range(n) if i not in set(unique)], dtype=int
        )
        extra = rng.choice(
            remaining, size=min(n0 - len(unique), len(remaining)), replace=False
        )
        unique.extend(int(i) for i in np.sort(extra))
    return unique[:max(n0, 1)]


@dataclass
class RefineReport:
    """What one surrogate fit learned and how it was verified."""

    exact_indices: List[int]
    predictions: Dict[str, np.ndarray]
    spreads: Dict[str, np.ndarray]
    #: Held-out error over ALL refine rounds and ALL picks — including
    #: the uncertainty-maximizing exploration picks, so this is a
    #: worst-case-biased record (kept deliberately: honesty first).
    heldout: Dict[str, Dict]
    #: Max relative error over the LAST round's uniform AUDIT probes —
    #: the quantity the stopping rule gates on.  Audit probes are drawn
    #: uniformly from unpriced grid points, so this estimates the error
    #: of a typical surrogate-priced point; exploration picks are chosen
    #: *because* the ensemble disagrees there and would bias the gate.
    final_heldout: Dict[str, float]
    #: ``grid index -> pre-run relative cycle error`` for every
    #: frontier-critical pick made in CLOSURE mode (after the held-out
    #: bound was met): the converged surrogate's prediction vs the exact
    #: run it nominated.  These are verification-grade measurements —
    #: exploration-phase errors live in ``heldout`` instead.
    verification_rel: Dict[int, float]
    loo: Dict[str, float]
    rounds: int
    bound_met: bool


def refine(
    grid: Sequence[GridPoint],
    space: FeatureSpace,
    runner: ExactRunner,
    rng: np.random.Generator,
    error_bound: float = 0.10,
    init_points: int = 6,
    round_points: int = 4,
    audit_points: int = 2,
    max_rounds: int = 4,
    critical_fn: Optional[Callable[[Dict[str, np.ndarray]], Sequence[int]]] = None,
    focus_fn: Optional[Callable[[Dict[str, np.ndarray]], np.ndarray]] = None,
    target_fields: Sequence[str] = tuple(TARGET_TRANSFORMS),
    reserve: int = 0,
) -> RefineReport:
    """Run the predict→sample→refine contract over one grid.

    ``critical_fn`` (optional) maps the current mean predictions to grid
    indices that must be prioritized for exact runs — the pareto engine
    passes its predicted-frontier membership here, which is why most
    frontier points end up exactly-verified before the loop even stops.

    ``focus_fn`` (optional) maps predictions to per-point acquisition
    weights.  Spread-acquisition picks ``argmax(weight * rel_spread)``:
    down-weighting regions the caller will never report (deep inside the
    dominated set) spends the exact-run budget where accuracy is owed.

    ``audit_points`` of each round's batch are drawn UNIFORMLY from the
    still-unpriced grid and it is their held-out error that gates the
    stopping rule — the exploration picks are selected where the
    ensemble disagrees most, so gating on them would measure the model
    at its self-declared worst points rather than at the points the
    sweep actually prices.  Audit probes join the training set on the
    next refit like any other exact run.

    ``reserve`` exact-run slots are left unspent in the shared ledger
    for whatever follows this loop (the frontier verification pass).
    """
    grid = list(grid)
    n = len(grid)
    if n == 0:
        raise SurrogateError("empty grid")
    X = space.matrix(grid)

    exact_idx: List[int] = []
    heldout_rel: Dict[str, List[float]] = {f: [] for f in target_fields}
    verification_rel: Dict[int, float] = {}

    def run_indices(indices: Sequence[int]) -> None:
        points = [grid[i] for i in indices]
        runner.run(points)
        exact_idx.extend(i for i in indices if i not in set(exact_idx))

    def targets() -> Dict[str, np.ndarray]:
        return {
            f: np.asarray(
                [float(runner.known(grid[i])[f]) for i in exact_idx]
            )
            for f in target_fields
        }

    def fit() -> SurrogateModel:
        model = SurrogateModel(rng=rng)
        model.fit(X[exact_idx], targets())
        return model

    bound_met = False

    def spendable() -> Optional[int]:
        remaining = runner.ledger.remaining()
        if remaining is None:
            return None
        # The reserve is held for frontier verification.  Closure-mode
        # rounds (bound met, criticals only) ARE that verification —
        # running frontier candidates with a refit between rounds — so
        # they may spend it; exploration rounds may not.
        hold = 0 if bound_met else reserve
        return max(0, remaining - hold)

    n0 = min(n, max(3, init_points))
    budget = spendable()
    if budget is not None:
        n0 = min(n0, max(3, budget))
    run_indices(_initial_sample(grid, n0, rng))

    model = fit()
    rounds = 0
    predictions: Dict[str, np.ndarray] = {}
    spreads: Dict[str, np.ndarray] = {}
    final_heldout: Dict[str, float] = {f: 0.0 for f in target_fields}

    while True:
        preds = model.predict(X)
        predictions = {f: mean for f, (mean, _) in preds.items()}
        spreads = {f: spread for f, (_, spread) in preds.items()}
        _count_predictions(n - len(exact_idx))
        rounds += 1

        exact_set = set(exact_idx)
        if len(exact_set) >= n:
            bound_met = True  # nothing left unpriced: trivially exact
            break

        # -- sample: frontier-critical first, widest ensemble spread next --
        want: List[int] = []
        if critical_fn is not None:
            for i in critical_fn(predictions):
                if i not in exact_set and i not in want:
                    want.append(int(i))
            if not bound_met:
                # An early fit's predicted frontier is mostly noise;
                # chasing all of it would drain the ledger before the
                # model gets a second refit.  Cap criticals until the
                # bound is met — closure mode (below) and the mandatory
                # verification pass pick up whatever is left.
                want = want[:max(2, round_points // 2)]
            else:
                # Closure is sequential: one nomination per round, refit
                # in between, so every verification-grade prediction is
                # made by a model that has seen all earlier frontier
                # exacts — batch nominations would all share one stale
                # fit and inherit its worst-corner error.
                want = want[:1]
        if bound_met and not want:
            break  # bound met AND predicted frontier fully exact: done
        audit: List[int] = []
        if not bound_met:
            # Uniform audit probes: the gate's held-out sample.  Placed
            # after the criticals so budget truncation sheds the spread
            # picks first and the gate stays measurable.
            pool = np.asarray(
                [i for i in range(n)
                 if i not in exact_set and i not in set(want)],
                dtype=int,
            )
            if audit_points > 0 and len(pool):
                chosen = rng.choice(
                    pool, size=min(audit_points, len(pool)), replace=False
                )
                audit = [int(i) for i in np.sort(chosen)]
                want.extend(audit)
            rel_spread = spreads[PRIMARY_FIELD] / np.maximum(
                np.abs(predictions[PRIMARY_FIELD]), 1e-12
            )
            if focus_fn is not None:
                rel_spread = rel_spread * np.asarray(
                    focus_fn(predictions), dtype=float
                )
            # Critical (predicted-frontier) points are never capped:
            # closing the frontier here, with refits between rounds, is
            # what keeps the final verification pass nearly free.
            cap = max(round_points, len(want), 1)
            order = np.argsort(-rel_spread, kind="stable")
            for i in order:
                if len(want) >= cap:
                    break
                if int(i) not in exact_set and int(i) not in want:
                    want.append(int(i))
            want = want[:cap]
        remaining = spendable()
        if remaining is not None:
            want = want[:remaining]
        if not want:
            break  # ledger spent: report what the last round measured

        # -- refine: predictions recorded BEFORE the exact runs --
        was_closure = bound_met
        before = {
            f: predictions[f][want].copy() for f in target_fields
        }
        run_indices(want)
        exact_now = {
            f: np.asarray([float(runner.known(grid[i])[f]) for i in want])
            for f in target_fields
        }
        audit_pos = [k for k, i in enumerate(want) if i in set(audit)]
        round_rel = {}
        gate_rel = {}
        for f in target_fields:
            rel = relative_errors(before[f], exact_now[f])
            heldout_rel[f].extend(float(r) for r in rel)
            round_rel[f] = float(rel.max()) if len(rel) else 0.0
            if f == PRIMARY_FIELD and was_closure:
                for k, i in enumerate(want):
                    verification_rel[i] = float(rel[k])
            # Gate on the uniform audit probes when the round has any;
            # fall back to the whole batch (conservative) otherwise.
            gate_rel[f] = (
                float(rel[audit_pos].max()) if audit_pos else round_rel[f]
            )
        if audit_pos or not bound_met:
            # Closure rounds (criticals only, after the bound is met)
            # carry no audit probes; their pick errors are recorded in
            # ``heldout`` but must not overwrite the gate's value.
            final_heldout = dict(gate_rel)
        logger.info(
            "surrogate round %d: %d exact points, held-out %s rel err "
            "max %.3f (audit %.3f)", rounds, len(exact_idx), PRIMARY_FIELD,
            round_rel[PRIMARY_FIELD], gate_rel[PRIMARY_FIELD],
        )
        model = fit()
        if gate_rel[PRIMARY_FIELD] <= error_bound:
            bound_met = True
            if critical_fn is None:
                preds = model.predict(X)
                predictions = {f: mean for f, (mean, _) in preds.items()}
                spreads = {f: spread for f, (_, spread) in preds.items()}
                break
            # Frontier closure: keep running critical-only rounds (the
            # loop top re-predicts with the refit model) until the
            # predicted frontier is fully exact.
        # Closure rounds are single-nomination, so give them generous
        # headroom: the ledger, not the round counter, is the real cap.
        if rounds >= max_rounds + (6 * max_rounds if critical_fn else 0):
            preds = model.predict(X)
            predictions = {f: mean for f, (mean, _) in preds.items()}
            spreads = {f: spread for f, (_, spread) in preds.items()}
            break

    # Exact points override predictions: the surrogate never second-
    # guesses a simulation it already has.
    for f in target_fields:
        for i in exact_idx:
            predictions[f][i] = float(runner.known(grid[i])[f])
            spreads[f][i] = 0.0

    return RefineReport(
        exact_indices=list(exact_idx),
        predictions=predictions,
        spreads=spreads,
        heldout={f: error_summary(heldout_rel[f]) for f in target_fields},
        final_heldout=final_heldout,
        verification_rel=verification_rel,
        loo=model.loo_relative_error(X[exact_idx], targets()),
        rounds=rounds,
        bound_met=bound_met,
    )

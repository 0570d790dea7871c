"""Calibrated cost model: per-phase apply seconds.

It prices :func:`~repro.core.work.phase_flops`, formulas over the work
table of the tree and lists alone, so a 2k-point probe tree extrapolates
to a 20M-point production tree.  Those are the tuner's features, not
what an apply books.  Against the booked flops (seed-0 8k points, q = 64,
order 6, Laplace / Stokes): U2U reads 11.0× / 5.17× and D2D 6.0× / 3.08×
on the uniform cloud, as every tree edge is charged a surface pair
evaluation and a solve; on Plummer, where 12 of 547 leaves are empty,
S2U reads +1.1 % / +1.6 %, VLI +1.5 % / +1.6 % and WLI +0.2 %; on an
N = 0 tree (order 4) S2U and D2D charge 6 272 flops each, an apply 0.

Calibration (:meth:`CostModel.calibrate`) measures secs-per-flop per
(phase, precision) with one :meth:`~repro.tune.probe.SubsampleProbe.ladder`
of probe applies, dividing each phase's wall seconds by its *structural*
flops on the probe tree, so those ratios cancel.  Predictions are
``coeff[phase, precision] x structural_flops`` plus a fixed per-apply
overhead, scaled by a measured multi-RHS batch-efficiency factor;
:meth:`CostModel.observe` folds observed ``SERVE:apply`` span times back
in as an EWMA correction, so a model calibrated on an idle machine
tracks a loaded one.
"""

from __future__ import annotations

from repro.core.work import phase_flops
from repro.tune.probe import SubsampleProbe

__all__ = ["CostModel", "PHASES"]

PHASES = ("S2U", "U2U", "VLI", "XLI", "D2D", "WLI", "D2T", "ULI")

#: Marginal per-extra-column cost fraction assumed before the batch probe
#: runs (GEMM batching amortises most of the work; measured values on the
#: reference host land around 0.2-0.5).
_DEFAULT_BATCH_EFF = 0.5

#: EWMA weight of each new observed-vs-predicted correction sample.
_OBSERVE_ALPHA = 0.3


class CostModel:
    """Calibrated secs-per-flop coefficients plus batch/overhead terms.

    Serialisable (:meth:`to_dict` / :meth:`from_dict`) so tuned stores
    can persist the calibration next to the chosen config.
    """

    def __init__(self):
        # (phase, precision) -> seconds per structural flop
        self.coeffs: dict[tuple[str, str], float] = {}
        # precision -> fixed per-apply overhead seconds
        self.overhead: dict[str, float] = {}
        # precision -> marginal per-extra-column fraction in [0, 1]
        self.batch_eff: dict[str, float] = {}
        # EWMA observed/predicted ratio from live SERVE:apply spans
        self.correction: float = 1.0

    # -- calibration -------------------------------------------------------

    def ingest_probe(self, ev, tree, lists, profile, precision: str) -> None:
        """Fold one timed probe apply into the coefficients.

        ``profile`` is the :class:`PhaseProfile` of a *timed* apply on
        ``(tree, lists)``.  Each (phase, precision) coefficient, and the
        precision's fixed overhead, blends 1:1 with its previous value:
        the newest probe weighs 1/2, the one before 1/4, and so on.
        """
        def blend(table, key, new):
            old = table.get(key)
            table[key] = new if old is None else 0.5 * (old + new)

        flops = phase_flops(ev, tree, lists)
        total_phase = 0.0
        for ph in PHASES:
            e = profile.events.get(ph)
            if e is None or flops[ph] <= 0:
                continue
            total_phase += e.wall_seconds
            blend(self.coeffs, (ph, precision), e.wall_seconds / flops[ph])
        wall = sum(e.wall_seconds for e in profile.events.values())
        blend(self.overhead, precision, max(wall - total_phase, 0.0))

    def ingest_ladder(
        self, probe: SubsampleProbe, max_points: int, rungs, batch_eff
    ) -> None:
        """Fold a :meth:`SubsampleProbe.ladder` result, rung by rung."""
        tree, lists, _ = probe.geometry(max_points)
        for (_, prec), rung in rungs.items():
            self.ingest_probe(rung.ev, tree, lists, rung.profile, prec)
        self.batch_eff.update(batch_eff)

    def calibrate(
        self,
        probe: SubsampleProbe,
        ev_factory,
        precisions=("fp64", "fp32"),
        max_points: int = 64,
        order: int | None = None,
        batch: int = 8,
    ) -> None:
        """Run one ladder rung per precision (plus a batch probe).

        ``ev_factory(precision)`` returns a fresh evaluator; the same
        :class:`SubsampleProbe` instance should be shared with the
        accuracy ladder so trees and references are built once.
        """
        self.ingest_ladder(probe, max_points, *probe.ladder(
            [(order, p) for p in precisions],
            lambda _o, p: ev_factory(p), max_points, batch,
        ))

    # -- prediction --------------------------------------------------------

    def predict_phases(
        self, ev, tree, lists, precision: str = "fp64"
    ) -> dict[str, float]:
        """Predicted seconds per phase for one single-RHS apply."""
        flops = phase_flops(ev, tree, lists)
        out = {}
        for ph in PHASES:
            c = self.coeffs.get((ph, precision))
            if c is None:  # fall back to the other precision's coefficient
                other = "fp64" if precision == "fp32" else "fp32"
                c = self.coeffs.get((ph, other), 0.0)
            out[ph] = c * flops[ph]
        return out

    def predict_apply(
        self, ev, tree, lists, precision: str = "fp64", batch: int = 1
    ) -> float:
        """Predicted wall seconds of one (possibly multi-RHS) apply."""
        base = sum(self.predict_phases(ev, tree, lists, precision).values())
        base += self.overhead.get(precision, 0.0)
        if batch > 1:
            eff = self.batch_eff.get(precision, _DEFAULT_BATCH_EFF)
            base *= 1.0 + eff * (batch - 1)
        return base * self.correction

    # -- online correction -------------------------------------------------

    def observe(self, observed_s: float, predicted_s: float) -> float:
        """EWMA-fold an observed apply span against its prediction.

        Returns the updated correction factor.  Bounded to [0.1, 10] so a
        single pathological span cannot poison the model.
        """
        if predicted_s > 0 and observed_s > 0:
            ratio = observed_s / predicted_s
            ratio = min(max(ratio, 0.1), 10.0)
            self.correction = (
                (1 - _OBSERVE_ALPHA) * self.correction
                + _OBSERVE_ALPHA * ratio
            )
        return self.correction

    # -- persistence -------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "coeffs": {
                f"{ph}@{prec}": c for (ph, prec), c in self.coeffs.items()
            },
            "overhead": dict(self.overhead),
            "batch_eff": dict(self.batch_eff),
            "correction": self.correction,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "CostModel":
        m = cls()
        for key, c in d.get("coeffs", {}).items():
            ph, _, prec = key.partition("@")
            m.coeffs[(ph, prec)] = float(c)
        m.overhead = {k: float(v) for k, v in d.get("overhead", {}).items()}
        m.batch_eff = {k: float(v) for k, v in d.get("batch_eff", {}).items()}
        m.correction = float(d.get("correction", 1.0))
        return m

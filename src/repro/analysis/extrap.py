"""Mini-Extra-P: automated empirical performance modeling (§5, [6]).

Extra-P fits functions from the **Performance Model Normal Form** (PMNF)

    f(p) = c₀ + Σₖ cₖ · p^{iₖ} · log₂(p)^{jₖ}

to measurements of a metric at several process counts, and reports the best
model — e.g. the paper's Figure 14, where MPI_Bcast total time on CTS is
modeled as ``-0.6355857931 + 0.0466021770 * p^(1)``.

We implement the standard single-term search: for every exponent pair
(i, j) from Extra-P's default search space, least-squares fit
``c0 + c1·p^i·log2(p)^j`` and keep the hypothesis with the smallest
cross-validated SMAPE (falling back to adjusted R² for ties), exactly the
model-selection strategy of Calotoiu et al.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

__all__ = ["Measurement", "MultiTermModel", "PerformanceModel",
           "DEFAULT_EXPONENTS", "fit_model", "fit_multi_term_model"]

#: Extra-P's default search space.
DEFAULT_EXPONENTS: Tuple[Tuple[float, int], ...] = tuple(
    (i, j)
    for i in (0.0, 0.25, 1.0 / 3.0, 0.5, 2.0 / 3.0, 0.75, 1.0, 1.25, 4.0 / 3.0,
              1.5, 2.0, 3.0)
    for j in (0, 1, 2)
    if not (i == 0.0 and j == 0)
)


@dataclass(frozen=True)
class Measurement:
    """One (process count, metric value) observation; repeats get averaged
    upstream (Extra-P uses the mean by default — Fig 14's 'Total time_mean')."""

    p: float
    value: float


@dataclass
class PerformanceModel:
    """A fitted single-term PMNF model  c0 + c1 · p^i · log2(p)^j."""

    c0: float
    c1: float
    i: float
    j: int
    smape: float = 0.0
    r_squared: float = 0.0
    measurements: List[Measurement] = field(default_factory=list)

    def predict(self, p) -> np.ndarray:
        p = np.asarray(p, dtype=float)
        return self.c0 + self.c1 * self._term(p)

    def _term(self, p: np.ndarray) -> np.ndarray:
        term = np.power(p, self.i)
        if self.j:
            term = term * np.power(np.log2(np.maximum(p, 1.0)), self.j)
        return term

    @property
    def is_constant(self) -> bool:
        return self.c1 == 0.0

    def term_str(self) -> str:
        if self.is_constant:
            return ""
        parts = [f"p^({self._fmt_exp(self.i)})"]
        if self.j:
            parts.append(f"log2(p)^({self.j})")
        return " * ".join(parts)

    @staticmethod
    def _fmt_exp(x: float) -> str:
        return str(int(x)) if float(x).is_integer() else f"{x:g}"

    def __str__(self) -> str:
        """Figure 14 format: ``-0.6355… + 0.0466… * p^(1)``."""
        if self.is_constant:
            return f"{self.c0}"
        return f"{self.c0} + {self.c1} * {self.term_str()}"


def _smape(actual: np.ndarray, predicted: np.ndarray) -> float:
    denom = np.abs(actual) + np.abs(predicted)
    mask = denom > 0
    if not mask.any():
        return 0.0
    return float(
        np.mean(2.0 * np.abs(predicted[mask] - actual[mask]) / denom[mask]) * 100.0
    )


def _term_matrix(ps: np.ndarray,
                 exponents: Sequence[Tuple[float, int]]) -> np.ndarray:
    """All candidate term columns ``p^i · log2(p)^j`` in one vectorized
    pass — one (n_points, n_hypotheses) matrix that every hypothesis slices
    a column out of, instead of rebuilding its column per fit.  Elementwise
    the operations match the old per-candidate construction exactly
    (``log^0 == 1.0`` multiplies out bit-identically), so fitted models are
    unchanged."""
    i_arr = np.array([i for i, _ in exponents], dtype=float)
    j_arr = np.array([j for _, j in exponents], dtype=float)
    cols = np.power(ps[:, None], i_arr[None, :])
    logs = np.log2(np.maximum(ps, 1.0))
    return cols * np.power(logs[:, None], j_arr[None, :])


def _fit_column(ps: np.ndarray, ys: np.ndarray, term: np.ndarray
                ) -> Optional[Tuple[float, float]]:
    design = np.column_stack([np.ones_like(ps), term])
    try:
        coeffs, *_ = np.linalg.lstsq(design, ys, rcond=None)
    except np.linalg.LinAlgError:
        return None
    c0, c1 = float(coeffs[0]), float(coeffs[1])
    if not (math.isfinite(c0) and math.isfinite(c1)):
        return None
    return c0, c1


def _as_measurements(
    measurements: Sequence[Measurement] | Sequence[Tuple[float, float]],
) -> List[Measurement]:
    return [
        m if isinstance(m, Measurement) else Measurement(float(m[0]), float(m[1]))
        for m in measurements
    ]


def fit_model(
    measurements: Sequence[Measurement] | Sequence[Tuple[float, float]],
    exponents: Sequence[Tuple[float, int]] = DEFAULT_EXPONENTS,
) -> PerformanceModel:
    """Fit the best single-term PMNF model to the measurements.

    Wants at least 3 distinct process counts (Extra-P itself wants 5 for
    trustworthy models); degenerate inputs — a single point, or repeated
    measurements of one process count — yield the constant model rather
    than an error, so continuous pipelines fitting whatever history exists
    never fall over on a short series.  Every measurement must have a
    finite value and a finite, positive process count.
    """
    return _fit(_as_measurements(measurements), exponents)


def fit_multi_term_model(
    measurements: Sequence[Measurement] | Sequence[Tuple[float, float]],
    max_terms: int = 2,
    exponents: Sequence[Tuple[float, int]] = DEFAULT_EXPONENTS,
) -> "MultiTermModel":
    """Full PMNF search with up to ``max_terms`` ∈ {1, 2} terms (Extra-P's
    n > 1 case): exhaustive joint least squares over exponent pairs, with an
    occam rule — the two-term hypothesis wins only when it improves SMAPE by
    a clear margin, which is how Extra-P avoids overfitting small
    measurement sets."""
    if max_terms < 1:
        raise ValueError(f"max_terms must be >= 1, got {max_terms}")
    return _fit_multi(_as_measurements(measurements), max_terms, exponents)


def _fit_multi(
    measurements: List[Measurement],
    max_terms: int,
    exponents: Sequence[Tuple[float, int]],
) -> "MultiTermModel":
    base = _fit(measurements, exponents)
    terms = [(base.c1, base.i, base.j)] if not base.is_constant else []
    best = MultiTermModel(c0=base.c0, terms=terms,
                          smape=base.smape, r_squared=base.r_squared,
                          measurements=base.measurements)
    if max_terms == 1 or base.smape < 1e-9:
        return best

    ps = np.array([m.p for m in base.measurements])
    ys = np.array([m.value for m in base.measurements])
    if len(ps) < 4:  # need at least one dof beyond the 3 coefficients
        return best
    ss_tot = float(np.sum((ys - np.mean(ys)) ** 2))

    exps = list(exponents)
    T = _term_matrix(ps, exps)
    ones = np.ones_like(ps)
    for a in range(len(exps)):
        for b in range(a + 1, len(exps)):
            ia, ja = exps[a]
            ib, jb = exps[b]
            design = np.column_stack([ones, T[:, a], T[:, b]])
            try:
                coeffs, *_ = np.linalg.lstsq(design, ys, rcond=None)
            except np.linalg.LinAlgError:
                continue
            if not np.all(np.isfinite(coeffs)):
                continue
            candidate = MultiTermModel(
                c0=float(coeffs[0]),
                terms=[(float(coeffs[1]), ia, ja),
                       (float(coeffs[2]), ib, jb)],
                measurements=base.measurements,
            )
            pred = candidate.predict(ps)
            candidate.smape = _smape(ys, pred)
            candidate.r_squared = (
                1.0 - float(np.sum((ys - pred) ** 2)) / ss_tot
                if ss_tot > 0 else 1.0
            )
            # occam: require a clear improvement over fewer terms
            if candidate.smape < best.smape * 0.7 - 1e-12:
                best = candidate
    return best


@dataclass
class MultiTermModel:
    """c0 + Σk ck · p^ik · log2(p)^jk."""

    c0: float
    terms: List[Tuple[float, float, int]] = field(default_factory=list)
    smape: float = 0.0
    r_squared: float = 0.0
    measurements: List[Measurement] = field(default_factory=list)

    def predict(self, p) -> np.ndarray:
        p = np.asarray(p, dtype=float)
        out = np.full_like(p, self.c0, dtype=float)
        for c, i, j in self.terms:
            term = np.power(p, i)
            if j:
                term = term * np.power(np.log2(np.maximum(p, 1.0)), j)
            out = out + c * term
        return out

    def __str__(self):
        parts = [f"{self.c0}"]
        for c, i, j in self.terms:
            t = f"p^({i:g})"
            if j:
                t += f" * log2(p)^({j})"
            parts.append(f"{c} * {t}")
        return " + ".join(parts)


def _fit(
    ms: List[Measurement],
    exponents: Sequence[Tuple[float, int]],
) -> PerformanceModel:
    if not ms:
        raise ValueError("need at least one measurement")
    for m in ms:
        if not (math.isfinite(m.p) and math.isfinite(m.value)):
            raise ValueError(f"measurements must be finite, got {m}")
        if m.p <= 0:
            raise ValueError("process counts must be positive")
    # Average repeated measurements per p (Extra-P's mean aggregation).
    by_p: dict = {}
    for m in ms:
        by_p.setdefault(m.p, []).append(m.value)
    ps = np.array(sorted(by_p), dtype=float)
    ys = np.array([np.mean(by_p[p]) for p in ps])

    mean_y = float(np.mean(ys))
    ss_tot = float(np.sum((ys - mean_y) ** 2))

    # Constant-model baseline.  Degenerate series — a single measurement
    # point, or repeats of one process count collapsing to one (the design
    # matrix would be rank-deficient) — resolve to it directly rather than
    # raising: the constant is the only defensible model of such data.
    best = PerformanceModel(
        c0=mean_y, c1=0.0, i=0.0, j=0,
        smape=_smape(ys, np.full_like(ys, mean_y)),
        r_squared=0.0,
        measurements=[Measurement(float(p), float(v)) for p, v in zip(ps, ys)],
    )
    if len(ps) < 3:
        return best

    exps = list(exponents)
    T = _term_matrix(ps, exps)
    for k, (i, j) in enumerate(exps):
        fitted = _fit_column(ps, ys, T[:, k])
        if fitted is None:
            continue
        c0, c1 = fitted
        model = PerformanceModel(c0=c0, c1=c1, i=i, j=j)
        pred = model.predict(ps)
        smape = _smape(ys, pred)
        ss_res = float(np.sum((ys - pred) ** 2))
        r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
        model.smape = smape
        model.r_squared = r2
        model.measurements = best.measurements
        if smape < best.smape - 1e-12 or (
            abs(smape - best.smape) <= 1e-12 and r2 > best.r_squared
        ):
            best = model
    return best

"""Piecewise-linear cosine approximation unit (paper Eq. 5).

Implementing a true cosine in hardware would need either a CORDIC pipeline or
a large lookup table, so DeepCAM approximates the cosine of the hashing angle
with a three-segment piecewise-linear function:

.. math::

    \\cos(\\theta) \\approx \\begin{cases}
        1 - \\theta / \\pi            & 0 < \\theta \\le \\pi/3 \\\\
        -0.96\\,\\theta + 1.51        & \\pi/3 < \\theta \\le \\pi/2 \\\\
        -\\mathrm{cos}(\\pi - \\theta) & \\theta > \\pi/2
    \\end{cases}

The third case folds the obtuse range back onto the acute range by symmetry,
so the hardware only ever evaluates one multiply and one add.  This module
provides a vectorised functional model, an exact-cosine reference for error
analysis, the digital cost of the unit, and :func:`digitise`, the table
read-out every CAM pipeline uses to turn Hamming counts into cosines.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from repro.hw.components import ComponentCost, CostLibrary, DEFAULT_COST_LIBRARY


@dataclass(frozen=True)
class CosineErrorStats:
    """Error statistics of the PWL approximation over a sweep of angles."""

    max_abs_error: float
    mean_abs_error: float
    rmse: float


class CosineUnit:
    """Hardware cosine approximation following Eq. 5 of the paper.

    Parameters
    ----------
    use_exact:
        When ``True`` the unit returns the exact cosine instead of the
        piecewise-linear approximation.  This is the knob used by the cosine
        ablation benchmark; real DeepCAM hardware always uses the PWL form.
    library:
        Cost library used to price the multiplier/adder/comparator.
    """

    #: Slope and intercept of the middle segment, straight from Eq. 5.
    MID_SLOPE = -0.96
    MID_INTERCEPT = 1.51

    def __init__(self, use_exact: bool = False, library: CostLibrary | None = None) -> None:
        self.use_exact = bool(use_exact)
        self.library = library if library is not None else DEFAULT_COST_LIBRARY

    # -- functional model -----------------------------------------------------

    def __call__(self, theta: float | Iterable[float] | np.ndarray) -> np.ndarray | float:
        """Evaluate the approximation at angle(s) ``theta`` (radians).

        Angles are expected in ``[0, pi]`` -- the range a Hamming distance of
        ``0..k`` maps to.  Values slightly outside (from numerical noise) are
        clipped.  Scalars in, scalar out; arrays in, arrays out.
        """
        scalar_input = np.isscalar(theta)
        angles = np.atleast_1d(np.asarray(theta, dtype=np.float64))
        if np.any(angles < -1e-9) or np.any(angles > math.pi + 1e-9):
            raise ValueError("theta must lie in [0, pi]")
        angles = np.clip(angles, 0.0, math.pi)

        if self.use_exact:
            result = np.cos(angles)
        else:
            result = self._piecewise(angles)

        if scalar_input:
            return float(result[0])
        return result

    def _piecewise(self, angles: np.ndarray) -> np.ndarray:
        # Fold the obtuse range onto the acute range: cos(theta) = -cos(pi - theta).
        obtuse = angles > math.pi / 2
        folded = np.where(obtuse, math.pi - angles, angles)

        low = folded <= math.pi / 3
        values = np.empty_like(folded)
        values[low] = 1.0 - folded[low] / math.pi
        values[~low] = self.MID_SLOPE * folded[~low] + self.MID_INTERCEPT

        values[obtuse] = -values[obtuse]
        return values

    # -- analysis -------------------------------------------------------------

    def error_stats(self, num_points: int = 4096) -> CosineErrorStats:
        """Error of the PWL form against ``cos`` over ``[0, pi]``."""
        if num_points < 2:
            raise ValueError("num_points must be at least 2")
        angles = np.linspace(0.0, math.pi, num_points)
        approx = self._piecewise(angles)
        exact = np.cos(angles)
        error = np.abs(approx - exact)
        return CosineErrorStats(
            max_abs_error=float(error.max()),
            mean_abs_error=float(error.mean()),
            rmse=float(np.sqrt(np.mean(error ** 2))),
        )

    # -- cost model -----------------------------------------------------------

    def hardware_cost(self) -> ComponentCost:
        """Cost of one PWL evaluation (or a CORDIC estimate in exact mode)."""
        if not self.use_exact:
            return self.library.get("cosine_pwl")
        # A 16-bit, 12-iteration CORDIC pipeline: three adders per iteration.
        adder = self.library.adder(16)
        iterations = 12
        return ComponentCost(
            energy_pj=adder.energy_pj * 3 * iterations,
            area_um2=adder.area_um2 * 3,
            latency_cycles=float(iterations),
            leakage_uw=adder.leakage_uw * 3,
        )


def digitise(cosine_unit: Callable[[np.ndarray], np.ndarray],
             counts: np.ndarray, k: int) -> np.ndarray:
    """Cosines of integer Hamming ``counts`` out of ``k`` bits (Eqs. 4-5).

    A count ``h`` maps to the angle ``pi * h / k`` and then to its cosine,
    a fixed map for a given ``k``.  So ``cosine_unit`` -- any callable on
    an angle array, a :class:`CosineUnit` or a wrapper around one -- is
    called once on the ``k + 1`` grid angles and the result is gathered by
    count.  A batch with fewer counts than the grid has points is cheaper
    to evaluate directly, so it is (still in one call).  Either
    way the output is bit-identical to ``cosine_unit(np.pi * counts / k)``.

    Raises ``ValueError`` when a count lies outside ``[0, k]``: the gather
    would otherwise wrap a ``-1`` silently.
    """
    counts = np.asarray(counts)
    if not np.issubdtype(counts.dtype, np.integer):
        raise TypeError("digitise needs integer hamming counts")
    if counts.size and (counts.min() < 0 or counts.max() > k):
        raise ValueError(f"hamming counts must lie in [0, {k}]")
    if counts.size <= k:
        angles = np.pi * counts / k
        return np.asarray(cosine_unit(angles.ravel())).reshape(counts.shape)
    table = np.asarray(cosine_unit(np.pi * np.arange(k + 1) / k))
    return table[counts]

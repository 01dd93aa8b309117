"""The reference point and the ergodic average that runs report against.

``ReferencePoint`` holds the (near-)saddle reference a reference solve
returns, and ``ErgodicAverage`` the weighted running averages of the
iterates for which the O(1/N) rate statements hold; ``run`` measures a
matrix game by the primal-dual gap of that average.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["ReferencePoint", "ErgodicAverage"]


@dataclass
class ReferencePoint:
    """A (near-)saddle reference (x_bar, y_bar) with its measured prox
    fixed-point residual."""

    x_bar: np.ndarray
    y_bar: np.ndarray
    quality: float


class ErgodicAverage:
    """Weighted running average (X_j, Y_j) of extrapolated primal points and
    dual iterates.

    The primal average carries a head term delta*w_1*x_0 so that X_j is a
    convex combination of x_0 and the z_l. ``run`` feeds weights
    lambda_l with head delta for the base solver, beta_l*lambda_l with head
    delta for the accelerated one, 1 with head 1 for the fixed-step PDA and
    tau_l with head 1 for the linesearch PDA.
    """

    def __init__(self, head_point, delta):
        self.head_point = np.asarray(head_point, dtype=float).copy()
        self.delta = float(delta)
        self.head_weight = 0.0
        self.s_j = 0.0
        self.x_num = np.zeros_like(self.head_point)
        self.y_num = None
        self.updates = 0

    def update(self, weight, z, y):
        if not weight > 0:
            raise ValueError(f"ergodic weight must be positive; got {weight}")
        z = np.asarray(z, dtype=float)
        y = np.asarray(y, dtype=float)
        if self.updates == 0:
            self.head_weight = self.delta * weight
            self.y_num = np.zeros_like(y)
        self.s_j += weight
        self.x_num += weight * z
        self.y_num += weight * y
        self.updates += 1
        return self

    @property
    def X(self):
        if self.updates == 0:
            return self.head_point.copy()
        return (self.head_weight * self.head_point + self.x_num) / (self.head_weight + self.s_j)

    @property
    def Y(self):
        if self.updates == 0:
            raise ValueError("no dual updates accumulated yet")
        return self.y_num / self.s_j

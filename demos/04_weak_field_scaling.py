"""
Weak-field scaling of the frame-matching rotation
=================================================

In a weak central potential the metric deviates from flat space linearly
in the strength parameter epsilon, and so does the mismatch rotation
between the two detector frames.  Sweeping epsilon and reading off the
rotation angle shows the linear law directly: halving epsilon halves the
angle.
"""

import numpy as np

from eprgeo import Event, integrate_pair, make_spacetime
from eprgeo.frames import frame_field
from eprgeo.lorentz import rotation_axis_angle

DECAY = np.array([0.0, 3.0, 1.0, -0.5])
TAU = 4.0


def mismatch_angle(eps):
    st = make_spacetime("weak_field", {"epsilon": eps})
    n0 = frame_field(st, DECAY)

    def u(w):
        w = np.asarray(w, dtype=float)
        return n0 @ np.concatenate(([np.sqrt(1.0 + w @ w)], w))

    res = integrate_pair(
        st, Event(DECAY), u([0.5, 0.0, 0.0]), u([-0.3, 0.45, 0.0]), TAU, TAU
    )
    _, angle = rotation_axis_angle(res.relative_rotation)
    return angle


print("frame mismatch angle vs potential strength")
print(f"{'epsilon':>10} {'angle':>14} {'angle/epsilon':>14}")
angles = {}
for eps in (0.04, 0.02, 0.01, 0.005):
    angles[eps] = mismatch_angle(eps)
    print(f"{eps:10.3f} {angles[eps]:14.9f} {angles[eps] / eps:14.6f}")

print("\nsuccessive ratios (2 means the scaling is linear)")
pairs = [(0.04, 0.02), (0.02, 0.01), (0.01, 0.005)]
for big, small in pairs:
    print(f"  angle({big}) / angle({small}) = {angles[big] / angles[small]:.4f}")

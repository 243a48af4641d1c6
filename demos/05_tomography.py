"""Reconstruct Wigner functions from simulated homodyne tomography.

Phase-quadrature readout with strength chi_p measures the rotated position
marginal up to a Gaussian blur of variance 1/(2 chi_p^2).  Sixteen angles
and 1e5 samples per angle are enough to reconstruct the ground state with
correlation above 0.98 and to retain the Wigner negativity of a conditioned
superposition state end to end.
"""

import math
from pathlib import Path

import numpy as np

from optomech import measurement, protocol, states, wigner

OUT = Path("demo_out")
OUT.mkdir(exist_ok=True)

grid = states.default_grid()
ground = states.make_gaussian(grid, states.GaussianSpec("ground"))
angles = [k * math.pi / 16 for k in range(16)]
rng = np.random.default_rng(2026)

for name, state in (
        ("ground", ground),
        ("conditioned", measurement.condition_window(
            ground, 1.0, 0.0, measurement.OutcomeWindow(1.5, 0.8))[0])):
    recon, report = protocol.tomography(state, angles, chi_p=10.0,
                                        samples_per_angle=100_000, rng=rng)
    wigner.wigner_to_csv(recon, OUT / f"tomography_{name}.csv")
    print(f"{name} state reconstruction:")
    print(f"  correlation with true W : {report['correlation']:.4f}")
    print(f"  shot-noise blur variance: {report['blur_variance']:.4g} "
          "(reported, not deconvolved)")
    print(f"  min W                   : {report['min_w']:.4f}")
    print(f"  raw back-projection mass: {report['raw_integral']:.4f} "
          "(renormalized)")

print(f"\nreconstructions written to {OUT}/")

"""Monte-Carlo the preparation stage and check it against the closed form.

Ten thousand runs on the ground state: sample a homodyne outcome each run,
post-select on the window, and average the accepted conditional states.
The acceptance rate must match the closed-form window probability and the
accepted-ensemble average must converge to the windowed conditional state.
Also demonstrates the two-pulse sequence's momentum cancellation.
"""

import numpy as np

from optomech import measurement, protocol, states, wigner

window = measurement.OutcomeWindow(1.5, 0.8)
config = protocol.ProtocolConfig(
    initial=states.GaussianSpec("ground"), chi=1.0, window=window,
    n_runs=10_000, seed=42)

summary = protocol.run_protocol(config)
print(f"runs                  : {summary.n_runs}")
print(f"accepted              : {summary.n_accepted}")
print(f"acceptance rate       : {summary.acceptance_rate:.4f} "
      f"+/- {summary.acceptance_stderr:.4f}")
print(f"closed-form P(window) : {summary.closed_form_probability:.4f}")
w_mix = wigner.wigner_transform(summary.mean_state)
mix_min, mix_vol = wigner.negativity(w_mix)
print(f"mixture min W         : {mix_min:.4f}")
print(f"mixture neg. volume   : {mix_vol:.4f}")

grid = states.default_grid()
ground = states.make_gaussian(grid, states.GaussianSpec("ground"))
target, _ = measurement.condition_window(ground, 1.0, 0.0, window)
diff = (summary.mean_state.rho - target.rho) * grid.dx
trace_distance = 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(diff))))
print(f"trace distance to closed-form windowed state: {trace_distance:.4f} "
      f"(statistical bound {3 / np.sqrt(summary.n_accepted):.4f})")

# two-pulse sequence: kick, half period, kick; the mean momentum telescopes
two_pulse, joint_prob = protocol.two_pulse_prepare(
    ground, 1.0, 5.0, measurement.OutcomeWindow(1.5, 0.8))
mean_p = states.moments(two_pulse)[1]
w_min, _ = wigner.negativity(wigner.wigner_transform(two_pulse))
print(f"\ntwo-pulse sequence: joint P(window) = {joint_prob:.4f}, "
      f"residual <P> = {mean_p:.2e}, min W = {w_min:.4f}")

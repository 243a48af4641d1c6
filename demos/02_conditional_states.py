"""Conditional non-Gaussian state preparation on three Gaussian inputs.

Builds the nine-panel grid (initial / windowed-conditional / unconditional
for ground, thermal nbar = 2, and momentum-squeezed r = 0.5 inputs), prints
acceptance probabilities and Wigner negativity for each, and exports the
Wigner grids as gnuplot-compatible CSV.  The negativity column shows the
quantum-to-classical transition: strong fringes for pure inputs, none left
for the thermal input or when outcomes are ignored.
"""

from pathlib import Path

from optomech import measurement, states, wigner

OUT = Path("demo_out")
OUT.mkdir(exist_ok=True)

grid = states.default_grid()
specs = {
    "ground": (states.GaussianSpec("ground"), 1.5),
    "thermal_n2": (states.GaussianSpec("thermal", nbar=2.0), 1.5),
    "squeezed_r0.5": (states.GaussianSpec("momentum_squeezed", r=0.5), 6.4),
}
inputs = {name: (states.make_gaussian(grid, spec), center)
          for name, (spec, center) in specs.items()}

print(f"{'input':<14} {'panel':<14} {'P(window)':>10} {'min W':>12} "
      f"{'neg. volume':>12} {'separation':>11}")
for name, (state, center) in inputs.items():
    window = measurement.OutcomeWindow(center, 0.8)
    conditioned, prob = measurement.condition_window(state, 1.0, 0.0, window)
    unconditional = measurement.uncondition(state, 1.0, 0.0)
    for panel, st, p in (("initial", state, None),
                         ("conditional", conditioned, prob),
                         ("unconditional", unconditional, None)):
        w = wigner.wigner_transform(st)
        w_min, volume = wigner.negativity(w)
        try:
            delta = wigner.measure_separation(st)
            sep = "-" if delta is None else f"{delta:.3f}"
        except Exception:
            sep = "?"
        prob_str = f"{100 * p:.1f} %" if p is not None else ""
        print(f"{name:<14} {panel:<14} {prob_str:>10} {w_min:>12.3e} "
              f"{volume:>12.3e} {sep:>11}")
        label = f"{name}_{panel}"
        wigner.wigner_to_csv(w, OUT / f"wigner_{label}.csv")
        (OUT / f"wigner_{label}.json").write_text(
            wigner.wigner_sidecar_json(w, label))

print(f"\nWigner grids written to {OUT}/ "
      "(gnuplot: splot 'file.csv' nonuniform matrix with pm3d)")

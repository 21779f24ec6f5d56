"""Generate physically consistent reaction-diffusion fields from a flow model.

A space-time field v(s, t) solves a 1-D diffusion-plus-logistic-reaction
equation. We simulate a small dataset of solutions, hold the first one out,
and fit nothing: the remaining solutions become an empirical flow target.
Sampling from it unconstrained produces fields that look right but violate
the physics bookkeeping; sampling with pathwise constraint transport pins the
initial condition and enforces the integral mass balance of every time slice
to the solver's own tolerance.

Run:  python3 demos/reaction_diffusion_recovery.py [--seed N] [--samples N]
"""

import argparse

import numpy as np

from chanceflow import (EmpiricalTarget, FlowModel, GnConfig, RdGrid,
                        SamplerConfig, moment_errors, rd_constraints, rd_dataset,
                        rd_violation_split, run_batch)

ASCII_LEVELS = " .:-=+*#%@"


def ascii_field(field: np.ndarray, grid: RdGrid, lo: float, hi: float) -> str:
    """Rough stdout rendering: rows are time frames, columns space cells."""
    frames = field.reshape(grid.n_t, grid.n_s)
    span = hi - lo if hi > lo else 1.0
    lines = []
    for k, frame in enumerate(frames):
        scaled = np.clip((frame - lo) / span, 0.0, 1.0)
        idx = (scaled * (len(ASCII_LEVELS) - 1)).astype(int)
        lines.append(f"  t{k:<2d} |" + "".join(ASCII_LEVELS[i] for i in idx) + "|")
    return "\n".join(lines)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--samples", type=int, default=24)
    parser.add_argument("--fields", type=int, default=12)
    args = parser.parse_args()

    grid = RdGrid(n_s=16, n_t=10, dt_phys=0.25)
    fields, problems = rd_dataset(grid, args.fields, args.seed)
    held_out, problem = fields[:1], problems[0]
    model = FlowModel(EmpiricalTarget(fields[1:]))
    cs = rd_constraints(problem)

    print(f"grid {grid.n_s} cells x {grid.n_t} frames ({grid.d} dims), "
          f"{args.fields - 1} training fields, problem 0 held out")
    print(f"constraints: {grid.n_s} initial-condition bands + "
          f"{cs.n_faces - 2 * grid.n_s} mass-balance faces, "
          f"tolerance {problem.delta:g}\n")

    rows = []
    for label, constrained in (("vanilla", False), ("ccfm/pathwise", True)):
        cfg = SamplerConfig(algorithm="ccfm" if constrained else "vanilla",
                            n_steps=50, mode="pathwise", seed=args.seed,
                            samples=args.samples, gn=GnConfig(max_iters=1),
                            final_budget=30)
        records = run_batch(model, cs if constrained else None, cfg)
        finals = np.stack([r.x1 for r in records])
        rows.append((label, *moment_errors(finals, held_out),
                     *rd_violation_split(finals, cs)))

    print("sampler          mean-MSE    std-MSE     worst IC    worst mass")
    print("-" * 66)
    for label, mmse, smse, cv_ic, cv_cl in rows:
        print(f"{label:<15} {mmse:9.4f}  {smse:9.4f}   {cv_ic:9.2e}   {cv_cl:9.2e}")

    cfg = SamplerConfig(algorithm="ccfm", n_steps=50, mode="pathwise",
                        seed=args.seed, samples=1, gn=GnConfig(max_iters=1),
                        final_budget=30)
    sample = run_batch(model, cs, cfg)[0].x1
    lo = float(min(held_out.min(), sample.min()))
    hi = float(max(held_out.max(), sample.max()))
    print("\nheld-out solution (rows = time, columns = space):")
    print(ascii_field(held_out[0], grid, lo, hi))
    print("\none constrained sample, same shading (note the matching t0 row):")
    print(ascii_field(sample, grid, lo, hi))
    print("\nthe constrained batch matches the held-out statistics while its")
    print("initial frame and per-frame mass budgets are exact to tolerance;")
    print("the unconstrained batch drifts on both.")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

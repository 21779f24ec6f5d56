"""Walk through chance-constraint tightening on a single halfspace.

The marginal state of a linear-path flow at time t is x_t = t*x1 + (1-t)*x0
with standard-normal x0, so requiring a.x1 <= b with probability p is the
same as requiring a.x_t <= t*b - t*sigma(t)*||a||*z_p on today's state. This
script prints that moving boundary for a few schedules, Monte-Carlo checks
that a state sitting exactly on it satisfies the terminal constraint with the
scheduled probability, and shows the margin vanishing identically at t = 1.

Run:  python3 demos/tightening_walkthrough.py [--seed N] [--trials N]
"""

import argparse
import math

import numpy as np

from chanceflow import (LinearBand, LinearIneq, Scheduler, mc_chance,
                        normal_quantile, sigma_of_t, stream_rng, tighten_set)
from chanceflow.constraints import ConstraintSet


def boundary_table(b: float, schedules) -> None:
    cs = ConstraintSet((LinearIneq(np.array([1.0, 0.0]), b),))
    times = (0.05, 0.2, 0.4, 0.6, 0.8, 0.95, 1.0)
    header = "    t   sigma(t) " + "".join(f"  n={s.n:<7g}" for s in schedules)
    print(header)
    print("-" * len(header))
    for t in times:
        cells = []
        for sched in schedules:
            members = tighten_set(cs, t, sched, "marginal").members
            cells.append(f" {members[0].b:+8.4f} " if members else " inactive ")
        print(f"  {t:4.2f}  {sigma_of_t(t):8.3f} " + "".join(cells))
    print(f"\nevery column ends at rhs = b = {b} exactly: the margin is "
          "t*sigma(t)*||a||*z and sigma(1) = 0, no rounding involved.")


def check_boundary_probability(b: float, t: float, n: float, seed: int,
                               trials: int) -> None:
    """Place x_t on the tightened boundary and measure P(a.x1 <= b)."""
    sched = Scheduler(n)
    c = LinearIneq(np.array([1.0, 0.0]), b)
    (tc,) = tighten_set(ConstraintSet((c,)), t, sched, "marginal").members
    x_t = tc.b * tc.a / float(tc.a @ tc.a)
    est = mc_chance(c, x_t, t, trials, stream_rng(seed, 0))
    print(f"\nn={n}, t={t}: scheduled probability phi(t) = {sched.phi(t):.6f}")
    print(f"  state on the boundary -> measured P(a.x1 <= b) = "
          f"{est.p_hat:.6f} +/- {est.stderr:.6f}  "
          f"({abs(est.p_hat - sched.phi(t)) / est.stderr:.2f} stderr off)")


def quadratic_collapse(t: float, n: float) -> None:
    """The two-sided surrogate of ||x1||^2-type constraints shrinks to a point
    exactly when the radius matches the scheduled noise margin. A config's
    quadratic (a.x)^2 <= b is the band |a.x| <= sqrt(b), built here the same
    way."""
    sched = Scheduler(n)
    a = np.array([1.0, 0.0])
    z = normal_quantile((1.0 + sched.phi(t)) / 2.0)
    crit = (sigma_of_t(t) * z) ** 2
    print(f"\nquadratic (a.x1)^2 <= b at t={t}, n={n}: critical b = {crit:.6f}")
    for scale, label in ((0.5, "below critical"), (1.0, "at critical"), (2.0, "above critical")):
        root = math.sqrt(scale * crit)
        cs = ConstraintSet((LinearBand(a, -root, root),))
        members = tighten_set(cs, t, sched, "marginal").members
        if not members:
            print(f"  b = {scale:.1f}*crit ({label:>14}): inactive this step")
        else:
            upper = members[1]
            print(f"  b = {scale:.1f}*crit ({label:>14}): |a.x_t| <= {upper.b:.6f}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trials", type=int, default=200_000)
    args = parser.parse_args()

    print("tightened boundary of a.x1 <= b with a = (1, 0), b = 0.5\n")
    boundary_table(0.5, (Scheduler(0.5), Scheduler(1.0), Scheduler(4.0)))
    for t in (0.3, 0.6, 0.9):
        check_boundary_probability(0.5, t, 0.5, args.seed, args.trials)
    quadratic_collapse(0.6, 0.5)
    print("\nbelow the critical radius nothing is enforceable yet, so the "
          "step is skipped\nrather than over-corrected; the band reappears "
          "once the noise has decayed.")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

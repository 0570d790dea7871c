"""Self-gravitating N-body dynamics with FMM forces and plan patching.

Uses the dual-kernel path — expansions built once per step with the
Laplace kernel, forces read out with the Laplace *gradient* kernel — to
drive a leapfrog (kick-drift-kick) integrator.  A compact satellite
sub-cluster (5% of the points) falls through a static Plummer halo, the
classic rigid-background approximation: only the satellite moves, so
each step is the bounded-motion regime plan patching targets.  Instead
of compiling the evaluation plan from scratch every step, the example
calls :meth:`~repro.core.fmm.Fmm.update_plan` (tree rebuilt and diffed
against the old one) and :meth:`~repro.core.fmm.Fmm.patch_eval_plan`
(kernel-matrix reuse for every untouched box).  It prints per step the
seconds of both paths, each timed through its first apply (the apply
that fills the kernel blocks a compile or a patch left empty); the
first step also bit-compares the two answers.

Run:  python examples/nbody_dynamics.py
"""

import time

import numpy as np

from repro import Fmm
from repro.datasets import plummer_cluster
from repro.kernels.gradients import LaplaceGradientKernel

G4PI = 4.0 * np.pi  # cancels the kernel's 1/(4 pi) so G = 1


def total_energy(fmm_pot, pos, vel, mass, plan=None, eval_plan=None):
    phi = -G4PI * fmm_pot.evaluate(pos, mass, plan=plan, eval_plan=eval_plan)
    kinetic = 0.5 * float(mass @ (vel**2).sum(axis=1))
    potential = 0.5 * float(mass @ phi)
    return kinetic + potential


def main() -> None:
    n_halo, n_sat, steps, dt, eps = 3800, 200, 8, 2e-4, 0.02
    n = n_halo + n_sat
    rng = np.random.default_rng(12)
    halo = plummer_cluster(n_halo, seed=12, scale=0.05)
    # compact satellite, offset from the halo centre, falling inward
    sat = plummer_cluster(n_sat, seed=13, scale=0.008) + 0.22
    pos = np.clip(np.vstack([halo, sat]), 1e-9, 1 - 1e-9)
    mass = np.full(n, 1.0 / n)
    moving = np.arange(n_halo, n)  # only the satellite integrates
    vel = np.zeros((n, 3))
    vel[moving] = 0.05 * rng.standard_normal((n_sat, 3)) - 0.08

    from repro.kernels import LaplaceKernel

    fmm_force = Fmm(LaplaceKernel(softening=eps), order=6,
                    max_points_per_box=50,
                    eval_kernel=LaplaceGradientKernel(softening=eps))
    fmm_pot = Fmm(LaplaceKernel(softening=eps), order=6,
                  max_points_per_box=50)

    plan = fmm_force.plan(pos)
    eplan = fmm_force.compile_eval_plan(plan)
    e0 = total_energy(fmm_pot, pos, vel, mass)
    print(f"N={n} Plummer halo + {n_sat}-body satellite, leapfrog dt={dt}, "
          f"{steps} steps")
    print(f"initial energy E0 = {e0:.6f}")

    def accel(pos, plan, eplan):
        g = fmm_force.evaluate(pos, mass,
                               plan=plan, eval_plan=eplan).reshape(-1, 3)
        return -G4PI * g  # a = -grad(Phi), Phi = -G sum m/r

    acc = accel(pos, plan, eplan)
    t_patch_total = t_full_total = 0.0
    for step in range(steps):
        vel[moving] += 0.5 * dt * acc[moving]  # kick (satellite only)
        pos = pos.copy()
        pos[moving] = np.clip(pos[moving] + dt * vel[moving],
                              1e-9, 1 - 1e-9)  # drift

        # the patched path: rebuild and diff the tree, reuse every
        # untouched kernel block, then the first apply fills the rest
        t0 = time.perf_counter()
        new_plan, delta = fmm_force.update_plan(plan, pos, moved=moving)
        eplan = fmm_force.patch_eval_plan(eplan, plan, new_plan, delta=delta)
        plan = new_plan
        acc = accel(pos, plan, eplan)
        t_patch = time.perf_counter() - t0

        # the same step from scratch, also through its first apply (and,
        # on the first step, a bitwise identity check of the two answers)
        t0 = time.perf_counter()
        ref_plan = fmm_force.plan(pos)
        ref = accel(pos, ref_plan, fmm_force.compile_eval_plan(ref_plan))
        t_full = time.perf_counter() - t0
        t_patch_total += t_patch
        t_full_total += t_full
        if step == 0:
            assert np.array_equal(acc, ref), "patched plan diverged"
            print("step 1: patched plan bit-identical to fresh rebuild")
        vel[moving] += 0.5 * dt * acc[moving]  # kick

        print(f"step {step + 1}: update + patch + first apply "
              f"{t_patch * 1e3:.0f} ms (plan + compile + first apply "
              f"{t_full * 1e3:.0f} ms, {t_full / max(t_patch, 1e-12):.1f}x)")

    e1 = total_energy(fmm_pot, pos, vel, mass)
    drift = abs(e1 - e0) / abs(e0)
    print(f"relative energy drift after {steps} steps: {drift:.2e}")
    print(f"geometry updates: {t_patch_total:.2f}s patched vs "
          f"{t_full_total:.2f}s from scratch "
          f"({t_full_total / max(t_patch_total, 1e-12):.1f}x)")


if __name__ == "__main__":
    main()

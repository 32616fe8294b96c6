#!/usr/bin/env python3
"""Full deviation harness for one game: encoder side, jammer side, and the
sign-parameter exploit, with margins printed in standard errors."""

import argparse

import jamlab as jl
from jamlab.gamesim import (CorrelatedJammer, bernoulli_exploit_check,
                            default_lhs_jammers, saddle_profile, simulate,
                            verify_lhs_inequality, verify_rhs_inequality)
from jamlab.matching import JammingGameConfig


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trials", type=int, default=1_000_000)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--source", default="gaussian",
                        choices=["gaussian", "laplace", "uniform"])
    parser.add_argument("--rho", type=float, default=0.7)
    args = parser.parse_args()

    make = {"gaussian": jl.gaussian, "laplace": jl.laplace,
            "uniform": jl.uniform}[args.source]
    cfg = JammingGameConfig(make(1.0), jl.gaussian(1.0), 1.0, 1.0)
    print(f"game: {args.source} source, gaussian noise, "
          f"P_T=P_A=var_N=1, J={cfg.saddle_cost:.6f}")

    out = simulate(cfg, saddle_profile(cfg), args.trials, args.seed)
    print(f"saddle profile: cost={out.empirical_cost:.6f} "
          f"(z={out.z_score:+.2f} at {args.trials} trials)")

    print("\nencoder deviations (must not beat the saddle value):")
    for e in verify_rhs_inequality(cfg, args.trials, args.seed).entries:
        print(f"  {e.label:<18} cost={e.outcome.empirical_cost:.6f} "
              f"margin={e.margin:+7.1f} SE  {'ok' if e.passed else 'VIOLATED'}")

    print("\njammer deviations (must not exceed the saddle value):")
    jammers = default_lhs_jammers(cfg, args.rho)
    for e in verify_lhs_inequality(cfg, args.trials, args.seed, jammers).entries:
        print(f"  {e.label:<22} cost={e.outcome.empirical_cost:.6f} "
              f"margin={e.margin:+7.1f} SE  {'ok' if e.passed else 'VIOLATED'}")

    print("\nsign-parameter sweep against the correlated jammer:")
    rep = bernoulli_exploit_check(cfg, [0.0, 0.25, 0.5, 0.75, 1.0],
                                  CorrelatedJammer(args.rho, jl.gaussian(1.0)),
                                  args.trials, args.seed)
    for e in rep.entries:
        print(f"  p={e.p:<5g} cost={e.outcome.empirical_cost:.6f} "
              f"(second-moment prediction {e.expected_cost:.6f})")


if __name__ == "__main__":
    main()

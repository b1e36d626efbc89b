#!/usr/bin/env python3
"""Demo: pinning single bubbles on admissible points and reading their index.

For each admissible concentration point (critical point of K with negative
Laplacian) the scale line of the reduced functional dips to an interior
equilibrium: concentration is penalized by the subcritical defect but
rewarded by the local curvature well.  Seeding a bubble there and polishing
with the parameter-space flow lands on a genuine critical point whose Morse
index matches the co-index of the underlying point -- maxima pin stable
bubbles, cols pin index-1 saddles.

Example:
    python3 demos/pin_and_classify.py
"""

from morsecount import (
    Bubble,
    BubbleSum,
    equilibrium_scale,
    find_critical_points,
    flow_to_critical,
    k_infinity_points,
    load_preset,
)
from morsecount.sphere import geodesic_distance

TAU = 0.05


def banner(text):
    print("=" * 72)
    print(text)
    print("=" * 72)


if __name__ == "__main__":
    K = load_preset("three-bump-s3")
    targets = k_infinity_points(find_critical_points(K))

    banner(f"{len(targets)} admissible points on the three-bump candidate")
    # seeds start near-stationary by construction, so the Newton flow
    # converges to the saddle-type points as well as to the maxima
    for pt in targets:
        center = pt.location
        iota = pt.co_index
        lam_bar = equilibrium_scale(K, center, TAU)
        if lam_bar is None:
            print(f"co-index {iota}: no pinned scale (well too shallow)")
            continue
        seed = BubbleSum(
            n=3,
            bubbles=(Bubble(center=center, lam=lam_bar),),
            alphas=(1.0,),
            tau=TAU,
        )
        final, rep = flow_to_critical(seed, K)
        est = rep.morse_index()
        drift = geodesic_distance(final.bubbles[0].center, center)
        print(
            f"co-index {iota}: equilibrium scale {lam_bar:6.2f} -> {rep.status} "
            f"in {rep.steps} steps, drift {drift:.1e}, "
            f"index {est.index} ({'clean' if est.conclusive else 'noisy'})"
        )
        print(f"    spectrum: {['%+.3f' % e for e in est.eigenvalues]}")
    print()
    print("three maxima pin index-0 bubbles, the col pins an index-1 saddle:")
    print("the reduced landscape mirrors the curvature candidate exactly.")

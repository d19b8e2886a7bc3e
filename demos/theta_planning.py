"""Planning a RoPE theta base for a target context length.

Walks the lower-bound curve, classifies the candidate bases used while
extending a 7B model to half a million tokens, and shows the per-dimension
rotation picture that explains why "bigger theta" is not free.
"""

from longctx.rope import RopeConfig, plan_theta, rotation_report, theta_lower_bound

print("=== The lower-bound curve ===")
for L in (32_768, 65_536, 131_072, 262_144, 524_288, 1_048_576):
    print(f"  context {L:>9,d} tokens -> minimum theta ~ {theta_lower_bound(L):12,.0f}")

print()
print("=== Classifying the historical candidates at 512K ===")
plan = plan_theta(524_288, [25e6, 75e6, 100e6], head_dim=128)
print(f"  bound at 524,288 tokens: {plan.lower_bound:,.0f}")
for cand in plan.candidates:
    print(
        f"  theta {cand.theta:12,.0f}  ratio {cand.bound_ratio:5.2f}  "
        f"rotations complete {cand.fraction_complete:6.1%}  -> {cand.classification.value}"
    )
print(f"  recommended: {plan.recommended:,.0f}")
print()
print("  25M worked for 256K training but misses the 512K bound by 3.5x;")
print("  75M sits just under the analytic curve and is the smallest workable pick.")

print()
print("=== Why far-above-bound hurts: rotation completeness ===")
# At a 600K training length the gap between 75M and 100M becomes visible:
# one more dimension pair never completes a full rotation.
for theta in (75e6, 100e6):
    cfg = RopeConfig(theta_base=theta, head_dim=128, max_position=600_000)
    report = rotation_report(cfg)
    first_incomplete = report.complete.tolist().index(False)
    print(
        f"  theta {theta:12,.0f}: {report.fraction_complete:6.1%} complete, "
        f"first incomplete pair {first_incomplete}, longest wavelength "
        f"{report.wavelength[-1]:,.0f} tokens"
    )
print()
print("  Dimensions that never wrap see only a sliver of their phase space")
print("  during training; endpoints of the sequence are where that shows up.")

#!/usr/bin/env python3
"""Memory sharing across popularity levels in the multi-user setup.

Shows how the level partition (no memory / partial / fully stored) and the
per-level memory amounts evolve with the cache size, and checks the
per-level rates against their closed-form caps.
"""

from fractions import Fraction

from cachelab import (SystemConfig, level_rate_bounds, rate_memory_sharing,
                      rate_single_level)

# Three levels, popularities separated by the regularity factor 6400.
config = SystemConfig.multi_user(8, [(16, 2), (204800, 2), (1310720000, 1)])
total = config.total_files
print("levels (files, users/cache):",
      [(lv.files, lv.users) for lv in config.levels])
print(f"caches: {config.caches}, total library: {total} files\n")

print(f"{'M':>12} {'H':>6} {'I':>8} {'J':>6} {'rate':>14}")
for k in (0, 1, 2, 4, 8, 12, 15, 16):
    M = Fraction(total) * k / 16
    report = rate_memory_sharing(config, M)
    part = report.partition
    print(f"{float(M):>12.4g} {str(sorted(part.H)):>6} {str(sorted(part.I)):>8} "
          f"{str(sorted(part.J)):>6} {float(report.achievable):>14.6g}")

M = Fraction(total, 64)
allocation = rate_memory_sharing(config, M).allocation
print(f"\nallocation at M = {float(M):g}:")
for idx, (lv, amount) in enumerate(zip(config.levels, allocation.amounts)):
    share = float(amount) / float(M) if M else 0.0
    print(f"  level {idx}: {float(amount):>14.6g} file units "
          f"({share:6.1%} of the cache) of {lv.files} files")

print("\nper-level achieved rate vs cap:")
caps = level_rate_bounds(config, M)
for idx, (lv, amount, cap) in enumerate(zip(config.levels, allocation.amounts, caps)):
    achieved = rate_single_level(amount, config.caches, lv.files, lv.users)
    print(f"  level {idx}: {float(achieved):>12.6g} <= {float(cap):<12.6g}")

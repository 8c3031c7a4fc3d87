"""Running verification suites programmatically.

The `verify` CLI wraps the same machinery: seeded sweeps grouped into named
suites, each check recorded as (name, seed, N, residual, tolerance).  Here
we run a small selection in-process and print the report summary plus the
convergence table for the d(alpha) identity.
"""

from torusgeom.suites import SuiteConfig, convergence_table, run_suites

config = SuiteConfig(
    grid_sizes=(32, 48, 64),
    seeds=tuple(range(10)),
    kmax=4,
    suites=("kobayashi", "lemma1", "convergence"),
)

report = run_suites(config)
body = report.to_dict()
print("overall pass:", body["summary"]["overall_pass"],
      f"({body['summary']['passed']}/{body['summary']['total']} checks,",
      f"{body['summary']['wall_time']:.1f}s)")

worst = max(body["records"], key=lambda r: r["residual"] / r["tolerance"])
print("\nclosest call:", worst["suite"], "/", worst["name"],
      f"seed={worst['seed']} N={worst['n']}:",
      f"residual {worst['residual']:.3e} vs tolerance {worst['tolerance']:.1e}")

print("\nconvergence table (residual vs N):")
print(convergence_table(report))

# a single failing record would be reproducible from the command line, with
# this config written to cfg.json, as
#   verify --config cfg.json --record lemma1_equality:3:64 --out rerun.json

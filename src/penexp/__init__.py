"""Penalized regression estimators, their first-order expansions, and a
seeded simulation harness for checking error rates, risk identities,
confidence-interval coverage, cone membership and sparsity.

The package root exports nothing: import each object from its module, as in
penexp.solver.fit_penalized."""

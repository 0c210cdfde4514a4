"""Coalescents from normalized heavy-tailed sampling.

Monte Carlo estimators for the finite-population merger process, exact
limit rate tables and transition matrices, simulators for the limiting
coalescents, stable-limit scaling constants for heavy-tailed sums, and the
forward branching model with top-N selection whose genealogy these
coalescents describe. Each name is imported from the module that defines
it (`finite_mc`, `rates`, `samplers`, `simulate`, `forward`, `regression`,
`weighted`); the package itself holds only `__version__`.
"""

__version__ = "0.1.0"

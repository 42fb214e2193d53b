"""Exact computation of Schubert, Grothendieck, Lascoux, and key polynomials.

Three independent routes to the same polynomials (divided-difference
recursion, pipe-dream weight sums, orthodontia operator formulas), plus
expansion in the Lascoux basis with graded-positivity verdicts.

The package exports its modules, not their names: import a submodule
(``from orthodontia import families``), so that a process loads only the
engine it runs.  ``__version__`` is the one source of the package version.
"""

__version__ = "0.1.0"

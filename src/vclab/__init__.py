"""vclab: an exact-arithmetic laboratory for VC dimensions of translate
families, epsilon-approximations, shattering certificates on fat Cantor
pairs, and border-measure experiments."""

__version__ = "0.1.0"

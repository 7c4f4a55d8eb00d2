"""Exact-arithmetic toolkit for nonsymmetric versions of binary quadratic operads.

Submodules:
  exactlin   the one exact elimination kernel, absorb, and the RREF and
             spans built on it (the criterion's one elimination per space),
             with intersections and null spaces as general tools
  arity3     free arity-3 module, S3 action, operad catalog
  manin      the nonsymmetric versions, the white product with As (their
             S3-closure, by permuting rows) and the nonsymmetric-version
             criterion
  treeterm   planar trees: the one grammar enumerator, rewriting on the
             rule automaton, overlaps, confluence certification on the same
             engine
  systems    the Zin / Bicom / Flex / AntiFlex / L systems, their grammars
             and counts, and the nonsymmetric versions as planar relations
  oracle     brute-force dimension computation (trust anchor)
  bijections normal forms vs binary trees, lattice words, L-trees
  cli        batch command-line front end
"""

from . import arity3, bijections, exactlin, manin, oracle, systems, treeterm

__all__ = ["arity3", "bijections", "exactlin", "manin", "oracle", "systems",
           "treeterm"]
__version__ = "0.1.0"

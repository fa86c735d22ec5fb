"""Combinatorics of real Borel orbits on split spherical homogeneous spaces.

The library computes, from combinatorial input data:

* elementary divisors of a weight-lattice inclusion and the resulting count
  and sign coordinates of open real Borel orbits (:mod:`borelorbits.lattice`);
* Cartan matrices, Coxeter exponents and simple-reflection matrices
  (:mod:`borelorbits.rootdata`);
* reflection operators on finite orbit sets with the eight real edge types,
  braid-relation verification, and orbit enumeration under subgroups of
  reflections (:mod:`borelorbits.orbits`);
* the signed-pattern model of Borel orbits on quadratic forms, whose
  real-group orbit classes recover the inertia classification
  (:mod:`borelorbits.patterns`);
* ready-made tables for the ordered/unordered isotropic-pair families and
  the torus sign-flip (counter)examples (:mod:`borelorbits.catalog`).
"""

from .catalog import (
    CatalogExample,
    ExampleSpec,
    build_example,
    build_g2_case,
    build_ordered_pairs,
    build_torus_counterexample,
    build_unordered_pairs,
)
from .lattice import (
    DivisorList,
    IntegerMatrix,
    SnfDecomposition,
    count_open_real_orbits,
    elementary_divisors,
    sign_coordinates,
    smith_normal_form,
)
from .orbits import (
    BraidPair,
    BraidReport,
    EdgeType,
    Orbit,
    ReflectionTable,
    Span,
    TypeCensus,
)
from .patterns import (
    SignedPattern,
    SylvesterClass,
    build_complex_table,
    build_table,
    enumerate_patterns,
    pattern_count,
    sylvester_classes,
)
from .rootdata import CartanSpec, SphericalDatum

__version__ = "0.1.0"

__all__ = [
    "BraidPair", "BraidReport", "CartanSpec", "CatalogExample", "DivisorList", "EdgeType",
    "ExampleSpec", "IntegerMatrix", "Orbit", "ReflectionTable", "SignedPattern",
    "SnfDecomposition", "Span", "SphericalDatum", "SylvesterClass", "TypeCensus",
    "build_complex_table", "build_example", "build_g2_case", "build_ordered_pairs", "build_table",
    "build_torus_counterexample", "build_unordered_pairs", "count_open_real_orbits",
    "elementary_divisors", "enumerate_patterns", "pattern_count", "sign_coordinates",
    "smith_normal_form", "sylvester_classes",
]

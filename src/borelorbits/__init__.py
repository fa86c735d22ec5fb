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

The submodules are loaded lazily: each is in ``sys.modules`` and is an
attribute of the package from the start, but its code runs on the first use
of one of its attributes, so a command runs only the modules it calls.
"""

__version__ = "0.1.0"

# The catalog's example families, here so that the CLI parser can list them
# without running the catalog module.
EXAMPLE_NAMES = ("ordered_pairs", "unordered_pairs", "torus_counterexample", "g2_case")

# Each re-exported name and the submodule that defines it.
_ORIGIN = {
    name: module
    for module, names in {
        "catalog": "CatalogExample build_example build_g2_case build_ordered_pairs "
        "build_torus_counterexample build_unordered_pairs",
        "lattice": "DivisorList IntegerMatrix SnfDecomposition count_open_real_orbits "
        "elementary_divisors sign_coordinates smith_normal_form",
        "orbits": "BraidPair BraidReport EdgeType Orbit ReflectionTable Span TypeCensus",
        "patterns": "SignedPattern SylvesterClass build_complex_table build_table "
        "enumerate_patterns pattern_count sylvester_classes",
        "rootdata": "CartanSpec SphericalDatum",
    }.items()
    for name in names.split()
}
__all__ = sorted(_ORIGIN)


class _Record:
    """A frozen record: its fields are its ``__slots__``, ``_defaults`` gives the optional ones
    and ``_compare`` those that equality and hashing read (all when empty).  Unlike a standard
    data class, it costs a command no imports and no generated code at start-up."""

    __slots__ = ()
    _defaults: dict = {}
    _compare: tuple = ()

    def __init__(self, *args, **kwargs):
        fields = self.__slots__
        values = dict(self._defaults, **dict(zip(fields, args)), **kwargs)
        if len(args) > len(fields) or values.keys() != set(fields):
            raise TypeError(f"{type(self).__name__}() takes the fields {', '.join(fields)}")
        for name in fields:
            object.__setattr__(self, name, values[name])
        self.__post_init__()

    def __post_init__(self) -> None:
        """Check or normalize the fields, with ``object.__setattr__``; nothing here."""

    def _key(self) -> tuple:
        return tuple(map(self.__getattribute__, self._compare or self.__slots__))

    def __eq__(self, other):
        return self._key() == other._key() if type(other) is type(self) else NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self):
        return type(self), tuple(map(self.__getattribute__, self.__slots__))


def _shown(value) -> str:
    """The repr of ``value`` for a refusal, cut to 60 characters and ``...``: input has any size."""
    return text if len(text := repr(value)) <= 60 else text[:60] + "..."


def _as_int(x, what: str = "matrix entries") -> int:
    """``x`` if it is an exact integer (bools excluded), else a ValueError naming ``what``."""
    if isinstance(x, bool) or not isinstance(x, int):
        raise ValueError(f"{what} must be exact integers, got {_shown(x)}")
    return x


def _check_int_rows(rows, what: str = "matrix entries") -> None:
    """Refuse ``rows`` as :func:`_as_int` does their first bad entry; plain int rows pass whole."""
    for row in rows:
        if not set(map(type, row)) <= {int}:
            for x in row:
                _as_int(x, what)


def _register_lazily(names) -> None:
    """Put each submodule in ``sys.modules`` and the package without running its code."""
    import importlib.util
    import sys

    for name in names:
        spec = importlib.util.find_spec(f"{__name__}.{name}")
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = globals()[name] = module
        spec.loader.exec_module(module)


_register_lazily(sorted(set(_ORIGIN.values())))


def __getattr__(name: str):
    if name not in _ORIGIN:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[_ORIGIN[name]], name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})

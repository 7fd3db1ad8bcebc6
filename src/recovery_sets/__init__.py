"""Disjoint recovery sets for subspaces stored on simplex-code servers.

Each server holds one 1-subspace of F_q^k (a point of PG(k-1,q), a
column of the simplex code generator matrix); a recovery set for a
d-subspace U is a set of servers whose points span a space containing U.
This package constructs maximum families of pairwise disjoint recovery
sets, bounds their size in closed form, and cross-checks everything with
exact brute-force oracles at desk scale.

`import recovery_sets` loads no submodule.  Each public name below is
imported from its submodule the first time it is read (PEP 562), so a
caller, the CLI's commands included, compiles only the modules it uses.
"""

__version__ = "0.1.0"

# submodule -> the public names it defines; the submodule names are public too
_NAMES = {
    "field_core": (
        "ExtField", "PrimeField", "Subspace", "extension", "field", "find_primitive_poly",
    ),
    "geometry": (
        "Layout", "binary_line_partition", "canonical_point", "canonical_target",
        "enumerate_points", "full_spread", "hamming_partition", "lifted_partial_spread",
    ),
    "constructions": (
        "RecoveryFamily", "basic_sets_from_Td", "conjugate_family", "construct",
    ),
    "verifier": ("Certificate", "verify_family"),
    "bounds": ("BoundsRecord", "bound", "bound_table"),
    "ilp": ("DualSolution", "IlpModel", "build_ilp_d2", "check_dual", "export_model", "solve_ilp"),
    "oracle": ("OracleResult", "SearchConfig", "exact_N", "minimal_recovery_sets"),
}
_SOURCES = {name: module for module, names in _NAMES.items() for name in names}

__all__ = sorted([*_NAMES, *_SOURCES])


def __getattr__(name: str):
    from importlib import import_module

    if name in _NAMES:
        value = import_module(f"{__name__}.{name}")
    elif name in _SOURCES:
        value = getattr(import_module(f"{__name__}.{_SOURCES[name]}"), name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})

"""What `import recovery_sets` and each CLI command load, and the package's
public names, which resolve on first access."""

import json
import os
import subprocess
import sys
from types import ModuleType

import pytest

import recovery_sets

SRC = os.path.dirname(os.path.dirname(os.path.abspath(recovery_sets.__file__)))

PUBLIC_NAMES = [
    "BoundsRecord", "Certificate", "DualSolution", "ExtField", "IlpModel", "Layout",
    "OracleResult", "PrimeField", "RecoveryFamily", "SearchConfig",
    "Subspace", "basic_sets_from_Td", "binary_line_partition", "bound", "bound_table", "bounds",
    "build_ilp_d2", "canonical_point", "canonical_target", "check_dual", "conjugate_family",
    "construct", "constructions", "enumerate_points", "exact_N", "export_model", "extension",
    "field", "field_core", "find_primitive_poly", "full_spread",
    "geometry", "hamming_partition", "ilp", "lifted_partial_spread", "minimal_recovery_sets",
    "oracle", "solve_ilp", "verifier", "verify_family",
]

# Runs in a fresh interpreter: the modules that appear while it runs, as JSON.
CHILD = """
import json, os, sys
before = set(sys.modules)
{body}
print(json.dumps(sorted(set(sys.modules) - before)), file=sys.__stdout__)
"""

COMMAND = """
from recovery_sets.cli import main
sys.stdout = open(os.devnull, "w")
code = main({argv!r})
sys.stdout.close()
assert code == 0, code
"""


def loaded(body: str) -> list[str]:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", CHILD.format(body=body)], env=env,
                         capture_output=True, text=True, check=True, timeout=120).stdout
    return json.loads(out)


def test_import_loads_no_submodule():
    assert [m for m in loaded("import recovery_sets") if m.startswith("recovery_sets.")] == []


def test_first_access_loads_only_its_submodule():
    body = "import recovery_sets\nassert recovery_sets.ilp.solve_ilp is recovery_sets.solve_ilp"
    assert [m for m in loaded(body) if m.startswith("recovery_sets.")] == ["recovery_sets.ilp"]


CORE = ["cli", "constructions", "field_core", "geometry", "verifier"]


@pytest.mark.parametrize("argv, submodules", [
    (["ilp", "--k", "4"], ["cli", "ilp"]),
    (["bounds", "--q", "2", "--k", "4", "--d", "2"],
     ["bounds", "cli", "constructions", "field_core", "geometry"]),
    (["construct", "--q", "2", "--k", "4", "--d", "2"], CORE),
    (["verify", "{family}"], ["cli", "field_core", "geometry", "verifier"]),
    (["oracle", "--q", "2", "--k", "3", "--d", "2"], sorted(CORE + ["oracle"])),
], ids=["ilp", "bounds", "construct", "verify", "oracle"])
def test_command_loads_only_what_it_runs(tmp_path, argv, submodules):
    family = tmp_path / "family.json"
    family.write_text(json.dumps({"q": 2, "k": 2, "d": 1, "target": [], "sets": [[[0, 1]]]}))
    argv = [a.format(family=family) for a in argv]
    modules = loaded(COMMAND.format(argv=argv))
    assert [m for m in modules if m.startswith("recovery_sets.")] == [
        f"recovery_sets.{name}" for name in submodules]
    assert ("fractions" in modules) == (argv[0] == "ilp")
    # records are NamedTuples and plain classes: `import dataclasses` would
    # pull in inspect, ast, dis and tokenize
    assert "dataclasses" not in modules and "inspect" not in modules


class TestPublicNames:
    def test_all_unchanged(self):
        assert recovery_sets.__all__ == PUBLIC_NAMES

    def test_every_name_resolves(self):
        for name in PUBLIC_NAMES:
            value = getattr(recovery_sets, name)
            if isinstance(value, ModuleType):
                assert value.__name__ == f"recovery_sets.{name}"
            else:
                assert value is getattr(sys.modules[value.__module__], name)

    def test_star_import(self):
        namespace: dict = {}
        exec("from recovery_sets import *", namespace)
        assert {n for n in namespace if n != "__builtins__"} == set(PUBLIC_NAMES)

    def test_dir_lists_every_name(self):
        assert set(PUBLIC_NAMES) <= set(dir(recovery_sets))

    def test_unknown_name(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            recovery_sets.no_such_name  # noqa: B018
        assert not hasattr(recovery_sets, "Echelon")

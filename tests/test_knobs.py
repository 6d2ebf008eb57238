"""Inventory of the defaulted parameters, the public names and the dataclass
fields in the package.

Every parameter with a default value, and every defaulted field of a
dataclass, is listed below as (module, function or class, name). A default
that no caller varies is a constant in disguise, so a new one needs a
deliberate edit here. Likewise every public top-level name must be reached
from the command line, and every dataclass field must be read somewhere in
the package.
"""

import ast
import inspect
from pathlib import Path

import boussinesq_ist
from boussinesq_ist import scattering as sc

KEPT = {
    ("cli", "main", "argv"),
    ("scattering", "_march", "want_traj"),
    ("scattering", "_march", "s_rows"),
    ("scattering", "gamma1_samples", "per_decade"),
    ("scattering", "gamma4_samples", "per_decade"),
    ("scattering", "circle_samples", "n"),
    ("scattering", "reflection_coefficients", "per_decade"),
    ("scattering", "reflection_coefficients", "circle_n"),
    ("scattering", "find_poles", "regions"),
    ("verify", "round_trip", "lx"),
    ("volterra", "_clipped_exp", "limit"),
    ("volterra", "march_column", "want_traj"),
    ("volterra", "march_column", "s_rows"),
}

KEPT_FIELDS = {
    ("scattering", "ScatteringData", "residues"),
    ("scattering", "ScatteringData", "time"),
    ("solitons", "SolutionField", "v"),
    ("solitons", "SolutionField", "meta"),
}

#: fields that only the tests read, each with the reason it is kept; none today
TEST_READ_FIELDS = set()


def _is_dataclass(node):
    return any("dataclass" in ast.unparse(d) for d in node.decorator_list)


def _init_false(value):
    return isinstance(value, ast.Call) and any(
        kw.arg == "init" and isinstance(kw.value, ast.Constant) and kw.value.value is False
        for kw in value.keywords
    )


def _defaults():
    params, fields = set(), set()

    def walk(node, module, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                a = child.args
                positional = a.posonlyargs + a.args
                named = positional[len(positional) - len(a.defaults):] + [
                    arg for arg, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None
                ]
                params.update((module, prefix + child.name, arg.arg) for arg in named)
                walk(child, module, prefix + child.name + ".")
            elif isinstance(child, ast.ClassDef):
                if _is_dataclass(child):
                    fields.update(
                        (module, prefix + child.name, st.target.id)
                        for st in child.body
                        if isinstance(st, ast.AnnAssign) and st.value is not None
                        and not _init_false(st.value)
                    )
                walk(child, module, prefix + child.name + ".")
            else:
                walk(child, module, prefix)

    for path in sorted(Path(boussinesq_ist.__file__).parent.glob("*.py")):
        walk(ast.parse(path.read_text()), path.stem, "")
    return params, fields


def test_defaulted_parameters_are_the_kept_ones():
    params, fields = _defaults()
    assert sorted(params - KEPT) == [], "new defaulted parameter: add it to KEPT or make it a constant"
    assert sorted(KEPT - params) == [], "a kept parameter is gone: drop it from KEPT"
    assert sorted(fields ^ KEPT_FIELDS) == []


def test_initial_data_takes_only_the_samples():
    assert list(inspect.signature(sc.InitialData).parameters) == ["x", "u0", "v0"]


def _loaded_names(node):
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)} | {
        n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)
    }


def test_every_public_name_is_reached_from_the_cli():
    # A static name graph: a top-level def or class reaches every name its
    # body mentions, and module statements outside defs run on import, so
    # they are roots. Names are matched without their module, which can only
    # over-report reach.
    edges, roots, public = {}, {"main"}, set()
    for path in sorted(Path(boussinesq_ist.__file__).parent.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                edges.setdefault(node.name, set()).update(_loaded_names(node))
                defined = {node.name}
            else:
                roots |= _loaded_names(node)
                defined = {n.id for n in ast.walk(node)
                           if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}
            public |= {(path.stem, name) for name in defined if not name.startswith("_")}
    reached, todo = set(roots), list(roots)
    while todo:
        new = edges.get(todo.pop(), set()) - reached
        reached |= new
        todo.extend(new)
    unreached = {(module, name) for module, name in public if name not in reached}
    assert sorted(unreached) == [], "no command reaches these: delete them or move them to tests/"


def test_every_dataclass_field_has_a_reader():
    # Attributes are matched by name alone, whatever object they are read
    # from, which can only over-report readers.
    fields, read = set(), set()
    for path in sorted(Path(boussinesq_ist.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        read |= {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}
        fields |= {
            (path.stem, node.name, st.target.id)
            for node in ast.walk(tree) if isinstance(node, ast.ClassDef) and _is_dataclass(node)
            for st in node.body if isinstance(st, ast.AnnAssign)
        }
    unread = {f for f in fields if f[2] not in read}
    assert sorted(unread - TEST_READ_FIELDS) == [], "no code in the package reads these fields: delete them"
    assert sorted(TEST_READ_FIELDS - unread) == [], "the package reads these now: drop them from TEST_READ_FIELDS"


def _called(node):
    """The name a call node calls, without its module; None for other nodes."""
    if isinstance(node, ast.Call):
        return getattr(node.func, "id", None) or getattr(node.func, "attr", None)
    return None


def test_one_coupling_rule_for_the_pole_residues():
    # spectral.phase_rates is the one formula for the rates l_i - l_j and
    # z_i - z_j, and jumps removes every pole with one formula
    subtracted = set()
    for path in sorted(Path(boussinesq_ist.__file__).parent.glob("*.py")):
        if path.stem == "spectral":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.FunctionDef):
                for sub in ast.walk(node):
                    if (isinstance(sub, ast.BinOp) and isinstance(sub.op, ast.Sub)
                            and _called(sub.left) in ("eval_l", "eval_z")
                            and _called(sub.left) == _called(sub.right)):
                        subtracted.add((path.stem, node.name))
    assert sorted(subtracted) == [], "rate differences outside spectral: call spectral.phase_rates"
    tree = ast.parse((Path(boussinesq_ist.__file__).parent / "jumps.py").read_text())
    theta_readers = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)
                     and any(_called(sub) == "eval_theta" for sub in ast.walk(node))}
    assert theta_readers == {"build_v", "_removal"}, "one removal formula beside the nine pieces"

"""Rules the package source keeps, checked on its syntax tree."""

import ast
from pathlib import Path

import nilharm

PACKAGE = Path(nilharm.__file__).resolve().parent


def test_no_assert_statements_in_the_package():
    # python -O strips assert statements; runtime invariants must raise
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []


def test_raised_messages_quote_tokens_through_shown():
    # a !r conversion echoes a token in full, however long; messages
    # quote through config.shown, which cuts a long token short
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}"
                  for raise_node in ast.walk(tree)
                  if isinstance(raise_node, ast.Raise)
                  for node in ast.walk(raise_node)
                  if isinstance(node, ast.FormattedValue)
                  and node.conversion == ord("r")]
    assert found == []


def test_every_public_function_and_class_has_a_reader():
    # a module-level public function or class must be imported, read as
    # module.name or loaded by name in its own module, be exported by
    # the package, or be read as an attribute by the benchmark harness
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py"))}
    read = set()
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module:
                source = node.module.rpartition(".")[2]
                read |= {(source, alias.name) for alias in node.names}
            elif (isinstance(node, ast.Attribute)
                  and isinstance(node.value, ast.Name)
                  and node.value.id in trees):
                read.add((node.value.id, node.attr))
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add((module, node.id))
    exported = set(nilharm.__all__) | set(nilharm._LAZY)
    bench = Path(__file__).resolve().parents[1] / "perfbench"
    exported |= {node.attr for path in sorted(bench.glob("*.py"))
                 for node in ast.walk(ast.parse(path.read_text("utf-8")))
                 if isinstance(node, ast.Attribute)}
    dead = [f"{module}.{node.name}" for module, tree in trees.items()
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")
            and (module, node.name) not in read
            and node.name not in exported]
    assert dead == []


def test_no_call_unpacks_a_generator_expression():
    # f(*(x for x in xs)) builds the argument tuple from a generator,
    # which grows the allocator's high-water mark where a list or a
    # plain loop does not (math.lcm over Fraction denominators did)
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Starred)
                  and isinstance(node.value, ast.GeneratorExp)]
    assert found == []


def test_orbits_and_stepwise_do_not_branch_on_a_family_name():
    # a case is read through a table (orbits._CASES) or the split
    # search, not by comparing meta["family"] with a family's name
    catalog = ast.parse((PACKAGE / "catalog.py").read_text(encoding="utf-8"))
    families = {value.value for node in ast.walk(catalog)
                if isinstance(node, ast.Dict)
                for key, value in zip(node.keys, node.values)
                if isinstance(key, ast.Constant) and key.value == "family"
                and isinstance(value, ast.Constant)}
    assert {"free2step", "octdouble"} <= families
    found = []
    for name in ("orbits.py", "stepwise.py"):
        tree = ast.parse((PACKAGE / name).read_text(encoding="utf-8"))
        found += [f"{name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Compare)
                  for operand in (node.left, *node.comparators)
                  for const in ast.walk(operand)
                  if isinstance(const, ast.Constant)
                  and const.value in families]
    assert found == []


def test_no_tolerance_decides_the_shape_of_an_orbit_answer():
    # the number of invariants, kernel_dim and the pairs or triples are
    # exact: no *_TOL is read by orbit_representative or _one_invariant,
    # or by a code object nested in them, and PAIR_TOL is gone
    from nilharm import orbits

    def names(code):
        yield from code.co_names
        for const in code.co_consts:
            if hasattr(const, "co_names"):
                yield from names(const)

    assert not hasattr(orbits, "PAIR_TOL")
    read = {name for f in (orbits.orbit_representative, orbits._one_invariant)
            for name in names(f.__code__)}
    assert read and not [name for name in read if name.endswith("_TOL")]

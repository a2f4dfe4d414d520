"""No dead names in the package: every import is used, every private definition referenced.

One integer rule: ``isinstance(..., bool)`` appears only in ``check_int`` and ``is_prime``.
One argument boundary: ``isinstance`` appears only in the argument rules, ``is_prime``, the
operator overloads, ``RectorInvariant``'s choice between a mapping and pairs and the genus
entry converter's test for a digit string.
One prime rule: ``is_prime`` is called only by ``genus.check_prime``, by ``check_frobenius``
and by the factorizer.
One symbol rule: the Euler power ``_symbol`` is called only by the scan helper ``_symbols``,
which reads a square degree's +1 without it, and by the single-prime queries.
One linear pass rule: a comprehension of any kind that reduces ``% m`` or ``% modulus``
appears only in ``_combination``, in the int scaling a brute-force trial runs once, in the
residue table a brute-force verdict's ``_trials_agree`` builds once, in the public routes'
pullback of a model and in ``_mul``'s read-back.
Module boundaries: a private name crosses from one module to another only where it is listed.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "hpgenus").glob("*.py"))

#: names obstruction and cli import without using them: bench/spans.py patches them there
SPANS_PATCHED = {
    ("obstruction.py", name)
    for name in ("psi_then_pullback", "pullback_then_psi", "random_degree_map", "is_prime")
} | {("cli.py", "odd_primes_upto")}

#: where ``isinstance(..., bool)`` may appear: the one integer rule, and the primality
#: predicate, which answers False for a bool rather than raising
BOOL_CHECKS = {("series.py", "check_int"), ("primes.py", "is_prime")}

#: where any ``isinstance`` may appear: the argument rules; the primality predicate; the
#: operator overloads, which return NotImplemented for a foreign operand; the one place
#: that tells a {prime: sign} mapping from (prime, sign) pairs; and the genus entry
#: converter, which runs its digit test on strings only
TYPE_TESTS = {
    ("series.py", "check_int"),
    ("series.py", "check_type"),
    ("series.py", "check_series"),
    ("primes.py", "is_prime"),
    ("series.py", "TruncatedSeries.__add__"),
    ("series.py", "TruncatedSeries.__sub__"),
    ("series.py", "TruncatedSeries.__mul__"),
    ("series.py", "TruncatedSeries.__eq__"),
    ("genus.py", "RectorInvariant.__post_init__"),
    ("genus.py", "_entry"),
}

#: where ``is_prime(`` may be called: the prime rule; ``check_frobenius``, which cannot import
#: the rule because genus imports adams; and the factorizer, which tests its cofactors
PRIME_TESTS = {
    ("genus.py", "check_prime"),
    ("adams.py", "check_frobenius"),
    ("primes.py", "distinct_odd_prime_factors"),
}

#: where ``_symbol(`` may be called: the bound scans' helper, which skips the power at a
#: square degree, so that no scan can bypass that rule; and the single-prime queries
SYMBOL_CALLS = {
    ("obstruction.py", "_symbols"),
    ("obstruction.py", "legendre"),
    ("obstruction.py", "example_xp"),
    ("cli.py", "_cmd_example_xp"),
}

#: where a list, set or dict comprehension or a generator expression may reduce ``% m`` or
#: ``% modulus``, each with the workload that needs it; every other linear pass is a
#: ``_combination`` call
LINEAR_PASSES = {
    ("series.py", "TruncatedSeries._combination"): "the one linear-pass kernel: sums, negation, "
    "reduce, compose and psi_apply's rows, on every workload that runs series code",
    ("series.py", "_mul"): "the product's read-back, in every multiplication of sweep and "
    "large-prime",
    ("series.py", "TruncatedSeries.__mul__"): "the int scaling, once per trial in sweep and "
    "large-prime: through _combination, h * c at p = 31 took 2.9 us, not 1.9 us",
    ("genus.py", "_trials_agree"): "the residue table of the 19 drawable values, once per "
    "verdict in sweep and large-prime: a trial reads its p - 1 slots off it, and at p = 99991 "
    "its S took 3.2 ms that way, not 6.0 ms from a drawn model reduced by c % m",
    ("genus.py", "_model_pullback"): "the public routes' pullback of a model, whose slots are "
    "any ints, twice per verify-lemma call in large-prime and never in a trial",
}

#: the private names a module imports from another module, or reads on another module's
#: objects, each with its reason; every other private name stays in the module defining it
CROSS_MODULE_PRIVATE = {
    ("adams.py", "_powers"): "the kernel's powers of a series: the psi table is built the way "
    "compose substitutes",
    ("adams.py", "_combination"): "the kernel's unchecked sum of scaled rows, over a table "
    "built from a checked series",
    ("genus.py", "_trusted"): "the kernel's unchecked constructor, for a pullback built from "
    "a checked model's ints or from residues read off the trial's table",
    ("obstruction.py", "_trusted"): "example_xp's point, at the prime it has just checked",
    ("obstruction.py", "_trials_agree"): "the brute force's verdict, after one check per call: "
    "its seeded maps drawn and both routes compared on each",
    ("obstruction.py", "_sign"): "a point's sign at a prime the verdict has checked or sieved: "
    "lookup without its prime test",
    ("cli.py", "_admissible_upto"): "checked once: the --bound verdict over the sieve's primes, "
    "which at a square degree against a +1 point sieves only to 4*isqrt(m) + 4",
    ("cli.py", "_symbol"): "checked once: example-xp's symbol at its checked prime",
}


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), str(path))


def _loaded(tree: ast.AST) -> set[str]:
    """Every name the tree reads, as a bare name or as an attribute."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def _imported(tree: ast.Module) -> list[str]:
    """The name each import statement binds, leaving out ``from __future__``."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.extend(alias.asname or alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.extend(alias.asname or alias.name for alias in node.names)
    return names


def _exported(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def _private_definitions(tree: ast.Module) -> list[str]:
    """Top-level functions, classes and assignments whose names start with one underscore."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.extend(target.id for target in targets if isinstance(target, ast.Name))
    return [name for name in names if _is_private(name)]


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _private_reaches(tree: ast.Module) -> set[str]:
    """The private names the module imports from the package, or reads as an attribute of a
    name it imports from the package or of an object whose class it does not define them on."""
    imported, defined, found = set(), set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            for alias in node.names:
                imported.add(alias.asname or alias.name)
                if _is_private(alias.name):
                    found.add(alias.name)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            defined.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            defined.add(node.attr)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and _is_private(node.attr):
            if getattr(node.value, "id", None) in imported or node.attr not in defined:
                found.add(node.attr)
    return found


def _is_type_test(node: ast.AST) -> bool:
    """Whether node is a call ``isinstance(...)``."""
    return isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance"


def _is_bool_check(node: ast.AST) -> bool:
    """Whether node is a call ``isinstance(x, bool)`` or ``isinstance(x, (..., bool, ...))``."""
    if not _is_type_test(node):
        return False
    kinds = node.args[1:2]
    if kinds and isinstance(kinds[0], ast.Tuple):
        kinds = kinds[0].elts
    return any(getattr(kind, "id", None) == "bool" for kind in kinds)


def _reduces_in_a_pass(node: ast.AST) -> bool:
    """Whether node is a comprehension or generator expression whose element, or whose dict
    value, reduces ``% m`` or ``% modulus``."""
    if not isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)):
        return False
    element = node.value if isinstance(node, ast.DictComp) else node.elt
    return any(
        isinstance(part, ast.BinOp)
        and isinstance(part.op, ast.Mod)
        and getattr(part.right, "id", None) in ("m", "modulus")
        for part in ast.walk(element)
    )


def _calls(name: str):
    """A matcher for a call ``name(...)`` or ``<module>.name(...)``."""

    def matches(node: ast.AST) -> bool:
        if not isinstance(node, ast.Call):
            return False
        return name in (getattr(node.func, "id", None), getattr(node.func, "attr", None))

    return matches


def _owners(tree: ast.AST, matches, owner=None) -> list:
    """The innermost function or class around each node that matches, by its dotted name
    (``Class.method``); None at module level."""
    owners = []
    for child in ast.iter_child_nodes(tree):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            name = child.name if owner is None else f"{owner}.{child.name}"
            owners += _owners(child, matches, name)
            continue
        if matches(child):
            owners.append(owner)
        owners += _owners(child, matches, owner)
    return owners


def test_sources_found():
    assert len(SOURCES) > 1


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_every_import_is_used(path):
    tree = _tree(path)
    used = _loaded(tree) | _exported(tree)
    dead = [
        name
        for name in _imported(tree)
        if name not in used and (path.name, name) not in SPANS_PATCHED
    ]
    assert dead == [], f"{path.name} imports {dead} and never uses them"


def test_every_private_definition_is_referenced():
    trees = {path.name: _tree(path) for path in SOURCES}
    referenced = set().union(*(_loaded(tree) for tree in trees.values()))
    for tree in trees.values():
        referenced.update(_imported(tree))
    dead = [
        f"{module}: {name}"
        for module, tree in trees.items()
        for name in _private_definitions(tree)
        if name not in referenced
    ]
    assert dead == [], f"private definitions never referenced in src/: {dead}"


def test_allowlisted_names_are_still_patched_by_the_benchmark():
    spans = (ROOT / "bench" / "spans.py").read_text(encoding="utf-8")
    for _, name in sorted(SPANS_PATCHED):
        assert f'"{name}"' in spans, f"bench/spans.py no longer patches {name}: unlist it"


def test_bools_are_rejected_by_the_one_integer_rule_only():
    found = {
        (path.name, owner) for path in SOURCES for owner in _owners(_tree(path), _is_bool_check)
    }
    assert found == BOOL_CHECKS, f"isinstance(..., bool) outside check_int and is_prime: {found}"


def test_types_are_tested_by_the_argument_rules_only():
    found = {
        (path.name, owner) for path in SOURCES for owner in _owners(_tree(path), _is_type_test)
    }
    assert found == TYPE_TESTS, f"isinstance outside the listed places: {found ^ TYPE_TESTS}"


def test_primes_are_tested_by_the_prime_rule_only():
    found = {
        (path.name, owner)
        for path in SOURCES
        for owner in _owners(_tree(path), _calls("is_prime"))
    }
    assert found == PRIME_TESTS, f"is_prime called outside the listed places: {found ^ PRIME_TESTS}"


def test_symbols_are_taken_by_the_symbol_rule_only():
    found = {
        (path.name, owner)
        for path in SOURCES
        for owner in _owners(_tree(path), _calls("_symbol"))
    }
    assert found == SYMBOL_CALLS, f"_symbol called outside the listed places: {found ^ SYMBOL_CALLS}"


def test_coefficients_are_reduced_by_the_one_linear_pass_rule_only():
    found = {
        (path.name, owner)
        for path in SOURCES
        for owner in _owners(_tree(path), _reduces_in_a_pass)
    }
    listed = set(LINEAR_PASSES)
    assert found == listed, f"reducing list passes outside the listed places: {found ^ listed}"


def test_private_names_cross_module_boundaries_only_where_listed():
    found = {(path.name, name) for path in SOURCES for name in _private_reaches(_tree(path))}
    listed = set(CROSS_MODULE_PRIVATE)
    assert found == listed, f"private names crossing modules, unlisted or gone: {found ^ listed}"

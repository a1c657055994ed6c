"""Every name a tailforge module imports or keeps private is used in that module,
every dataclass field it declares is read somewhere in the repository, the
sites that form a tail exponent leave its probability to ``bounds.tail_bound``,
only ``bounds.as_count`` decides what counts as an integer and only
``bounds.as_real`` what counts as a real number, only ``cli`` reads JSON, only
the domain helpers of ``bounds`` hold the delta and gamma rules, the values a ``bounds``
record derives are formed only where it is built, each pair of laws builds its
LLR martingale only in its record and reads its moments only through
``LlrMartingale.ratios`` (and hyptest's sigma1^2), hyptest's tilted kernel makes
no numpy call, ``bounds`` and ``specfun`` add no float with the builtin
``sum``, and ``cli`` reports errors through ``ValueError`` alone, with one
home each for the mode-flag rule (``_only``) and the JSON-list rule
(``_list``), and the Monte Carlo and OFDM sampling kernels hand no product
to BLAS."""

import ast
import fnmatch
import functools
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "tailforge"
READERS = ("src", "tests", "perfbench")  # where a field's reads are looked for


def unused_imports(source: str) -> list[str]:
    """Imported names never read in ``source``; __future__ imports are skipped.

    A name listed in ``__all__`` counts as used (a package re-export).
    """
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    unused = [(name, line) for name, line in imported.items() if name not in used]
    return sorted(f"{name} (line {line})" for name, line in unused)


def unused_private_names(source: str) -> list[str]:
    """Module-level ``_name`` bindings (not dunders) never read in ``source``."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            bound[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for n in ast.walk(target):
                    if isinstance(n, ast.Name):
                        bound[n.id] = node.lineno
    read = {
        n.id
        for n in ast.walk(tree)
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
    }
    return sorted(
        f"{name} (line {line})"
        for name, line in bound.items()
        if name.startswith("_") and not name.startswith("__") and name not in read
    )


def dataclass_fields(source: str) -> list[tuple[str, str, int]]:
    """(class, field, line) for each annotated field of each ``@dataclass``."""
    fields = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ClassDef) and any(
            getattr(getattr(d, "func", d), "id", None) == "dataclass"
            for d in node.decorator_list
        ):
            fields += [
                (node.name, stmt.target.id, stmt.lineno)
                for stmt in node.body
                if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
            ]
    return fields


def attributes_read(source: str) -> set[str]:
    """Names loaded as an attribute (``obj.name``) anywhere in ``source``."""
    return {
        n.attr
        for n in ast.walk(ast.parse(source))
        if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)
    }


def unread_fields(source: str, read: set[str]) -> list[str]:
    """Dataclass fields of ``source`` whose name is not in ``read``.

    The check is by name only: a field whose name is read as an attribute of
    any object passes, so fields with common names such as ``n`` are never
    flagged.
    """
    return sorted(
        f"{cls}.{name} (line {line})"
        for cls, name, line in dataclass_fields(source)
        if name not in read
    )


@functools.lru_cache(maxsize=None)
def _attributes_read_in_repo() -> frozenset:
    paths = (p for d in READERS for p in (ROOT / d).rglob("*.py"))
    sources = (p.read_text(encoding="utf-8") for p in paths)
    return frozenset().union(*map(attributes_read, sources))


# functions that return exponents whose probability only tail_bound forms
EXPONENT_SITES = (
    "small_deviation_*",
    "ldpc_cycles_bound",
    "ofdm_cf_bounds",
    "moderate_deviation_hyptest",
    "example3_comparison",
)


def calls(node: ast.AST, name: str) -> list[int]:
    """Lines under ``node`` that call ``name`` (``min``, or dotted: ``math.exp``)."""
    return [
        n.lineno
        for n in ast.walk(node)
        if isinstance(n, ast.Call) and ast.unparse(n.func) == name
    ]


def exponent_sites() -> dict[str, ast.FunctionDef]:
    """Each module-level function of ``src/tailforge`` named by EXPONENT_SITES."""
    return {
        f"{path.name}:{node.name}": node
        for path in sorted(SRC.glob("*.py"))
        for node in ast.parse(path.read_text(encoding="utf-8")).body
        if isinstance(node, ast.FunctionDef)
        and any(fnmatch.fnmatchcase(node.name, p) for p in EXPONENT_SITES)
    }


def test_checker_flags_min_and_exp_calls():
    source = (
        "import math\n"
        "def f(e):\n"
        "    p = min(1.0, 2.0 * math.exp(-e))\n"
        "    return math.expm1(p), max(p, 0.0)\n"
    )
    tree = ast.parse(source)
    assert calls(tree, "min") == [3]
    assert calls(tree, "math.exp") == [3]


def test_checker_flags_builtin_sum_alone():
    tree = ast.parse("import math\nt = sum(v) + math.fsum(v) + np.sum(v)\n")
    assert calls(tree, "sum") == [2]
    assert calls(tree, "np.sum") == [2]


@pytest.mark.parametrize("module", ["bounds.py", "specfun.py"])
def test_scalar_layers_call_no_builtin_sum(module):
    # from Python 3.12 sum() of floats is compensated, so its float is not the
    # left-to-right loop's that the pinned bits were recorded from
    tree = ast.parse((SRC / module).read_text(encoding="utf-8"))
    assert calls(tree, "sum") == []


def test_cli_leaves_the_clamp_to_tail_bound():
    tree = ast.parse((SRC / "cli.py").read_text(encoding="utf-8"))
    assert calls(tree, "min") == []


def test_exponent_sites_leave_exp_to_tail_bound():
    sites = exponent_sites()
    # every pattern still names a function, so a rename cannot pass unseen
    for pattern in EXPONENT_SITES:
        assert any(fnmatch.fnmatchcase(k.split(":")[1], pattern) for k in sites)
    exp_calls = {k: calls(f, "math.exp") for k, f in sites.items()}
    assert {k: lines for k, lines in exp_calls.items() if lines} == {}


def test_integer_rule_lives_in_as_count():
    # every length or count goes through bounds.as_count, the one operator.index
    sites, importers = [], []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        sites += [
            f"{path.name}:{getattr(node, 'name', node.lineno)}"
            for node in tree.body
            if calls(node, "operator.index")
        ]
        importers += [
            path.name
            for node in ast.walk(tree)
            if isinstance(node, ast.Import)
            and any(a.name == "operator" for a in node.names)
            or isinstance(node, ast.ImportFrom)
            and node.module == "operator"
        ]
    assert sites == ["bounds.py:as_count"]
    assert importers == ["bounds.py"]


# records that convert the numbers their callers hand in, JSON's included
REAL_RECORDS = ("FinitePmf", "IncrementLaw", "LdpcEnsemble", "Thresholds")


def imports_module(tree: ast.AST, module: str) -> bool:
    """Whether ``tree`` holds ``import module`` or ``from module import ...``."""
    return any(
        isinstance(n, ast.Import)
        and any(a.name == module for a in n.names)
        or isinstance(n, ast.ImportFrom)
        and n.module == module
        for n in ast.walk(tree)
    )


def defines(name: str):
    """A ``qualified_sites`` matcher for a function or method named ``name``."""
    return lambda n: isinstance(n, ast.FunctionDef) and n.name == name


def input_rule_sites(sources: dict) -> dict:
    """Per module name -> source: who imports ``numbers`` and ``json``, where a
    ``from_json`` is defined, and which REAL_RECORDS ``__post_init__`` calls the
    builtin ``float``."""
    inits = {f"{cls}.__post_init__" for cls in REAL_RECORDS}
    found = {"numbers": [], "json": [], "from_json": [], "float": []}
    for name, source in sorted(sources.items()):
        tree = ast.parse(source)
        for module in ("numbers", "json"):
            if imports_module(tree, module):
                found[module].append(name)
        found["from_json"] += [
            f"{name}:{site}" for site in qualified_sites(source, defines("from_json"))
        ]
        found["float"] += [
            f"{name}:{site}"
            for site in qualified_sites(
                source, lambda n: isinstance(n, ast.Call) and ast.unparse(n.func) == "float"
            )
            if site in inits
        ]
    return found


def test_checker_flags_input_rules_outside_their_homes():
    sources = {
        "cli.py": "import json\n",
        "pmf.py": (
            "import numbers\n"
            "from json import loads\n"
            "class FinitePmf:\n"
            "    def __post_init__(self):\n"
            "        self.probs = tuple(float(p) for p in self.probs)\n"
            "    @classmethod\n"
            "    def from_json(cls, obj):\n"
            "        return cls(obj['symbols'], obj['probs'])\n"
            "class Other:\n"
            "    def __post_init__(self):\n"
            "        self.x = float(self.x)\n"
        ),
    }
    assert input_rule_sites(sources) == {
        "numbers": ["pmf.py"],
        "json": ["cli.py", "pmf.py"],
        "from_json": ["pmf.py:FinitePmf.from_json"],
        "float": ["pmf.py:FinitePmf.__post_init__"],
    }


def test_input_formats_and_real_rule_have_one_home():
    # the CLI alone reads the JSON input formats, and bounds.as_real alone turns
    # a caller's number into a float: no from_json, no float() in the records
    sources = {p.name: p.read_text(encoding="utf-8") for p in SRC.glob("*.py")}
    assert input_rule_sites(sources) == {
        "numbers": ["bounds.py"],
        "json": ["cli.py"],
        "from_json": [],
        "float": [],
    }
    # every record the float check names still has a __post_init__
    inits = [
        site
        for source in sources.values()
        for site in qualified_sites(source, defines("__post_init__"))
    ]
    assert {f"{cls}.__post_init__" for cls in REAL_RECORDS} <= set(inits)


# the one home of each route-domain rule in bounds.py
DOMAIN_HELPERS = ("_delta_edge", "_unit_gamma")
# (comparison, constant) pairs of delta's edge rules, read as "delta <op> c";
# delta == 1.0 (the closed forms) and delta < 1.0 are not among them
DELTA_EDGES = {(ast.Gt, 1.0), (ast.LtE, 1.0), (ast.Eq, 0.0), (ast.Gt, 0.0)}
FLIPPED = {ast.Gt: ast.Lt, ast.Lt: ast.Gt, ast.GtE: ast.LtE, ast.LtE: ast.GtE}


def _is_delta_edge(node: ast.Compare) -> bool:
    operands = [node.left, *node.comparators]
    for a, op, b in zip(operands, node.ops, operands[1:]):
        if isinstance(b, ast.Name) and b.id == "delta":
            a, op, b = b, FLIPPED.get(type(op), type(op))(), a
        if (
            isinstance(a, ast.Name)
            and a.id == "delta"
            and isinstance(b, ast.Constant)
            and (type(op), b.value) in DELTA_EDGES
        ):
            return True
    return False


def domain_rule_sites(source: str) -> list[str]:
    """Lines outside DOMAIN_HELPERS that hold a delta or gamma domain rule.

    A rule is a ``not <x> >= 0.0`` check, a comparison of ``delta`` with an
    edge (> 1.0, <= 1.0, == 0.0, > 0.0, either way round) or a read of
    ``BOUNDARY_CLAMP``; each is reported as "<function>:<line> <source>".
    """
    sites = []

    def visit(node, where):
        if isinstance(node, ast.FunctionDef):
            if node.name in DOMAIN_HELPERS:
                return
            where = node.name
        rule = (
            isinstance(node, ast.UnaryOp)
            and isinstance(node.op, ast.Not)
            and isinstance(node.operand, ast.Compare)
            and [type(o) for o in node.operand.ops] == [ast.GtE]
            and ast.unparse(node.operand.comparators[0]) == "0.0"
            or isinstance(node, ast.Compare)
            and _is_delta_edge(node)
            or isinstance(node, ast.Name)
            and node.id == "BOUNDARY_CLAMP"
        )
        if rule:
            sites.append(f"{where}:{node.lineno} {ast.unparse(node)}")
            return
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(ast.parse(source), "<module>")
    return sites


def test_checker_flags_domain_rules_outside_the_helpers():
    source = (
        "def _delta_edge(delta):\n"
        "    if not delta >= 0.0 or delta > 1.0:\n"
        "        return BOUNDARY_CLAMP\n"
        "def route(gamma, delta):\n"
        "    if not 0.0 < delta <= 1.0 or 1.0 < delta or delta == 1.0:\n"
        "        return min(gamma, 1.0 + BOUNDARY_CLAMP)\n"
        "    return not gamma >= 0.0, delta < 1.0\n"
    )
    assert domain_rule_sites(source) == [
        "route:5 0.0 < delta <= 1.0",
        "route:5 1.0 < delta",
        "route:6 BOUNDARY_CLAMP",
        "route:7 not gamma >= 0.0",
    ]


def test_domain_rules_live_in_the_bounds_helpers():
    source = (SRC / "bounds.py").read_text(encoding="utf-8")
    tree = ast.parse(source)
    helpers = [n.name for n in tree.body if isinstance(n, ast.FunctionDef)]
    assert set(DOMAIN_HELPERS) <= set(helpers)
    assert domain_rule_sites(source) == []


def qualified_sites(source: str, matches) -> list[str]:
    """The enclosing "Class.function" or "function" of each node ``matches`` accepts."""
    sites = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            where = f"{where}.{node.name}" if where else node.name
        if matches(node):
            sites.append(where or "<module>")
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(ast.parse(source), "")
    return sites


def plans_the_s_kernel(node: ast.AST) -> bool:
    return isinstance(node, ast.Call) and ast.unparse(node.func) == "_poly_plan"


def divides_sigma2(node: ast.AST) -> bool:
    """sigma2 / ..., with sigma2 a name or an attribute: gamma = sigma^2/d^2."""
    return (
        isinstance(node, ast.BinOp)
        and isinstance(node.op, ast.Div)
        and ast.unparse(node.left).rsplit(".", 1)[-1] == "sigma2"
    )


def builds_an_llr_martingale(node: ast.AST) -> bool:
    return isinstance(node, ast.Call) and ast.unparse(node.func) == "LlrMartingale.of"


def reads_a_moment(node: ast.AST) -> bool:
    """``<anything>.moment(...)``: a centred LLR moment, Theorem 4's ratio input."""
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "moment"
    )


def test_checker_flags_derived_values_formed_per_call():
    source = (
        "class Spec:\n"
        "    def __post_init__(self):\n"
        "        self.g = self.sigma2 / self.d**2\n"
        "    @property\n"
        "    def gamma(self):\n"
        "        return self.sigma2 / self.d**2\n"
        "class Kernel:\n"
        "    def __init__(self, profile):\n"
        "        self.plan = _poly_plan(len(profile))\n"
        "def route(sigma2, d):\n"
        "    return sigma2 / d**2, d / sigma2, _poly_plan\n"
        "class Channel:\n"
        "    def __post_init__(self):\n"
        "        self.mart = LlrMartingale.of(self.p0, self.p1)\n"
        "class LlrMartingale:\n"
        "    def ratios(self, m):\n"
        "        return [self.moment(l) / self.d**l for l in range(2, m + 1)]\n"
        "def profile(channel, m):\n"
        "    mart = LlrMartingale.of(channel.p0, channel.p1)\n"
        "    return [mart.moment(l) / mart.d**l for l in range(2, m + 1)]\n"
    )
    assert qualified_sites(source, plans_the_s_kernel) == ["Kernel.__init__"]
    assert qualified_sites(source, divides_sigma2) == [
        "Spec.__post_init__",
        "Spec.gamma",
        "route",
    ]
    assert qualified_sites(source, builds_an_llr_martingale) == [
        "Channel.__post_init__",
        "profile",
    ]
    assert qualified_sites(source, reads_a_moment) == ["LlrMartingale.ratios", "profile"]


def test_records_form_their_derived_values_once():
    # the S kernel's plan and gamma belong to the profile and the spec, and an
    # LLR martingale to its channel or hypothesis pair, built at construction,
    # not rebuilt on every route call; Theorem 4's LLR ratios are formed only in
    # LlrMartingale.ratios, and hyptest reads sigma1^2 itself
    checks = (plans_the_s_kernel, divides_sigma2, builds_an_llr_martingale, reads_a_moment)
    found = {
        check.__name__: [
            f"{path.name}:{site}"
            for path in sorted(SRC.glob("*.py"))
            for site in qualified_sites(path.read_text(encoding="utf-8"), check)
        ]
        for check in checks
    }
    assert found == {
        "plans_the_s_kernel": ["bounds.py:MomentProfile.__post_init__"],
        "divides_sigma2": ["bounds.py:MartingaleSpec.__post_init__"],
        "builds_an_llr_martingale": [
            "codingapps.py:DmcChannel.__post_init__",
            "hyptest.py:HypothesisPair.__post_init__",
            "hyptest.py:HypothesisPair.__post_init__",
        ],
        "reads_a_moment": ["hyptest.py:martingale_params", "pmf.py:LlrMartingale.ratios"],
    }


def defines_config_error(node: ast.AST) -> bool:
    return isinstance(node, ast.ClassDef) and node.name == "ConfigError"


def catches_type_error(node: ast.AST) -> bool:
    """An ``except`` that names TypeError, alone or in a tuple, or a bare one."""
    return isinstance(node, ast.ExceptHandler) and (
        node.type is None
        or any(isinstance(n, ast.Name) and n.id == "TypeError" for n in ast.walk(node.type))
    )


def raises_a_mode_flag_message(node: ast.AST) -> bool:
    """A ``raise`` whose message says what a flag applies "only" to."""
    return isinstance(node, ast.Raise) and " only " in ast.unparse(node)


def checks_for_a_list(node: ast.AST) -> bool:
    """``isinstance(x, list)``, with list alone or in a tuple of types."""
    return (
        isinstance(node, ast.Call)
        and ast.unparse(node.func) == "isinstance"
        and len(node.args) == 2
        and any(isinstance(n, ast.Name) and n.id == "list" for n in ast.walk(node.args[1]))
    )


CLI_RULES = (
    defines_config_error,
    catches_type_error,
    raises_a_mode_flag_message,
    checks_for_a_list,
)


def cli_rule_sites(source: str) -> dict:
    return {check.__name__: qualified_sites(source, check) for check in CLI_RULES}


def test_checker_flags_cli_error_paths_outside_their_homes():
    source = (
        "class ConfigError(ValueError):\n"
        "    pass\n"
        "def _only(args, where, flag):\n"
        "    raise ValueError(f'{flag} applies only {where}')\n"
        "def _list(obj, key):\n"
        "    if not isinstance(obj[key], list):\n"
        "        raise ValueError(key)\n"
        "def read(obj):\n"
        "    try:\n"
        "        return tuple(obj['x'])\n"
        "    except (TypeError, ValueError):\n"
        "        raise ConfigError('--x applies only without --config')\n"
        "def grid(obj):\n"
        "    try:\n"
        "        return isinstance(obj, (list, tuple)) and isinstance(obj, dict)\n"
        "    except:\n"
        "        return False\n"
    )
    assert cli_rule_sites(source) == {
        "defines_config_error": ["ConfigError"],
        "catches_type_error": ["read", "grid"],
        "raises_a_mode_flag_message": ["_only", "read"],
        "checks_for_a_list": ["_list", "grid"],
    }


def test_cli_has_one_error_path_per_rule():
    # every failure is a ValueError (exit 2) or a numerical failure (exit 3):
    # no ConfigError, no TypeError caught, each input rule in one helper, and
    # main has one except clause per exit code
    source = (SRC / "cli.py").read_text(encoding="utf-8")
    assert cli_rule_sites(source) == {
        "defines_config_error": [],
        "catches_type_error": [],
        "raises_a_mode_flag_message": ["_only"],
        "checks_for_a_list": ["_list"],
    }
    (main,) = [n for n in ast.parse(source).body if getattr(n, "name", None) == "main"]
    assert sum(isinstance(n, ast.ExceptHandler) for n in ast.walk(main)) == 2


def test_checker_flags_an_unread_field():
    source = (
        "from dataclasses import dataclass\n"
        "@dataclass(frozen=True)\n"
        "class Row:\n"
        "    used: float\n"
        "    unread: float\n"
        "class Plain:\n"
        "    ignored: int\n"
    )
    reader = "def f(row):\n    row.unread = 1.0\n    return row.used\n"
    assert unread_fields(source, attributes_read(reader)) == ["Row.unread (line 5)"]


def test_checker_flags_an_unused_private_name():
    source = (
        "_TOL = 1e-10\n"
        "_USED = 2\n"
        "__all__ = []\n"
        "def _helper():\n"
        "    return _USED\n"
    )
    assert unused_private_names(source) == ["_TOL (line 1)", "_helper (line 4)"]


def test_checker_flags_an_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import math\n"
        "from os import path\n"
        "path.join('a')\n"
    )
    assert unused_imports(source) == ["math (line 2)"]


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")))
def test_no_unused_imports(module):
    assert unused_imports((SRC / module).read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")))
def test_no_unused_private_names(module):
    assert unused_private_names((SRC / module).read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")))
def test_no_unread_dataclass_fields(module):
    source = (SRC / module).read_text(encoding="utf-8")
    assert unread_fields(source, _attributes_read_in_repo()) == []


def numpy_uses(node: ast.AST) -> list[str]:
    """Each ``np.<name>`` or ``numpy.<name>`` read under ``node``."""
    return sorted(
        ast.unparse(n)
        for n in ast.walk(node)
        if isinstance(n, ast.Attribute)
        and isinstance(n.value, ast.Name)
        and n.value.id in ("np", "numpy")
    )


def test_checker_flags_numpy_uses():
    source = "def f(x):\n    return np.exp(x), numpy.float64, math.exp(x)\n"
    assert numpy_uses(ast.parse(source)) == ["np.exp", "numpy.float64"]


def test_tilted_kernel_runs_on_plain_floats():
    # hyptest's tilted pass is a handful of symbols: numpy dispatch costs more
    tree = ast.parse((SRC / "hyptest.py").read_text(encoding="utf-8"))
    (kernel,) = [
        n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "_tilted"
    ]
    assert numpy_uses(kernel) == []


# numpy hands these to BLAS, whose threads stalled for milliseconds on
# one-row Monte Carlo blocks while two cores were free
BLAS_NAMES = ("dot", "vdot", "inner", "matmul", "tensordot")


def blas_uses(node: ast.AST) -> list[str]:
    """Each ``@`` and each ``<x>.<name>`` with a name in BLAS_NAMES under ``node``."""
    return sorted(
        ast.unparse(n)
        for n in ast.walk(node)
        if isinstance(n, ast.BinOp)
        and isinstance(n.op, ast.MatMult)
        or isinstance(n, ast.Attribute)
        and n.attr in BLAS_NAMES
    )


def test_checker_flags_blas_uses():
    source = (
        "def f(a, b):\n"
        "    c = np.dot(a, b) + a @ b + a.dot(b) + np.matmul(a, b)\n"
        "    return np.einsum('ij,j->i', a, b), np.multiply(a, b)\n"
    )
    assert blas_uses(ast.parse(source)) == ["a @ b", "a.dot", "np.dot", "np.matmul"]


@pytest.mark.parametrize(
    "module,kernel",
    [("validate.py", "_block_hits"), ("codingapps.py", "_crest_factors")],
)
def test_sampling_kernels_keep_blas_out(module, kernel):
    tree = ast.parse((SRC / module).read_text(encoding="utf-8"))
    (node,) = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == kernel]
    assert blas_uses(node) == []
